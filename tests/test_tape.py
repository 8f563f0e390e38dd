"""Expression tapes against the recursive AST interpreter, bit for bit.

A tape runs every operation at its first two evaluations at an order, folds
the point-independent registers at the second, and replays only the varying
operations after that.  Each case here evaluates one tape at four points per
order (the first run, the folding run and two replays) and compares the jet
bits (``struct.pack``) or the exception type and message with
``eval_jet_reference``.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wagnerlift import expr as ex
from wagnerlift import jets
from wagnerlift.expr import Tape, eval_jet, parse
from wagnerlift.jets import Jet
from wagnerlift.surface import (
    ConformalSurface,
    conformal_laplacian_curvature,
    laplacian_curvature_from,
)

from _oracles import coeffs_reference, eval_jet_reference, random_smooth_expr


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _outcome(evaluate):
    """('jet', order, bits) or ('raised', type, message)."""
    try:
        jet = evaluate()
    except Exception as err:  # the comparison covers whatever is raised
        return ("raised", type(err), str(err))
    return ("jet", jet.order, _bits(jet._t))


def _assert_matches_reference(node, points, order):
    tape = Tape(node)
    for point in points:
        expected = _outcome(lambda: eval_jet_reference(node, point, order))
        assert _outcome(lambda: eval_jet(tape, point, order)) == expected, (point, order)


# Signed zeros, integers that select integer powers, and values whose
# rounding differs with the order of operations.
literal = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5, -1.0, 9.0, 1e200, 1e-200]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
leaf = st.one_of(
    st.sampled_from([ex.Var("x1"), ex.Var("x2"), ex.Const("pi"), ex.Const("e")]),
    literal.map(ex.Literal),
)
expression = st.recursive(
    leaf,
    lambda sub: st.one_of(
        sub.map(ex.Neg),
        st.tuples(st.sampled_from(sorted(jets.FUNCTIONS)), sub).map(lambda c: ex.Call(*c)),
        st.tuples(st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Pow]), sub, sub).map(
            lambda c: c[0](c[1], c[2])
        ),
    ),
    max_leaves=12,
)
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
points = st.lists(st.tuples(coordinate, coordinate), min_size=4, max_size=4)


@settings(max_examples=400, deadline=None)
@given(expression, points)
def test_tape_matches_reference_at_every_order(node, pts):
    for order in range(jets.MAX_ORDER + 1):
        _assert_matches_reference(node, pts, order)


PTS = [(0.3, -0.7), (1.5, 0.25), (-2.0, 1.0), (0.0, -0.0)]


@pytest.mark.parametrize(
    "source",
    [
        "x1 + log(0 - 1)",  # a constant subtree that always fails
        "x1/(2 - 2)",
        "log(x1) + log(0 - 1)",  # which failure comes first depends on the point
        "x1^(x2 - x2)",  # a varying exponent that is constant in value
        "x1^(x2 - x2 + 0.5)",
        "2^x2 + x1^log(2)",
        "log(2) - log(1 + x1^2 + x2^2)",
        "sqrt(x1)*x2^-3",
        "sin(x1*1e200*1e200)",
        "log(1e-200*x1 + 1e-200)",
        "pi*e",
    ],
)
def test_tape_matches_reference_on_named_cases(source):
    for order in range(jets.MAX_ORDER + 1):
        _assert_matches_reference(parse(source), PTS, order)


@pytest.mark.parametrize(
    "node",
    [
        ex.Add(ex.Literal(-0.0), ex.Literal(-0.0)),
        ex.Mul(ex.Var("x1"), ex.Literal(-0.0)),
        ex.Sub(ex.Literal(-0.0), ex.Mul(ex.Var("x2"), ex.Literal(-0.0))),
        ex.Pow(ex.Var("x1"), ex.Literal(-0.0)),
        ex.Neg(ex.Literal(0.0)),
    ],
)
def test_signed_zero_leaves_match_reference(node):
    for order in range(jets.MAX_ORDER + 1):
        _assert_matches_reference(node, PTS, order)


def _folded_functions(tape: Tape, order: int) -> list:
    _, ops = tape._plans[order]
    return [fn for fn, *_ in ops]


def test_fold_drops_constant_subtrees_and_resolves_powers():
    tape = Tape(parse("log(2) - log(1 + x1^2 + x2^2)"))
    for point in PTS[:3]:
        eval_jet(tape, point, 3)
    functions = _folded_functions(tape, 3)
    assert functions.count(jets.FUNCTIONS["log"]) == 1  # log(2) is folded
    assert ex._power not in functions
    assert [getattr(fn, "keywords", None) for fn in functions].count({"n": 2}) == 2


def test_varying_exponent_keeps_the_runtime_power():
    tape = Tape(parse("x1^(x2 - x2)"))
    for point in PTS[:3]:
        eval_jet(tape, point, 2)
    assert ex._power in _folded_functions(tape, 2)


def test_failing_run_stores_nothing():
    tape = Tape(parse("x1 + log(0 - 1)"))
    for point in PTS:
        with pytest.raises(jets.DomainError, match="log of non-positive value -1.0"):
            eval_jet(tape, point, 1)
    assert tape._plans[1] is None


def test_fold_waits_for_the_second_run_at_each_order():
    tape = Tape(parse("x1*log(2)"))
    eval_jet(tape, PTS[0], 2)
    assert tape._plans[2] is True
    assert tape._plans[3] is None
    eval_jet(tape, PTS[1], 2)
    assert isinstance(tape._plans[2], tuple)
    assert tape._plans[3] is None


def test_eval_jet_accepts_text_ast_and_tape():
    node = parse("exp(x1)*cos(x2)")
    expected = _bits(eval_jet_reference(node, (0.2, 0.1), 4)._t)
    for source in ("exp(x1)*cos(x2)", node, Tape(node)):
        assert _bits(eval_jet(source, (0.2, 0.1), 4)._t) == expected


coefficient = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
)


@st.composite
def any_jet(draw):
    n = draw(st.integers(min_value=0, max_value=jets.MAX_ORDER))
    size = len(jets.MONOMIALS[n])
    return Jet(n, tuple(draw(st.lists(coefficient, min_size=size, max_size=size))))


@settings(max_examples=300, deadline=None)
@given(any_jet())
def test_coeffs_match_two_step_scaling(jet):
    assert _bits(jet.coeffs) == _bits(coeffs_reference(jet))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), coordinate, coordinate)
def test_lower_order_jet_is_the_prefix_of_the_higher(seed, x1, x2):
    # The geodesic integrator reads the Q3/K monitor off the order-3 jet it
    # evaluates anyway; that gives the order-2 bits only because of this.
    # At order 0 ``compose`` returns the Taylor term itself; at higher orders
    # it adds it to a +0.0 slot sum, so a -0.0 value can come out as +0.0 and
    # the order-0 value is pinned up to the sign of a zero.
    node = random_smooth_expr(random.Random(seed))
    tape, point = Tape(node), (x1, x2)
    assert _bits([eval_jet(tape, point, 0).value + 0.0]) == _bits(
        [eval_jet(tape, point, 1).value + 0.0]
    )
    for n in range(1, jets.MAX_ORDER):
        higher = eval_jet(tape, point, n + 1)
        assert _bits(eval_jet(tape, point, n)._t) == _bits(higher.truncate(n)._t), n
    surface = ConformalSurface(name="random", lam=node)
    monitor = laplacian_curvature_from(eval_jet(tape, point, 3).coeffs, point)
    assert _bits([monitor]) == _bits([conformal_laplacian_curvature(surface, point)])
