"""Expression tapes against the recursive AST interpreter, bit for bit.

A tape runs every operation on the jet path until ``COMPILE_AFTER`` runs at
an order have succeeded, and from then on calls the function it compiled for
that order, which reruns a point on the jet path when it raises or meets a
non-finite value.  The cases here compare the jet bits (``struct.pack``) or
the exception type and message with ``eval_jet_reference``: on the jet path
at four points per order, and on the compiled path after running each tape
past the threshold.  The compositions and mixed-order products of
``jets._Source``, which also writes the jets' own kernels and ``surface``'s
pipeline kernel, are compared with the loops in ``_oracles`` that share no
code with it (``compose_full_order`` and ``mul_reference``) on random jets
with special slots.
"""

import dataclasses
import dis
import itertools
import math
import pickle
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wagnerlift import expr as ex
from wagnerlift import connection, jets
from wagnerlift.expr import Tape, eval_jet, parse
from wagnerlift.jets import Jet
from wagnerlift.surface import (
    ConformalSurface,
    _pipeline_kernel,
    conformal_laplacian_curvature,
    laplacian_curvature_from,
)

from _oracles import (
    coeffs_reference,
    compose_full_order,
    eval_jet_reference,
    mul_reference,
    random_smooth_expr,
)


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _outcome(evaluate):
    """('jet', order, bits), ('float', bits) or ('raised', type, message)."""
    try:
        value = evaluate()
    except Exception as err:  # the comparison covers whatever is raised
        return ("raised", type(err), str(err))
    if isinstance(value, float):
        return ("float", _bits([value]))
    return ("jet", value.order, _bits(value._t))


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


# -- the layout ------------------------------------------------------------------


def _nodes(node: ex.Expr) -> list:
    """``node`` and its descendants."""
    children = (getattr(node, field.name) for field in dataclasses.fields(node))
    return [node, *(n for c in children if isinstance(c, ex.Expr) for n in _nodes(c))]


@settings(max_examples=200, deadline=None)
@given(expression)
def test_tape_has_one_entry_per_node_but_the_variables_reading_only_lower_registers(node):
    tape = Tape(node)
    assert len(tape._ops) == sum(not isinstance(n, ex.Var) for n in _nodes(node))
    for k, (fn, i, j) in enumerate(tape._ops):
        operands = [] if fn is None else [r for r in (i, j) if r is not None]
        assert all(0 <= r < k + 2 for r in operands), (k, tape._ops[k])
    if isinstance(node, ex.Var):
        assert (tape._out, tape._ops) == ({"x1": 0, "x2": 1}[node.name], ())
    else:
        assert tape._out == len(tape._ops) + 1


# -- the compiled path -------------------------------------------------------------

WARM = [(0.3, -0.7), (1.5, 0.25), (-2.0, 1.0), (0.7, 1.3), (-0.4, -1.1), (2.5, 0.6)]
# Tiny, huge, signed-zero and exp-overflowing coordinates.
EXTREMES = [1e-155, -1e-155, 1e154, -1e154, 0.0, -0.0, 700.0, -700.0, 1e300]


def _run_past_threshold(tape: Tape, order: int, points) -> bool:
    """Evaluate until ``COMPILE_AFTER`` runs at ``order`` have succeeded, or
    3 * ``COMPILE_AFTER`` have been tried; True when the tape compiled."""
    for point in itertools.islice(itertools.cycle(points), 3 * ex.COMPILE_AFTER):
        if tape._compiled[order] is not None:
            break
        try:
            eval_jet(tape, point, order)
        except jets.DomainError:
            pass
    return tape._compiled[order] is not None


extreme_coordinate = st.one_of(coordinate, st.sampled_from(EXTREMES))
extreme_points = st.lists(st.tuples(extreme_coordinate, extreme_coordinate), min_size=6, max_size=6)


@settings(max_examples=150, deadline=None)
@given(expression, extreme_points)
def test_compiled_tape_matches_reference_at_every_order(node, pts):
    for order in range(jets.MAX_ORDER + 1):
        tape = Tape(node)
        _run_past_threshold(tape, order, WARM + pts)
        for point in pts + [(e, 0.5) for e in EXTREMES]:
            expected = _outcome(lambda: eval_jet_reference(node, point, order))
            assert _outcome(lambda: eval_jet(tape, point, order)) == expected, (point, order)


@pytest.mark.parametrize(
    "source",
    [
        "log(2) - log(1 + x1^2 + x2^2)",
        "-log(x2)",
        "x1^2 + x2^2",
        "log(x1)",  # third partials inf or NaN at order 3 for x1 = 1e-103
        "exp(x1)*cos(x2)/tan(x1 + x2) - sqrt(x1^2 + 1)^-3",
        "x1^0.5*atan(x2) + sinh(x1)*cosh(x2)*tanh(x1 - x2)",
        "-(x1 - x2)",
        # At x1 = 0 one Horner term overflows where no output does.
        "log(1e-5 + 1e300*x1^2)",
        "2 + pi",  # no operation reads a variable
        "x2",  # no operation at all
    ],
)
def test_a_point_keeps_its_bits_across_compilation(source):
    for order in range(jets.MAX_ORDER + 1):
        tape = Tape(parse(source))
        points = [(0.3, 0.7), (1e-103, 0.5), (-0.0, 0.0), (1e300, 2.0)]
        before = [_outcome(lambda: eval_jet(tape, point, order)) for point in points]
        assert _run_past_threshold(tape, order, [*WARM[:2], (0.0, 0.3)]), order
        after = [_outcome(lambda: eval_jet(tape, point, order)) for point in points]
        assert after == before, order


def test_a_folded_nan_output_keeps_the_tape_on_the_jets():
    # Which sign a NaN made from two NaNs takes depends on the code that
    # combined them, so a NaN folded at compile time could differ in sign.
    node = parse("-(-3.9999999999999996/log(2.225073858507e-311))")
    tape = Tape(node)
    assert not _run_past_threshold(tape, 1, PTS)
    expected = _outcome(lambda: eval_jet_reference(node, PTS[0], 1))
    assert _outcome(lambda: eval_jet(tape, PTS[0], 1)) == expected


def test_a_tested_sum_that_overflows_sends_the_point_to_the_jets():
    # At (1, 1) the outputs 1e308, 1e308 and 1e308 are finite, but the one sum
    # the compiled function tests is not: the point reruns on the jets.
    tape = Tape(parse("1e308*x1*x2"))
    assert _run_past_threshold(tape, 1, [(0.3, 0.7), (1.5, 0.25)])
    with pytest.raises(FloatingPointError):
        tape._compiled[1](1.0, 1.0)
    expected = _outcome(lambda: tape._run_jets(1.0, 1.0, 1))
    assert expected == ("jet", 1, _bits([1e308, 1e308, 1e308]))
    assert _outcome(lambda: eval_jet(tape, (1.0, 1.0), 1)) == expected


def test_compiled_tape_evaluates_constant_subtrees_at_compile_time(monkeypatch):
    tape = Tape(parse("log(2) - log(1 + x1^2 + x2^2)"))
    expected = _outcome(lambda: eval_jet(tape, PTS[1], 3))
    log_runs = []
    log_derivs = jets.DERIVS["log"]

    def counting(v, n):
        log_runs.append(v)
        return log_derivs(v, n)

    monkeypatch.setitem(jets.DERIVS, "log", counting)
    assert _run_past_threshold(tape, 3, PTS[:1])
    assert log_runs == [2.0]  # log(2), once, while compiling

    def unexpected(*args):
        raise AssertionError("the compiled tape called a jet power")

    monkeypatch.setattr(jets, "integer_power", unexpected)
    monkeypatch.setattr(ex, "_power", unexpected)
    assert _outcome(lambda: eval_jet(tape, PTS[1], 3)) == expected
    assert log_runs == [2.0, 1.0 + PTS[1][0] ** 2 + PTS[1][1] ** 2]


def test_varying_exponent_keeps_the_runtime_power(monkeypatch):
    tape = Tape(parse("x1^(x2 - x2)"))
    powers = []
    integer_power = jets.integer_power

    def counting(jet, n):
        powers.append(n)
        return integer_power(jet, n)

    monkeypatch.setattr(jets, "integer_power", counting)
    assert not _run_past_threshold(tape, 2, PTS[:3])
    assert tape._runs[2] == 3 * ex.COMPILE_AFTER
    assert powers == [0] * (3 * ex.COMPILE_AFTER)


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("source,value", [("x1 + log(0 - 1)", "-1.0"), ("x1 + log(0)", "0.0")])
def test_failing_constant_subtree_never_compiles(source, value, order):
    node = parse(source)
    tape = Tape(node)
    for point in PTS * ex.COMPILE_AFTER:
        expected = _outcome(lambda: eval_jet_reference(node, point, order))
        assert expected == ("raised", jets.DomainError, f"log of non-positive value {value}")
        assert _outcome(lambda: eval_jet(tape, point, order)) == expected
    assert tape._runs[order] == 0
    assert tape._compiled[order] is None


def test_compilation_waits_for_the_threshold_run_at_each_order():
    tape = Tape(parse("x1*log(2)"))
    for _ in range(ex.COMPILE_AFTER - 1):
        eval_jet(tape, PTS[0], 2)
    assert tape._compiled[2] is None
    eval_jet(tape, PTS[1], 2)
    assert tape._compiled[2] is not None
    assert tape._compiled[3] is None


def test_compiled_tape_pickles_as_a_fresh_tape():
    surface = ConformalSurface(name="sphere", lam=parse("log(2) - log(1 + x1^2 + x2^2)"))
    assert _run_past_threshold(surface._lam_tape, 3, PTS[:2])
    copy = pickle.loads(pickle.dumps(surface))
    assert copy._lam_tape._compiled[3] is None
    expected = _outcome(lambda: surface.lambda_jet(PTS[2], 3))
    assert _outcome(lambda: copy.lambda_jet(PTS[2], 3)) == expected


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
@example(seed=115862, x1=2.0, x2=3.0)  # both monitor routes: exp overflows at 760.2
def test_lower_order_jet_is_the_prefix_of_the_higher(seed, x1, x2):
    # The geodesic integrator reads the Q3/K monitor off the order-3 jet it
    # evaluates anyway; that gives the order-2 bits only because of this.
    node = random_smooth_expr(random.Random(seed))
    tape, point = Tape(node), (x1, x2)
    for n in range(jets.MAX_ORDER):
        higher = _outcome(lambda: eval_jet(tape, point, n + 1).truncate(n))
        assert _outcome(lambda: eval_jet(tape, point, n)) == higher, n
    surface = ConformalSurface(name="random", lam=node)
    monitor = _outcome(lambda: laplacian_curvature_from(eval_jet(tape, point, 3).coeffs, point))
    assert monitor == _outcome(lambda: conformal_laplacian_curvature(surface, point))


# Arguments of log and exp at the edges of their inline sequences: signed
# zeros, the smallest subnormal (its square underflows), a tiny normal, a
# value whose square overflows, inf, nan and a negative value.
_INLINE_EDGES = [0.0, -0.0, 5e-324, 1e-160, 1e200, float("inf"), float("nan"), -2.5]
_INLINE_RAISES = (FloatingPointError, OverflowError, ZeroDivisionError)


@pytest.mark.parametrize(
    "source", ["log(x1)", "exp(x1)", "log(x1)*x2 + exp(x1*x2)", "x1^0.5*x2", "exp(log(x1) - x2)"]
)
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_inline_log_and_exp_keep_the_jet_bits(source, order):
    tape = Tape(parse(source))
    assert _run_past_threshold(tape, order, [(0.3, 0.7), (1.5, 0.25), (2.0, 1.0)])
    compiled = tape._compiled[order]
    # The sequences run inline: the generated code calls no jets._log or _exp.
    assert {"_log", "_exp"}.isdisjoint(compiled.__code__.co_names)
    for v in _INLINE_EDGES + [0.7]:
        for point in [(v, 0.5), (0.5, v), (v, v)]:
            expected = _outcome(lambda: tape._run_jets(*point, order))
            try:
                got = ("jet", order, _bits(compiled(*point)))
            except _INLINE_RAISES:  # the point reruns on the jets
                got = None
            assert got is None or got == expected, (point, order)
            assert _outcome(lambda: eval_jet(tape, point, order)) == expected, (point, order)


def test_inline_log_raises_where_jets_log_does():
    # Each raise below sends the point back to the jets, whose own exception
    # the caller then sees: log of a non-positive value, the square of the
    # smallest subnormal (0.0) as a divisor, and the square of 1e200.
    tape = Tape(parse("log(x1)"))
    assert _run_past_threshold(tape, 2, [(0.3, 0.7), (1.5, 0.25)])
    for v, error in [(0.0, FloatingPointError), (-0.0, FloatingPointError),
                     (-2.5, FloatingPointError), (5e-324, ZeroDivisionError),
                     (1e200, OverflowError)]:
        with pytest.raises(error):
            tape._compiled[2](v, 0.5)
        with pytest.raises(jets.DomainError):
            eval_jet(tape, (v, 0.5), 2)
    exp_tape = Tape(parse("exp(x1)"))
    assert _run_past_threshold(exp_tape, 1, [(0.3, 0.7), (1.5, 0.25)])
    with pytest.raises(OverflowError):
        exp_tape._compiled[1](1e200, 0.5)
    assert _bits(exp_tape._compiled[1](float("-inf"), 0.5)) == _bits((0.0, 0.0, 0.0))


# -- the lemma behind the pipeline kernel's left-out Horner terms ---------------

_LEMMA_SPECIAL = (0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan, -math.nan)
_NON_FINITE = (math.inf, -math.inf, math.nan, -math.nan)


def _slot_function(sizes, emit):
    """``emit`` on lists of named slots, one list per size, as a function of
    those slots returning ``emit``'s slot list."""
    src = jets._Source()
    lists = [[f"s{k}_{i}" for i in range(size)] for k, size in enumerate(sizes)]
    out = emit(src, *lists)
    src.lines.append(f"return {src.text(out)}")
    return connection._define("slots", ", ".join(name for names in lists for name in names), src.lines, src.names)


def _lemma_slot(rng: random.Random) -> float:
    return rng.choice(_LEMMA_SPECIAL) if rng.random() < 0.2 else rng.uniform(-3.0, 3.0)


def _lemma_jet(rng: random.Random, order: int) -> Jet:
    """A jet with a value in every sequence's domain and special perturbation
    slots; two in five have a non-finite one."""
    taylor = [_lemma_slot(rng) for _ in range(jets._SIZE[order])]
    if rng.random() < 0.4:
        taylor[rng.randrange(1, len(taylor))] = rng.choice(_NON_FINITE)
    taylor[0] = rng.uniform(0.1, 3.0)
    return Jet(order, tuple(taylor))


@pytest.mark.parametrize("order", range(1, jets.MAX_ORDER + 1))
@pytest.mark.parametrize(
    "derivs", [jets._exp, jets._log, jets.reciprocal_derivs, jets._sin, jets._atan],
    ids=lambda derivs: derivs.__name__,
)
def test_source_compose_keeps_the_jet_bits_on_special_perturbations(derivs, order):
    # ``_Source.compose`` writes each Horner step, ``jets.compose``'s kernels
    # included, as the full-order loop runs it: the slots that reach the output,
    # from the perturbation's slots past its value, with no finiteness test, so
    # it keeps every bit, non-finite perturbation slots included.
    composed = _slot_function([jets._SIZE[order]], lambda src, f: src.compose(f, derivs))
    warm = Jet(order, tuple(0.1 * k + 0.5 for k in range(jets._SIZE[order])))
    for _ in range(16):  # CPython 3.11 picks a two-NaN result's sign by specialization state
        composed(*warm._t)
        compose_full_order(warm, derivs(warm.value, order))
    rng = random.Random(2300 + order)
    non_finite = 0
    for _ in range(2000):
        jet = _lemma_jet(rng, order)
        expected = _bits(compose_full_order(jet, derivs(jet.value, order)))
        assert _bits(composed(*jet._t)) == expected, jet
        non_finite += not all(map(math.isfinite, jet._t[1:]))
    assert non_finite > 600


def _binary_ops(function, op: str | None = None) -> int:
    return sum(ins.opname == "BINARY_OP" and op in (None, ins.argrepr)
               for ins in dis.get_instructions(function))


def test_horner_steps_form_only_the_slots_that_reach_the_output():
    # The step with k Taylor terms still to add forms the slots of degree <= n - k,
    # from the perturbation's slots past its value: at order 4, 2 + 9 + 25 + 55 = 91
    # products, where every step at full order formed 4 * 55 = 220.
    def products(m):  # monomial pairs of total degree <= m, the second one not constant
        return sum(sum(a) + sum(b) <= m for a in jets.MONOMIALS[m] for b in jets.MONOMIALS[m][1:])

    assert [products(m) for m in range(1, jets.MAX_ORDER + 1)] == [2, 9, 25, 55]
    for n in range(jets.MAX_ORDER + 1):
        expected = sum(products(m) for m in range(1, n + 1))
        assert _binary_ops(jets._HORNER_KERNELS[n], "*") == expected, n
    # surface's kernel composes e^(-lambda) and 1/K alike: 464 BINARY_OPs at full order.
    assert _binary_ops(_pipeline_kernel()) == 418


@pytest.mark.parametrize("orders", [(4, 2), (2, 4), (3, 1), (1, 0), (4, 0)], ids=str)
def test_source_mul_of_mixed_orders_truncates_as_the_jets_do(orders):
    sizes = [jets._SIZE[n] for n in orders]
    product = _slot_function(sizes, lambda src, a, b: src.mul(a, b))
    rng = random.Random(2310 + 10 * orders[0] + orders[1])
    jet_pairs = [[Jet(n, tuple(_lemma_slot(rng) for _ in range(size)))
                  for n, size in zip(orders, sizes)] for _ in range(2000)]
    size = min(sizes)
    for a, b in jet_pairs[:16]:  # warm both, as above
        product(*a._t, *b._t), mul_reference(a._t[:size], b._t[:size], min(orders))
    for a, b in jet_pairs:
        expected = mul_reference(a._t[:size], b._t[:size], min(orders))
        assert _bits(product(*a._t, *b._t)) == _bits(expected), (a, b)
