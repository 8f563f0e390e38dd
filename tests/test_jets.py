"""Generated jet kernels against the reference loops, bit for bit.

Equality is checked on the IEEE-754 bit patterns (``struct.pack("d", ...)``),
so a kernel that sums in a different order, or loses a signed zero, fails
even where ``==`` would pass.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wagnerlift import jets
from wagnerlift.expr import Tape, eval_jet, parse
from wagnerlift.jets import Jet

from _oracles import (
    atan_derivs_loop,
    compose_full_order,
    compose_reference,
    compose_through_value_slot,
    mul_reference,
    tangent_derivs_loop,
)

# Mixed magnitudes make rounding depend on the summation order; explicit
# signed zeros check that no slot turns -0.0 into +0.0 or back.
coefficient = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]),
)
order = st.integers(min_value=0, max_value=jets.MAX_ORDER)


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _jet(draw, n: int) -> Jet:
    size = len(jets.MONOMIALS[n])
    return Jet(n, tuple(draw(st.lists(coefficient, min_size=size, max_size=size))))


@st.composite
def jet_pairs(draw):
    return _jet(draw, draw(order)), _jet(draw, draw(order))


@settings(max_examples=300, deadline=None)
@given(jet_pairs())
def test_product_matches_reference_loop(pair):
    a, b = pair
    n = min(a.order, b.order)
    size = len(jets.MONOMIALS[n])
    expected = mul_reference(a._t[:size], b._t[:size], n)
    product = a * b
    assert product.order == n
    assert _bits(product._t) == _bits(expected)
    assert _bits((b * a)._t) == _bits(mul_reference(b._t[:size], a._t[:size], n))


@pytest.mark.parametrize("n", range(jets.MAX_ORDER + 1))
def test_signed_zero_products_match_reference_loop(n):
    size = len(jets.MONOMIALS[n])
    a = Jet(n, (-0.0,) * size)
    b = Jet(n, tuple(1.0 if i % 2 else 0.0 for i in range(size)))
    for x, y in ((a, b), (b, a), (a, a)):
        assert _bits((x * y)._t) == _bits(mul_reference(x._t, y._t, n))


@st.composite
def jets_with_derivatives(draw):
    n = draw(order)
    derivs = draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1))
    return _jet(draw, n), derivs


@settings(max_examples=300, deadline=None)
@given(jets_with_derivatives())
def test_compose_matches_reference_horner(case):
    jet, derivs = case
    composed = jets.compose(jet, derivs)
    assert composed.order == jet.order
    assert _bits(composed._t) == _bits(compose_reference(jet, derivs))


@pytest.mark.parametrize("n", range(jets.MAX_ORDER + 1))
def test_compose_with_signed_zeros_matches_reference_horner(n):
    size = len(jets.MONOMIALS[n])
    jet = Jet(n, tuple(-0.0 if i % 2 else 0.5 for i in range(size)))
    derivs = [-0.0 if k % 2 else 0.0 for k in range(n + 1)]
    assert _bits(jets.compose(jet, derivs)._t) == _bits(compose_reference(jet, derivs))


@pytest.mark.parametrize("fn", ["exp", "sinh", "cosh"])
def test_overflow_is_a_domain_error(fn):
    with pytest.raises(jets.DomainError, match="overflows"):
        jets.FUNCTIONS[fn](Jet.variable(1000.0, 1, 2))


def test_power_overflow_in_derivatives_is_a_domain_error():
    with pytest.raises(jets.DomainError, match="overflows"):
        jets.log(Jet.variable(1e200, 1, 4))


@pytest.mark.parametrize("name", sorted(jets.DERIVS))
def test_compose_matches_the_value_slot_products_on_finite_jets(name):
    # Leaving out the products with the perturbation's 0.0 value slot keeps
    # every bit while they are finite: a +-0.0 term changes no +0.0-based sum.
    rng = random.Random(name)
    for n in range(jets.MAX_ORDER + 1):
        for _ in range(200):
            value = rng.uniform(0.05, 2.0)  # inside every function's domain
            tail = [
                rng.choice((0.0, -0.0, 1.0)) if rng.random() < 0.3 else rng.uniform(-50.0, 50.0)
                for _ in range(len(jets.MONOMIALS[n]) - 1)
            ]
            jet = Jet(n, (value, *tail))
            derivs = jets.DERIVS[name](value, n)
            assert _bits(jets.compose(jet, derivs)._t) == _bits(
                compose_through_value_slot(jet, derivs)
            ), (n, jet)


_COMPOSE_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308]


def _compose_outcome(compose, jet, derivs):
    try:
        return _bits(compose(jet, derivs))
    except Exception as err:  # noqa: BLE001 - both routes must fail alike
        return type(err), str(err)


@pytest.mark.parametrize("n", range(jets.MAX_ORDER + 1))
def test_truncated_horner_steps_match_the_full_order_loop_bit_for_bit(n):
    # ``jets.compose`` forms in each Horner step only the slots that reach the
    # output, the full-order loop every slot.  4000 jets per order (20 000 in
    # all) with special values in the slots and in the derivative sequence; one
    # sequence in 50 is too short, and both routes must raise alike on it.
    rng = random.Random(2800 + n)
    size = len(jets.MONOMIALS[n])

    def slot():
        if rng.random() < 0.25:
            return rng.choice(_COMPOSE_SPECIAL)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)

    warm = Jet(n, tuple(0.5 + 0.1 * k for k in range(size)))
    for _ in range(16):  # CPython 3.11 picks a two-NaN result's sign by specialization state
        jets.compose(warm, [1.0] * (n + 1))
        compose_full_order(warm, [1.0] * (n + 1))
    non_finite = raised = 0
    for _ in range(4000):
        jet = Jet(n, tuple(slot() for _ in range(size)))
        derivs = [slot() for _ in range(n + 1 if rng.random() >= 0.02 else rng.randint(0, n))]
        expected = _compose_outcome(compose_full_order, jet, derivs)
        got = _compose_outcome(lambda j, d: jets.compose(j, d)._t, jet, derivs)
        assert got == expected, (jet, derivs)
        non_finite += not all(map(math.isfinite, [*jet._t, *derivs]))
        raised += not isinstance(expected, bytes)
    assert non_finite > 500 and raised > 40


def _sequence_outcome(derivs, *args):
    try:
        return _bits(derivs(*args))
    except Exception as err:  # noqa: BLE001 - both routes must fail alike
        return type(err), str(err)


@pytest.mark.parametrize("name", ["tan", "tanh", "atan"])
def test_derivative_tables_match_the_per_call_polynomials_bit_for_bit(name):
    # tan(inf) raises, and (1 + v*v)**k overflows from |v| ~ 1e77 on while
    # 1 + v*v itself stays finite: both routes must raise alike there.
    loop = {
        "tan": lambda v, n: tangent_derivs_loop(math.tan(v), n, 1.0),
        "tanh": lambda v, n: tangent_derivs_loop(math.tanh(v), n, -1.0),
        "atan": atan_derivs_loop,
    }[name]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e100, -1e-300, 1e-160]
    rng = random.Random(name)
    values = special + [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 160) for _ in range(3000)]
    raised = 0
    for v in values:
        for n in range(jets.MAX_ORDER + 1):
            outcome = _sequence_outcome(jets.DERIVS[name], v, n)
            assert outcome == _sequence_outcome(loop, v, n), (v, n)
            raised += isinstance(outcome, tuple)
    assert raised > 0 or name == "tanh"  # tanh is finite for every input


def test_an_overflowed_taylor_term_leaves_the_finite_partials():
    # At x1 = 1e-103 the third derivative 2/x1^3 of log(x1) overflows.  It
    # used to reach every slot as inf * 0.0 = NaN through the perturbation's
    # value slot; now the value and the partials below order 3 are exact.
    jet = eval_jet(Tape(parse("log(x1)")), (1e-103, 0.0), 3)
    partials = dict(zip(jets.MONOMIALS[3], jet.coeffs))
    assert partials[(0, 0)] == math.log(1e-103)
    assert partials[(1, 0)] == 1e103
    assert partials[(2, 0)] == -1e206
    assert all(partials[ab] == 0.0 for ab in ((0, 1), (1, 1), (0, 2)))
    assert [ab for ab, v in partials.items() if math.isinf(v)] == [(3, 0)]
    # The old route turns all of them into NaN.
    old = compose_through_value_slot(Jet.variable(1e-103, 1, 3), jets.DERIVS["log"](1e-103, 3))
    assert all(math.isnan(v) for v in old)


# -- degree prefix: the lower-order result is the head of the higher-order one ----

_PREFIX_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300, 5e-324)


def _prefix_jet(rng: random.Random, n: int) -> Jet:
    """An order-``n`` jet whose slots are a special value one time in four,
    else uniform at a random scale up to 1e200, so products overflow too."""
    return Jet(n, tuple(
        rng.choice(_PREFIX_SPECIAL) if rng.random() < 0.25
        else rng.uniform(-1.0, 1.0) * 10.0 ** rng.choice((0, 0, 5, 100, 200))
        for _ in range(jets._SIZE[n])
    ))


def _prefix_outcome(fn, m: int):
    """The packed first ``_SIZE[m]`` slots of the jet ``fn`` gives, or the type
    and message of its exception."""
    try:
        return _bits(fn()._t[: jets._SIZE[m]])
    except Exception as err:  # noqa: BLE001 - both orders must fail alike
        return type(err), str(err)


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, jets.MAX_ORDER + 1) for m in range(n)])
def test_a_lower_order_result_is_the_prefix_of_the_higher_order_one(m, n):
    # A slot of degree d reads no slot of higher degree, in a product and in
    # every Horner step of a composition, so truncating first changes no bit.
    # ``surface._pipeline_kernel`` computes each jet only to the order it is
    # read because of this; ``expr._Source`` keeps the ``jets`` bits.
    rng = random.Random(2400 + 10 * m + n)
    cases = [(_prefix_jet(rng, n), _prefix_jet(rng, n)) for _ in range(2000)]
    for a, b in cases[:16]:  # CPython 3.11 picks a two-NaN result's sign by specialization state
        for k in (m, n):
            _prefix_outcome(lambda: a.truncate(k) * b.truncate(k), k)
            _prefix_outcome(lambda: jets.reciprocal(a.truncate(k)), k)
            _prefix_outcome(lambda: jets.exp(a.truncate(k)), k)
    raised = 0
    for a, b in cases:
        low, high = a.truncate(m), a
        routes = [
            (lambda: low * b.truncate(m), lambda: a * b),
            (lambda: jets.compose(low, jets._exp(low.value, m)),
             lambda: jets.compose(high, jets._exp(high.value, n))),
            (lambda: jets.compose(low, jets.reciprocal_derivs(low.value, m)),
             lambda: jets.compose(high, jets.reciprocal_derivs(high.value, n))),
        ]
        for low_route, high_route in routes:
            outcome = _prefix_outcome(low_route, m)
            assert outcome == _prefix_outcome(high_route, m), (m, n, a, b)
            raised += isinstance(outcome, tuple)
    assert raised > 100
