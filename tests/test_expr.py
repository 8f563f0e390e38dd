"""Parser and jet-algebra tests: grammar, round trips, exact derivatives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wagnerlift import expr as ex
from wagnerlift import jets
from wagnerlift.expr import (
    Add,
    Call,
    Const,
    Div,
    Literal,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    eval_jet,
    format_expr,
    parse,
)

from _oracles import (
    fd_agrees,
    fd_partial,
    parse_reference,
    polynomial_partial,
    random_polynomial,
    random_smooth_expr,
)


# -- grammar --------------------------------------------------------------------


def test_parse_variable_identity():
    assert parse("x1") == Var("x1")


def test_parse_unary_minus_binds_looser_than_power():
    assert parse("-x1^2") == Neg(Pow(Var("x1"), Literal(2.0)))


def test_parse_power_right_associative():
    assert parse("2^3^2") == Pow(Literal(2.0), Pow(Literal(3.0), Literal(2.0)))
    # exponent 9 exceeds the repeated-multiplication cutoff, so exp/log rounding applies
    assert eval_jet("2^3^2", (0.0, 0.0), 0).value == pytest.approx(512.0, rel=1e-12)


def test_parse_precedence_mul_over_add():
    assert parse("1 + 2*x1") == Add(Literal(1.0), Mul(Literal(2.0), Var("x1")))


def test_parse_unary_minus_inside_product():
    assert parse("x1 * -x2") == Mul(Var("x1"), Neg(Var("x2")))


def test_parse_whitespace_insensitive():
    assert parse(" x1 +  x2 ") == parse("x1+x2")


def test_parse_sphere_conformal_factor_round_trip():
    source = "log(2) - log(1 + x1^2 + x2^2)"
    tree = parse(source)
    assert tree == Sub(
        Call("log", Literal(2.0)),
        Call(
            "log",
            Add(Add(Literal(1.0), Pow(Var("x1"), Literal(2.0))), Pow(Var("x2"), Literal(2.0))),
        ),
    )
    assert parse(format_expr(tree)) == tree


def test_parse_constants_and_functions():
    assert parse("pi") == Const("pi")
    assert parse("atan(e)") == Call("atan", Const("e"))


@pytest.mark.parametrize(
    "bad, position",
    [
        ("", 0),
        ("   ", 0),
        ("x1 +", 4),
        ("(x1", 3),
        ("x1 x2", 3),
        ("$", 0),
        ("sin x1", 4),
        ("\u3000$", 1),  # a character offset: the UTF-8 offset of '$' is 3
    ],
)
def test_parse_errors_carry_position(bad, position):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == position


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x1 + y")
    assert err.value.position == 5


def test_parse_rejects_overflowing_literal():
    with pytest.raises(ParseError):
        parse("1e999")


def test_parse_rejects_excessive_nesting():
    with pytest.raises(ParseError):
        parse("(" * 500 + "x1" + ")" * 500)


@pytest.mark.parametrize("op", ["+", "*"])
def test_parse_rejects_a_chain_too_long_to_lower(op):
    # A left-associative chain of n operators is a tree n deep.
    with pytest.raises(ParseError):
        parse("x1^2" + f" {op} x2" * 3000)


def _nested_chains(levels: int, length: int, wrap: str) -> str:
    text = "x1"
    for _ in range(levels):
        text = wrap.format(text + " + x2" * length)
    return text


@pytest.mark.parametrize("wrap", ["({})", "-({})", "sin({})", "({})^2"])
def test_the_longest_accepted_chains_lower_print_and_hash(wrap):
    # A chain's first operand may end in a chain of its own: the depth of the
    # next operand counts the height of the tree to its left, so the deepest
    # tree the parser accepts stays clear of the recursion limit.
    for levels in (1, 5, 10, 20, 30):
        low, high = 0, 300  # the longest accepted chain length, by bisection
        while low < high:
            mid = (low + high + 1) // 2
            try:
                parse(_nested_chains(levels, mid, wrap))
                low = mid
            except ParseError:
                high = mid - 1
        accepted = _nested_chains(levels, low, wrap)
        for text in (accepted, _nested_chains(levels, low + 1, wrap)):
            assert _outcome(parse, text) == _outcome(parse_reference, text)
        node = parse(accepted)
        ex.Tape(node)  # lowering, printing, == and hash all recurse over the tree
        assert parse(format_expr(node)) == node and hash(node) == hash(parse(format_expr(node)))


# -- the parser against the reference parser ----------------------------------------


def _outcome(parse_text, text):
    """The tree, or the exception's type, message and position."""
    try:
        return parse_text(text)
    except Exception as err:  # noqa: BLE001 - any exception must match too
        return type(err), str(err), getattr(err, "position", None)


# Unicode spaces and decimal digits: ``str.isspace`` and ``float`` accept them.
_SPACES = " \t\n\u00a0\u2003\u3000"
_DIGITS = "0123456789\u0663\uff17"
_blank = st.text(_SPACES, max_size=2)
_number = st.tuples(
    st.text(_DIGITS, min_size=1, max_size=3),
    st.sampled_from(["", "."]),
    st.text(_DIGITS, max_size=2),
    st.sampled_from(["", "e5", "E-2", "e+400", "e"]),
).map("".join)
_grammar = st.recursive(
    st.one_of(_number, st.sampled_from(["x1", "x2", "pi", "e", "y", "sin", ".5"])),
    lambda inner: st.one_of(
        st.tuples(inner, _blank, st.sampled_from("+-*/^"), _blank, inner).map("".join),
        inner.map("-{}".format),
        st.tuples(st.sampled_from(["(", "sin(", "atan (", "exp( "]), inner).map("{0[0]}{0[1]})".format),
    ),
    max_leaves=12,
)


@st.composite
def _mutated(draw):
    text = draw(_grammar)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.text("+-*/^()., x12e$\u3000\u0663", max_size=2)) + text[j:]
    return text


_arbitrary = st.text(st.one_of(st.characters(), st.sampled_from(_SPACES + _DIGITS)), max_size=30)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(_grammar, _mutated(), _arbitrary))
def test_parse_matches_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(parse_reference, text)


@pytest.mark.parametrize("wrap", ["({})", "-{}", "{}^x2", "sin({})"])
def test_parse_matches_the_reference_parser_at_the_depth_limit(wrap):
    # A parenthesis or call reaches the limit at about 40 levels, the others at about 200.
    text = "x1"
    for levels in range(1, 206):
        text = wrap.format(text)
        assert _outcome(parse, text) == _outcome(parse_reference, text), levels


@pytest.mark.parametrize("op", ["+", "*"])
def test_parse_matches_the_reference_parser_on_long_chains(op):
    for terms in (100, 199, 200, 201, 3000):
        text = "x1" + f" {op} x2" * (terms - 1)
        assert _outcome(parse, text) == _outcome(parse_reference, text), terms


# -- printer round trip -----------------------------------------------------------

_leaves = st.one_of(
    st.builds(
        Literal,
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    st.sampled_from([Var("x1"), Var("x2"), Const("pi"), Const("e")]),
)

_ast = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Pow, inner, inner),
        st.builds(Call, st.sampled_from(sorted(jets.FUNCTIONS)), inner),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_ast)
def test_format_parse_round_trip(tree):
    assert parse(format_expr(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_fuzz_parse_never_crashes(text):
    try:
        tree = parse(text)
    except ParseError as err:
        assert isinstance(err.position, int)
        assert 0 <= err.position <= len(text)
    else:
        assert parse(format_expr(tree)) == tree


# -- jet evaluation ---------------------------------------------------------------


def test_eval_jet_bilinear_example():
    jet = eval_jet("x1*x2", (2.0, 3.0), 2)
    assert jet.value == 6.0
    assert jet.deriv(1, 0) == 3.0
    assert jet.deriv(0, 1) == 2.0
    assert jet.deriv(2, 0) == 0.0
    assert jet.deriv(1, 1) == 1.0
    assert jet.deriv(0, 2) == 0.0


def test_eval_jet_sine_at_origin():
    jet = eval_jet("sin(x1)", (0.0, 0.0), 3)
    assert jet.value == 0.0
    assert jet.deriv(1, 0) == 1.0
    assert jet.deriv(2, 0) == 0.0
    assert jet.deriv(3, 0) == -1.0


def test_eval_jet_coefficient_count():
    for order in range(5):
        jet = eval_jet("exp(x1) + x2", (0.1, 0.2), order)
        assert len(jet.coeffs) == (order + 1) * (order + 2) // 2
        assert all(math.isfinite(c) for c in jet.coeffs)


def test_eval_jet_gaussian_bump_vs_finite_differences():
    tree = parse("exp(x1^2 + x2^2)")
    jet = eval_jet(tree, (0.3, -0.2), 4)
    for a in range(5):
        for b in range(5 - a):
            expected = fd_partial(tree, (0.3, -0.2), a, b)
            assert jet.deriv(a, b) == pytest.approx(expected, rel=1e-5, abs=1e-5)


def test_fd_agreement_on_random_smooth_expressions():
    rng = random.Random(20240817)
    checked = 0
    while checked < 50:
        tree = random_smooth_expr(rng, depth=3)
        point = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        assert fd_agrees(tree, point, order=4, rtol=1e-5), format_expr(tree)
        checked += 1


def test_product_rule_200_cases():
    rng = random.Random(11)
    for _ in range(200):
        f = random_smooth_expr(rng, depth=2)
        g = random_smooth_expr(rng, depth=2)
        point = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        order = rng.randint(0, 4)
        product = eval_jet(Mul(f, g), point, order)
        via_jets = eval_jet(f, point, order) * eval_jet(g, point, order)
        for got, want in zip(product.coeffs, via_jets.coeffs):
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_chain_rule_200_cases():
    rng = random.Random(12)
    for _ in range(200):
        f = random_smooth_expr(rng, depth=2)
        point = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        order = rng.randint(0, 4)
        composed = eval_jet(Call("exp", f), point, order)
        via_jets = jets.exp(eval_jet(f, point, order))
        for got, want in zip(composed.coeffs, via_jets.coeffs):
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_polynomial_exactness_200_cases():
    rng = random.Random(13)
    for _ in range(200):
        monomials, tree = random_polynomial(rng)
        point = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        jet = eval_jet(tree, point, 4)
        for a in range(5):
            for b in range(5 - a):
                expected = polynomial_partial(monomials, point, a, b)
                assert jet.deriv(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("func", sorted(jets.FUNCTIONS))
def test_named_functions_match_finite_differences(func):
    # 0.37 keeps every function inside its real domain; the small step is fine
    # because the oracle works at 40 digits (truncation-only error).
    tree = Call(func, Add(Var("x1"), Literal(0.37)))
    assert fd_agrees(tree, (0.11, 0.0), order=4, rtol=1e-5, h=1e-4)


def test_division_jet_matches_finite_differences():
    tree = parse("sin(x1) / (2 + x2)")
    assert fd_agrees(tree, (0.4, 0.3), order=4, rtol=1e-5)


# -- domains and power handling -------------------------------------------------------


def test_log_domain_error():
    with pytest.raises(jets.DomainError):
        eval_jet("log(x1)", (-1.0, 0.0), 2)


def test_sqrt_domain_error_at_zero():
    with pytest.raises(jets.DomainError):
        eval_jet("sqrt(x1)", (0.0, 0.0), 1)


def test_division_by_zero_value_jet():
    with pytest.raises(jets.DomainError):
        eval_jet("1 / x1", (0.0, 1.0), 2)


def test_integer_power_works_on_negative_base():
    jet = eval_jet("x1^3", (-2.0, 0.0), 2)
    assert jet.value == -8.0
    assert jet.deriv(1, 0) == 12.0
    assert jet.deriv(2, 0) == -12.0


def test_negative_integer_power():
    jet = eval_jet("x1^-2", (2.0, 0.0), 1)
    assert jet.value == 0.25
    assert jet.deriv(1, 0) == pytest.approx(-0.25)


def test_fractional_power_requires_positive_base():
    assert eval_jet("x1^0.5", (4.0, 0.0), 1).value == pytest.approx(2.0)
    with pytest.raises(jets.DomainError):
        eval_jet("x1^0.5", (-4.0, 0.0), 1)


def test_large_integer_exponent_goes_through_exp_log():
    # beyond the repeated-multiplication cutoff: needs a positive base
    assert eval_jet("x1^9", (2.0, 0.0), 0).value == pytest.approx(512.0)
    with pytest.raises(jets.DomainError):
        eval_jet("x1^9", (-2.0, 0.0), 0)


def test_variable_exponent():
    jet = eval_jet("2^x2", (0.0, 3.0), 1)
    assert jet.value == pytest.approx(8.0)
    assert jet.deriv(0, 1) == pytest.approx(8.0 * math.log(2.0))


def test_jet_truncation_is_prefix():
    jet = eval_jet("exp(x1)*cos(x2)", (0.2, 0.1), 4)
    lower = jet.truncate(2)
    assert lower.order == 2
    for a in range(3):
        for b in range(3 - a):
            assert lower.deriv(a, b) == jet.deriv(a, b)
