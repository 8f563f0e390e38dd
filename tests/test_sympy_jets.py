"""Order-4 jets against sympy: the text is read by sympy's own parser, not by
``expr.parse``, and every partial of total order at most 4 is differentiated
symbolically."""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from wagnerlift.expr import eval_jet
from wagnerlift.jets import DomainError

from test_cli_properties import _lambda_text

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    standard_transformations,
)

X1, X2 = sympy.symbols("x1 x2")
_NAMES = {"x1": X1, "x2": X2, "e": sympy.E, "pi": sympy.pi}
_PARTIALS = [(a, n - a) for n in range(5) for a in range(n + 1)]
_POINTS = ((0.3, -0.2), (-0.45, 0.7), (0.8, 0.55))
# Both sides round in double precision along different operation sequences,
# so they differ by a few ulps of the largest term, not of the partial: a
# partial near zero may be a cancellation of terms of size ~1.  A wrong
# coefficient, sign or missing term is an error of order one.  The largest
# difference seen on these texts is 1.2e-13.
_TOLERANCE = 1e-9


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_lambda_text(3))
def test_order_4_partials_match_sympy(text):
    lam = parse_expr(text, local_dict=_NAMES,
                     transformations=standard_transformations + (convert_xor,))
    if lam.has(sympy.zoo, sympy.nan):
        return  # a constant division by zero, which the jets reject too
    partials = sympy.lambdify(
        (X1, X2), [sympy.diff(lam, X1, a, X2, b) for a, b in _PARTIALS], modules="math", cse=True
    )
    for point in _POINTS:
        try:
            jet = eval_jet(text, point, 4)
            expected = [float(value) for value in partials(*point)]
        except (DomainError, ArithmeticError, ValueError, TypeError):
            continue  # TypeError: a fractional power of a negative number is complex
        for (a, b), value in zip(_PARTIALS, expected):
            assert math.isclose(jet.deriv(a, b), value, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE), (
                text, point, (a, b)
            )
