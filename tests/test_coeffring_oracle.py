"""Ring arithmetic against an independent oracle: sympy.

Random Laurent polynomials over ℚ are built as Coefficients and as sympy
expressions from the same terms.  Sums, products, powers and partial
derivatives are compared with ``sympy.expand`` and ``sympy.diff`` term
for term, so a zero coefficient kept in a result fails as surely as a
wrong one, and evaluation is compared with ``subs``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb.coeffring import Chart, Coefficient

sympy = pytest.importorskip("sympy")

CHART = Chart(("q", "p", "z"), nonvanishing={"z"})
SYMBOLS = sympy.symbols(CHART.coordinates)
ORACLE = settings(max_examples=50, deadline=None)

# small exponents and values, so terms collide and sums cancel often
_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
_values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
laurent = st.dictionaries(_exponents, _values, max_size=4).map(lambda terms: Coefficient(CHART, terms))
_nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
points = st.tuples(_values, _values, _nonzero)


def to_sympy(c: Coefficient):
    return sympy.Add(
        *(
            sympy.Rational(v.numerator, v.denominator) * sympy.Mul(*(s**k for s, k in zip(SYMBOLS, expo)))
            for expo, v in c.terms.items()
        )
    )


def terms_of(expr) -> dict:
    """The terms of an expanded sympy Laurent polynomial, as a Coefficient's
    terms map (exponent vector to nonzero rational)."""
    out = {}
    for monomial, value in sympy.expand(expr).as_coefficients_dict().items():
        if value == 0:
            continue
        powers = monomial.as_powers_dict()
        expo = tuple(int(powers.get(s, 0)) for s in SYMBOLS)
        out[expo] = Fraction(int(value.p), int(value.q))
    return out


@given(laurent, laurent)
@ORACLE
def test_sum_matches_sympy(a, b):
    assert (a + b).terms == terms_of(to_sympy(a) + to_sympy(b))
    # every term of a cancels here, unless b holds it
    assert (a + b + -a).terms == terms_of(to_sympy(b))


@given(laurent, laurent)
@ORACLE
def test_product_matches_sympy(a, b):
    assert (a * b).terms == terms_of(to_sympy(a) * to_sympy(b))


@given(laurent, st.integers(0, 3))
@ORACLE
def test_power_matches_sympy(a, k):
    assert (a**k).terms == terms_of(to_sympy(a) ** k)


@given(laurent, st.sampled_from(CHART.coordinates))
@ORACLE
def test_partial_matches_sympy(a, name):
    assert a.partial(name).terms == terms_of(sympy.diff(to_sympy(a), SYMBOLS[CHART.index(name)]))


@given(laurent, points)
@ORACLE
def test_evaluate_matches_sympy(a, point):
    value = to_sympy(a).subs(dict(zip(SYMBOLS, (sympy.Rational(v.numerator, v.denominator) for v in point))))
    assert a.evaluate(dict(zip(CHART.coordinates, point))) == Fraction(int(value.p), int(value.q))
