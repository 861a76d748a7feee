"""Ring arithmetic against an independent oracle: sympy.

Random Laurent polynomials over ℚ are built as Coefficients and as sympy
expressions from the same terms.  Sums, products, powers and partial
derivatives are compared with ``sympy.expand`` and ``sympy.diff`` term
for term, so a zero coefficient kept in a result fails as surely as a
wrong one, and evaluation is compared with ``subs``.  Every other reader
of the packed exponent keys (substitution, renaming onto a wider chart,
unit inverses and negative powers, exact division, support and
dependence, the text round trip, key order) is compared the same way.
Results are read through the tuple view ``exponent_terms``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb.coeffring import Chart, Coefficient, format_coefficient
from gjb.dsl import parse_coefficient
from gjb.errors import DomainError
from gjb.linalg import exact_divide

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


def to_sympy(c: Coefficient, symbols=SYMBOLS):
    return sympy.Add(
        *(
            sympy.Rational(v.numerator, v.denominator) * sympy.Mul(*(s**k for s, k in zip(symbols, expo)))
            for expo, v in c.exponent_terms().items()
        )
    )


def terms_of(expr, symbols=SYMBOLS) -> dict:
    """The terms of an expanded sympy Laurent polynomial, as a Coefficient's
    tuple view (exponent vector along ``symbols`` to nonzero rational)."""
    out = {}
    for monomial, value in sympy.expand(expr).as_coefficients_dict().items():
        if value == 0:
            continue
        powers = monomial.as_powers_dict()
        expo = tuple(int(powers.get(s, 0)) for s in symbols)
        out[expo] = Fraction(int(value.p), int(value.q))
    return out


@given(laurent, laurent)
@ORACLE
def test_sum_matches_sympy(a, b):
    assert (a + b).exponent_terms() == terms_of(to_sympy(a) + to_sympy(b))
    # every term of a cancels here, unless b holds it
    assert (a + b + -a).exponent_terms() == terms_of(to_sympy(b))


@given(laurent, laurent)
@ORACLE
def test_product_matches_sympy(a, b):
    assert (a * b).exponent_terms() == terms_of(to_sympy(a) * to_sympy(b))


@given(laurent, st.integers(0, 3))
@ORACLE
def test_power_matches_sympy(a, k):
    assert (a**k).exponent_terms() == terms_of(to_sympy(a) ** k)


@given(laurent, st.sampled_from(CHART.coordinates))
@ORACLE
def test_partial_matches_sympy(a, name):
    assert a.partial(name).exponent_terms() == terms_of(sympy.diff(to_sympy(a), SYMBOLS[CHART.index(name)]))


@given(laurent, points)
@ORACLE
def test_evaluate_matches_sympy(a, point):
    value = to_sympy(a).subs(dict(zip(SYMBOLS, (sympy.Rational(v.numerator, v.denominator) for v in point))))
    assert a.evaluate(dict(zip(CHART.coordinates, point))) == Fraction(int(value.p), int(value.q))


# -- every reader of the packed keys, through the tuple view ------------------

TARGET = Chart(("u", "v", "w"), nonvanishing={"w"})
TARGET_SYMBOLS = sympy.symbols(TARGET.coordinates)
# a wider chart holding CHART's names in another order, z still nonvanishing
WIDER = Chart(("a", "z", "p", "b", "q"), nonvanishing={"z", "b"})
WIDER_SYMBOLS = sympy.symbols(WIDER.coordinates)

_target_exponents = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(-1, 1))
images = st.dictionaries(_target_exponents, _values, max_size=3).map(lambda terms: Coefficient(TARGET, terms))
# a unit image for the Laurent slot: a nonzero rational times a power of w
units = st.builds(lambda r, k: Coefficient(TARGET, {(0, 0, k): r}), _nonzero, st.integers(-2, 2))
laurent_units = st.builds(lambda r, k: Coefficient(CHART, {(0, 0, k): r}), _nonzero, st.integers(-3, 3))


@given(laurent, images, images, units)
@ORACLE
def test_substitute_matches_sympy(a, q, p, z):
    got = a.substitute({"q": q, "p": p, "z": z}, TARGET)
    images_sympy = {s: to_sympy(c, TARGET_SYMBOLS) for s, c in zip(SYMBOLS, (q, p, z))}
    assert got.exponent_terms() == terms_of(to_sympy(a).subs(images_sympy, simultaneous=True), TARGET_SYMBOLS)


@given(laurent)
@ORACLE
def test_renaming_onto_a_wider_chart_matches_sympy(a):
    # sympy symbols are equal by name, so a's expression is read on WIDER
    got = a.rename_chart(WIDER)
    assert got.exponent_terms() == terms_of(to_sympy(a), WIDER_SYMBOLS)
    assert got.rename_chart(CHART) == a


@given(laurent_units, st.integers(1, 4))
@ORACLE
def test_negative_powers_and_unit_inverses_match_sympy(u, k):
    assert u.is_unit()
    assert u.unit_inverse().exponent_terms() == terms_of(1 / to_sympy(u))
    assert (u**-k).exponent_terms() == terms_of(to_sympy(u) ** -k)
    assert u * u.unit_inverse() == Coefficient.one(CHART)


@given(laurent, laurent)
@ORACLE
def test_exact_division_by_a_factor_matches_sympy(a, b):
    if b.is_zero():
        return
    quotient = exact_divide(a * b, b)
    assert quotient.exponent_terms() == terms_of(sympy.cancel(to_sympy(a * b) / to_sympy(b)))
    assert quotient == a


@given(laurent, laurent, laurent)
@ORACLE
def test_exact_division_refuses_exactly_what_leaves_the_ring(a, b, c):
    # a*b + c is divisible by b for some draws and not for most; in the
    # ring the reduced denominator is a monomial in the Laurent z alone
    if b.is_zero():
        return
    f = a * b + c
    num, den = sympy.fraction(sympy.cancel(to_sympy(f) / to_sympy(b)))
    den_terms = terms_of(den)
    if len(den_terms) == 1 and next(iter(den_terms))[:2] == (0, 0):
        assert exact_divide(f, b).exponent_terms() == terms_of(num / den)
    else:
        with pytest.raises(DomainError):
            exact_divide(f, b)


@given(laurent)
@ORACLE
def test_support_and_dependence_match_sympy(a):
    free = {str(s) for s in sympy.expand(to_sympy(a)).free_symbols}
    assert a.support() == free
    assert [a.depends_on(name) for name in CHART.coordinates] == [name in free for name in CHART.coordinates]


@given(laurent)
@ORACLE
def test_text_round_trips_through_the_parser_and_sympy(a):
    text = format_coefficient(a)
    assert parse_coefficient(CHART, text) == a
    parsed = sympy.sympify(text.replace("^", "**"), locals=dict(zip(CHART.coordinates, SYMBOLS)))
    assert terms_of(parsed) == a.exponent_terms()


@given(laurent)
@ORACLE
def test_key_order_is_exponent_vector_order(a):
    """The first coordinate is the most significant slot, so sorting the
    packed keys sorts the exponent vectors lexicographically."""
    assert [CHART.unpack(key) for key in sorted(a.terms)] == sorted(a.exponent_terms())
    assert all(CHART.pack(CHART.unpack(key)) == key for key in a.terms)
