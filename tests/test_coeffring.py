"""Coefficient ring: exact Laurent arithmetic, calculus, text round-trips."""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb.coeffring import _BIAS, Chart, Coefficient, format_coefficient
from gjb.dsl import parse_coefficient, render, to_json
from gjb.errors import DomainError, ParseError, StructuralError
from gjb.exterior import DiffForm, MultiVector, exterior_derivative, interior_product, schouten_nijenhuis, wedge
from gjb.linalg import exact_divide
from gjb.session import Session

from conftest import rand_coefficient
from oracles import (
    evaluate,
    exponent_terms,
    fraction_contraction,
    fraction_derivative,
    fraction_graded,
    fraction_partial,
    fraction_power,
    fraction_product,
    fraction_renamed,
    fraction_scale,
    fraction_schouten,
    fraction_substitute,
    fraction_sum,
    fraction_terms,
    fraction_wedge,
)

CHART = Chart(("p", "x", "y", "z"), frozenset({"z"}))


def coord(name):
    return Coefficient.coordinate(CHART, name)


def const(v):
    return Coefficient.constant(CHART, v)


def power(name, k):
    """``name`` to the ``k``-th power, through the validating constructor."""
    return Coefficient(CHART, {tuple(k if n == name else 0 for n in CHART.coordinates): 1})


# -- chart hygiene ----------------------------------------------------------


def test_chart_rejects_duplicates():
    with pytest.raises(StructuralError):
        Chart(("x", "x"))


def test_chart_rejects_unknown_nonvanishing_flag():
    with pytest.raises(StructuralError):
        Chart(("x",), frozenset({"w"}))


def test_chart_rejects_bad_names():
    with pytest.raises(StructuralError):
        Chart(("2x",))


# -- pinned arithmetic facts -------------------------------------------------


def test_laurent_unit_cancels():
    z = coord("z")
    zinv = power("z", -1)
    assert z * zinv == const(1)


def test_subtraction_cancels_shared_term():
    p, y = coord("p"), coord("y")
    H = y * y + const(Fraction(1, 2))
    assert (p + H) - p == H


def test_partial_of_inverse_power():
    zinv = power("z", -1)
    assert zinv.partial("z") == power("z", -2).scale(-1)
    assert exponent_terms(zinv.partial("z")) == {(0, 0, 0, -2): -1}


def test_negative_exponent_needs_flag():
    with pytest.raises(DomainError):
        power("x", -1)


def test_unit_inverse_round_trip():
    u = power("z", 3).scale(Fraction(2, 5))
    assert u * u.unit_inverse() == const(1)
    assert not (coord("x") + const(1)).is_unit()
    with pytest.raises(DomainError):
        (coord("x")).unit_inverse()


def test_integer_powers():
    y = coord("y")
    assert y**0 == const(1)
    assert y**3 == y * y * y
    z = coord("z")
    assert z**-2 == power("z", -2)


def test_evaluate_is_exact():
    f = coord("p") * coord("y") ** 2 + power("z", -1)
    point = {"p": Fraction(3), "x": 0, "y": Fraction(1, 2), "z": Fraction(2)}
    assert evaluate(f, point) == Fraction(3, 4) + Fraction(1, 2)


def test_evaluate_guards_domain():
    f = coord("z")
    with pytest.raises(DomainError):
        evaluate(f, {"p": 0, "x": 0, "y": 0, "z": 0})
    with pytest.raises(StructuralError):
        evaluate(f, {"p": 0, "x": 0, "y": 0})


def test_chart_mismatch_raises():
    other = Chart(("a", "b"))
    with pytest.raises(StructuralError):
        coord("x") + Coefficient.coordinate(other, "a")


def test_substitute_is_a_ring_morphism_on_samples():
    target = Chart(("u", "v"), frozenset({"v"}))
    images = {
        "p": Coefficient.coordinate(target, "u") ** 2,
        "x": Coefficient.constant(target, 3),
        "y": Coefficient.coordinate(target, "u") + Coefficient.constant(target, 1),
        "z": Coefficient.coordinate(target, "v"),
    }
    f = coord("p") * coord("y") + power("z", -1).scale(2)
    g = coord("y") ** 2 - const(4)
    fs = f.substitute(images, target)
    gs = g.substitute(images, target)
    assert (f * g).substitute(images, target) == fs * gs
    assert (f + g).substitute(images, target) == fs + gs


# -- textual form ------------------------------------------------------------


def test_format_standalone_keeps_rational_prefix():
    f = coord("y") ** 2 * coord("p").scale(Fraction(3, 2)) - power("z", -1)
    assert format_coefficient(f) == "3/2*p*y^2 - 1*z^-1"


def test_format_elide_unit_mode():
    f = coord("y") - coord("x")
    assert format_coefficient(f) == "-1*x + 1*y"
    assert render(f) == "-x + y"


def test_format_zero_and_constants():
    assert format_coefficient(Coefficient.zero(CHART)) == "0"
    assert format_coefficient(const(Fraction(-7, 3))) == "-7/3"


def test_terms_are_sorted_along_the_chart_name_order(rng):
    """``sorted_terms`` reads exponents along the sorted coordinate names,
    larger vectors first, on a chart whose names are out of order; a
    negative exponent sorts below zero."""
    chart = Chart(("y", "s0", "x1", "p", "a", "x0"), frozenset({"a", "p"}))
    order = sorted(range(chart.dimension), key=chart.coordinates.__getitem__)
    for _ in range(100):
        f = rand_coefficient(rng, chart, max_terms=6, max_degree=3, laurent=True)
        by_names = sorted(exponent_terms(f).items(), key=lambda item: [-item[0][i] for i in order])
        assert [(chart.unpack(key), value) for key, value in f.sorted_terms()] == by_names
    assert format_coefficient(Coefficient(chart, {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, -1, 2): 2})) == "1*y + 2*a^-1*x0^2"


def test_parse_examples():
    assert parse_coefficient(CHART, "3/2*p*y^2 - 1*z^-1") == coord("p") * coord("y") ** 2 * Fraction(
        3, 2
    ) - power("z", -1)
    assert parse_coefficient(CHART, "(x + y)^2") == (coord("x") + coord("y")) ** 2
    assert parse_coefficient(CHART, "-x") == -coord("x")
    assert parse_coefficient(CHART, "0") == Coefficient.zero(CHART)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_coefficient(CHART, "x + ?")
    assert err.value.column == 4
    with pytest.raises(ParseError):
        parse_coefficient(CHART, "x^y")
    with pytest.raises(ParseError):
        parse_coefficient(CHART, "unknown_name")
    with pytest.raises(ParseError):
        parse_coefficient(CHART, "1/0")



@pytest.mark.parametrize("text, column", [("2²", 1), ("x²", 1), ("３", 0), ("1/2٣", 3), ("xé", 1), ("é", 0)])
def test_a_character_outside_the_ascii_alphabet_is_a_parse_error_at_it(text, column):
    # str.isdigit and str.isalnum accept these; int() refuses some of them
    with pytest.raises(ParseError) as err:
        parse_coefficient(CHART, text)
    assert err.value.column == column
    assert str(err.value).startswith(f"unexpected character {text[column]!r}")
    with pytest.raises(StructuralError):
        Chart((text,))


# -- property tests ----------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=7)
)


@st.composite
def coefficients(draw, chart=CHART):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        expo = []
        for name in chart.coordinates:
            low = -2 if name in chart.nonvanishing else 0
            expo.append(draw(st.integers(min_value=low, max_value=3)))
        terms[tuple(expo)] = draw(rationals)
    return Coefficient(chart, terms)


@given(coefficients(), coefficients(), coefficients())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Coefficient.zero(CHART) == f
    assert f * Coefficient.one(CHART) == f
    assert f - f == Coefficient.zero(CHART)


@given(coefficients(), coefficients(), st.sampled_from(CHART.coordinates))
def test_leibniz_rule(f, g, name):
    assert (f * g).partial(name) == f.partial(name) * g + f * g.partial(name)


@given(coefficients())
def test_mixed_partials_commute(f):
    assert f.partial("x").partial("y") == f.partial("y").partial("x")
    assert f.partial("z").partial("p") == f.partial("p").partial("z")


@given(coefficients(), coefficients())
@settings(max_examples=40)
def test_evaluation_is_a_homomorphism(f, g):
    point = {"p": Fraction(2), "x": Fraction(-1), "y": Fraction(1, 3), "z": Fraction(5, 2)}
    assert evaluate(f + g, point) == evaluate(f, point) + evaluate(g, point)
    assert evaluate(f * g, point) == evaluate(f, point) * evaluate(g, point)


@given(coefficients())
def test_text_round_trip(f):
    assert parse_coefficient(CHART, format_coefficient(f)) == f


# -- validating boundary, trusted interior -----------------------------------


def test_chart_stores_its_fields_hashable():
    chart = Chart(["q", "z"], {"z"})
    assert type(chart.coordinates) is tuple and type(chart.nonvanishing) is frozenset
    assert chart == Chart(("q", "z"), frozenset({"z"}))
    assert hash(chart) == hash(Chart(("q", "z"), frozenset({"z"})))
    assert {chart: 1}[Chart(("q", "z"), frozenset({"z"}))] == 1
    assert (Coefficient.coordinate(chart, "z") ** -1).partial("z") == (Coefficient.coordinate(chart, "z") ** -2).scale(-1)


def test_stored_values_are_never_bools():
    assert exponent_terms(Coefficient.constant(CHART, True)) == {(0, 0, 0, 0): 1}
    assert type(exponent_terms(Coefficient.constant(CHART, True))[(0, 0, 0, 0)]) is int
    assert type(exponent_terms(Coefficient(CHART, {(1, 0, 0, 0): True}))[(1, 0, 0, 0)]) is int
    assert coord("x").scale(True) == coord("x")
    assert exponent_terms(coord("x") * True) == {(0, 1, 0, 0): 1}
    assert not Coefficient.constant(CHART, False)


def test_the_boundary_refuses_what_is_not_in_the_ring():
    with pytest.raises(StructuralError):
        Coefficient(CHART, {(1, 0, 0): 1})  # exponent vector of the wrong length
    with pytest.raises(DomainError):
        Coefficient(CHART, {(0, -1, 0, 0): 1})  # x may vanish
    with pytest.raises(StructuralError):
        Coefficient(CHART, {(0, 0, 0, 0): 0.5})
    with pytest.raises(StructuralError):
        Coefficient.constant(CHART, 1.0)


def test_the_boundary_checks_the_key_of_a_zero_term():
    # a zero value drops its term only after its key has passed the checks
    chart = Chart(("x", "y"))
    with pytest.raises(StructuralError, match="has length 1"):
        Coefficient(chart, {("junk",): 0})
    with pytest.raises(StructuralError, match="has length 3"):
        Coefficient(chart, {(1, 2, 3): 0})
    with pytest.raises(DomainError, match="negative exponent on 'x'"):
        Coefficient(chart, {(-1, 0): 0})
    with pytest.raises(DomainError, match="negative exponent on 'x'"):
        Coefficient._checked(chart, {chart.pack((-1, 0)): 0, chart.pack((1, 0)): 1})
    with pytest.raises(DomainError, match="leaves the range"):
        Coefficient._checked(chart, {chart.origin | chart._guards: 0})
    assert Coefficient(chart, {(2, 1): 0, (1, 0): 3}) == Coefficient.coordinate(chart, "x").scale(3)
    assert Coefficient._checked(chart, {chart.pack((2, 1)): 0}).terms == {}


def test_arithmetic_across_charts_still_raises():
    other = Chart(("p", "x", "y", "z"))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(StructuralError):
            op(coord("x"), Coefficient.coordinate(other, "x"))


def test_renaming_onto_a_chart_that_may_vanish_still_raises():
    zinv = power("z", -1)
    with pytest.raises(DomainError):
        zinv.rename_chart(Chart(("p", "x", "y", "z")))


def test_values_at_a_point_stay_exact():
    zinv = power("z", -1)
    point = {"p": 0, "x": 0, "y": 0, "z": 1}
    assert type(evaluate(zinv, point)) is Fraction
    assert evaluate(zinv, {**point, "z": 2}) == Fraction(1, 2)
    assert type(const(3).constant_value()) is Fraction
    assert type(evaluate(Coefficient.zero(CHART), point)) is Fraction


def _stored_types(c):
    return {type(v) for v in c.terms.values()}


@given(coefficients(), coefficients(), rationals, st.sampled_from(CHART.coordinates), st.integers(1, 3))
@settings(max_examples=60)
def test_no_float_or_bool_is_ever_stored(f, g, r, name, k):
    unit = Coefficient(CHART, {(0, 0, 0, k - 2): r or 1})
    results = [f + g, f - g, -f, f * g, f.scale(r), f.partial(name), f**k, unit.unit_inverse(), unit**-k]
    if g:
        results.append(exact_divide(f * g, g))
    for result in results:
        assert _stored_types(result) <= {int, Fraction}
    point = {"p": 2, "x": -1, "y": Fraction(1, 3), "z": 1}
    assert all(type(evaluate(c, point)) is Fraction for c in results + [f, g, unit])


@given(coefficients(), coefficients(), rationals, st.sampled_from(CHART.coordinates), st.integers(1, 3))
@settings(max_examples=60)
def test_every_trusted_result_passes_the_boundary_unchanged(f, g, r, name, k):
    for result in (f + g, f - g, (f + g) - g, -f, f * g, f.scale(r), f * r, f.partial(name), f**k, 2 - f):
        assert 0 not in result.terms.values()
        checked = Coefficient(result.chart, exponent_terms(result))
        assert checked == result and checked.terms == result.terms
        assert checked.den == result.den and checked.nums == result.nums


def test_an_integral_fraction_is_an_int(tmp_path):
    expo = (1, 0, 2, -1)
    as_int = Coefficient(CHART, {expo: 3})
    # the boundary stores an int, and so does arithmetic: every value is
    # in lowest terms, so an integral one stands over the denominator 1
    given_fraction = Coefficient(CHART, {expo: Fraction(3)})
    computed = Coefficient(CHART, {expo: Fraction(3, 2)}) * 2
    assert _stored_types(as_int) == _stored_types(given_fraction) == _stored_types(computed) == {int}
    assert as_int.den == given_fraction.den == computed.den == 1

    def session_bytes(value, name):
        session = Session(chart=CHART)
        session.bindings["c"] = value
        session.save(tmp_path / name)
        return (tmp_path / name).read_bytes()

    for value in (given_fraction, computed):
        assert value == as_int and hash(value) == hash(as_int)
        assert str(value) == str(as_int) == "3*p*y^2*z^-1"
        assert render(value, "latex") == render(as_int, "latex")
        assert to_json(value) == to_json(as_int)
        assert session_bytes(value, "value.json") == session_bytes(as_int, "int.json")


# -- integer numerators over one denominator, against plain Fractions ---------

DENOMINATORS = (1, 2, 3, 4, 6)
# the target charts of substitute and rename_chart
IMAGE_CH = Chart(("a", "b", "w"), frozenset({"w"}))
RENAMED_CH = Chart(("z", "y", "w", "x", "p"), frozenset({"z"}))


def mixed_rationals(integral):
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1,) if integral else DENOMINATORS))


@st.composite
def mixed_coefficients(draw, integral, chart=CHART, max_terms=3):
    """Up to ``max_terms`` Laurent terms with denominators from 2, 3, 4 and
    6 mixed, or integral ones only."""
    exponents = [st.integers(-2 if name in chart.nonvanishing else 0, 2) for name in chart.coordinates]
    terms = draw(st.dictionaries(st.tuples(*exponents), mixed_rationals(integral), max_size=max_terms))
    return Coefficient(chart, terms)


@st.composite
def mixed_units(draw, integral, chart, name, signs=False):
    """A nonzero rational, or only ±1 with ``signs``, times a power of the
    nonvanishing ``name``."""
    value = draw(st.sampled_from((-1, 1)) if signs else mixed_rationals(integral).filter(bool))
    k = draw(st.integers(-2, 2))
    return Coefficient(chart, {tuple(k if n == name else 0 for n in chart.coordinates): value})


@st.composite
def mixed_graded(draw, cls, integral):
    degree = draw(st.integers(0, 3))
    keys = list(itertools.combinations(range(CHART.dimension), degree))
    terms = draw(st.dictionaries(st.sampled_from(keys), mixed_coefficients(integral, max_terms=2), max_size=3))
    return cls(CHART, degree, terms)


def assert_in_lowest_terms(c):
    assert c.den >= 1 and 0 not in c.nums.values()
    assert math.gcd(c.den, *c.nums.values()) == 1
    assert (c.den == 1) == all(type(value) is int for value in c.terms.values())


@given(st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_ring_results_are_in_lowest_terms_and_equal_plain_fractions(integral, data):
    f, g = data.draw(mixed_coefficients(integral)), data.draw(mixed_coefficients(integral))
    n = data.draw(st.integers(-6, 6))
    r = data.draw(mixed_rationals(False))
    c = const(data.draw(mixed_rationals(integral)))
    k = data.draw(st.integers(0, 3))
    unit = data.draw(mixed_units(integral, CHART, "z"))
    images = [data.draw(mixed_coefficients(integral, IMAGE_CH, max_terms=2)) for _ in "pxy"]
    # an integral image of z has an integral inverse
    images.append(data.draw(mixed_units(integral, IMAGE_CH, "w", signs=integral)))
    F, G, U = fraction_terms(f), fraction_terms(g), fraction_terms(unit)
    dimension = CHART.dimension
    integral_results = [
        (f + g, fraction_sum(F, G)),
        (f - g, fraction_sum(F, G, -1)),
        (-f, fraction_scale(F, -1)),
        (f * g, fraction_product(F, G)),
        (f.scale(n), fraction_scale(F, n)),
        (f * c, fraction_product(F, fraction_terms(c))),
        (f**k, fraction_power(F, k, dimension)),
        (
            f.substitute(dict(zip(CHART.coordinates, images)), IMAGE_CH),
            fraction_substitute(F, [fraction_terms(image) for image in images], IMAGE_CH.dimension),
        ),
        (f.rename_chart(RENAMED_CH), fraction_renamed(F, CHART, RENAMED_CH)),
        *((f.partial(name), fraction_partial(F, i)) for i, name in enumerate(CHART.coordinates)),
    ]
    results = integral_results + [
        (f.scale(r), fraction_scale(F, r)),
        (unit.unit_inverse(), fraction_power(U, -1, dimension)),
        (unit**-k, fraction_power(U, -k, dimension)),
    ]
    for result, reference in results:
        assert_in_lowest_terms(result)
        assert fraction_terms(result) == reference
    if integral:
        # integral operands keep the denominator 1
        assert [result.den for result, _ in integral_results] == [1] * len(integral_results)


@given(st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_results_are_in_lowest_terms_and_equal_plain_fractions(integral, data):
    om, eta = data.draw(mixed_graded(DiffForm, integral)), data.draw(mixed_graded(DiffForm, integral))
    U, V = data.draw(mixed_graded(MultiVector, integral)), data.draw(mixed_graded(MultiVector, integral))
    f = data.draw(mixed_coefficients(integral, max_terms=2))
    c = const(data.draw(mixed_rationals(integral)))
    n = data.draw(st.integers(-6, 6))
    r = data.draw(mixed_rationals(False))
    OM = fraction_graded(om)

    def scaled(value):
        # a product with a scalar is a wedge with a degree-0 form
        return fraction_wedge(om, DiffForm.from_scalar(value))

    integral_results = [
        (wedge(om, eta), fraction_wedge(om, eta)),
        (wedge(U, V), fraction_wedge(U, V)),
        (interior_product(U, om), fraction_contraction(U, om)),
        (exterior_derivative(om), fraction_derivative(om)),
        (om.scale(n), {key: v * n for key, v in OM.items() if n}),
        (om.scale(c), scaled(c)),
        (om.scale(f), scaled(f)),
    ]
    if U.degree or V.degree:
        integral_results.append((schouten_nijenhuis(U, V), fraction_schouten(U, V)))
    results = integral_results + [(om.scale(r), {key: v * r for key, v in OM.items() if r})]
    for result, reference in results:
        for coeff in result.terms.values():
            assert_in_lowest_terms(coeff)
        assert fraction_graded(result) == reference
    if integral:
        assert {coeff.den for result, _ in integral_results for coeff in result.terms.values()} <= {1}


def test_named_builders_refuse_what_the_boundary_refuses():
    with pytest.raises(StructuralError):
        Coefficient.coordinate(CHART, "w")
    with pytest.raises(DomainError, match="not flagged nonvanishing"):
        power("y", -1)
    with pytest.raises(StructuralError):
        Coefficient.constant(CHART, 1.0)
    with pytest.raises(StructuralError):
        Coefficient.constant(CHART, "1")


def test_named_builders_store_what_the_boundary_stores():
    z = CHART.coordinates.index("z")
    expo = tuple(-2 if i == z else 0 for i in range(CHART.dimension))
    assert exponent_terms(coord("z") ** -2) == {expo: 1}
    assert coord("y") ** 0 == Coefficient.one(CHART)
    for zero in (0, Fraction(0), False):
        assert Coefficient.constant(CHART, zero).terms == {}
    assert Coefficient.zero(CHART).terms == {}
    assert _stored_types(Coefficient.constant(CHART, Fraction(4, 2))) == {int}
    assert _stored_types(Coefficient.constant(CHART, True)) == {int}
    built = [
        Coefficient.zero(CHART),
        Coefficient.one(CHART),
        Coefficient.constant(CHART, Fraction(-3, 2)),
        Coefficient.constant(CHART, Fraction(4, 2)),
        coord("p") ** 3,
        coord("z") ** -1,
    ]
    for c in built:
        checked = Coefficient(c.chart, exponent_terms(c))
        assert checked == c and checked.terms == c.terms


# -- the packed exponent slots: the range edge and every way past it ----------

LIMIT = _BIAS  # exponents lie in [-LIMIT, LIMIT)


def test_a_coefficient_pickles_with_its_chart():
    c = power("z", -3) * (coord("p") + Fraction(1, 2))
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and copy.chart == CHART and copy.terms == c.terms
    assert copy * coord("x") == c * coord("x")


def test_exponents_just_inside_the_range_round_trip_exactly():
    top = power("x", LIMIT - 1)
    bottom = power("z", -LIMIT)
    edge = top * bottom + coord("p")
    assert exponent_terms(edge) == {(0, LIMIT - 1, 0, -LIMIT): 1, (1, 0, 0, 0): 1}
    assert Coefficient(CHART, exponent_terms(edge)) == edge
    assert parse_coefficient(CHART, format_coefficient(edge)) == edge
    assert format_coefficient(edge) == f"1*p + 1*x^{LIMIT - 1}*z^{-LIMIT}"
    assert evaluate(edge, {"p": 0, "x": 1, "y": 5, "z": 1}) == 1
    assert exponent_terms((top * coord("y")).partial("x")) == {(0, LIMIT - 2, 1, 0): LIMIT - 1}
    assert exponent_terms(power("z", 1 - LIMIT).unit_inverse()) == {(0, 0, 0, LIMIT - 1): 1}
    assert coord("z") ** -LIMIT == bottom
    near = top * bottom * (coord("p") + 1)
    assert exact_divide(near * (coord("y") - 1), coord("y") - 1) == near
    # a dividend whose exponents spread over more than a slot's range
    # divides, since division reads the Laurent keys themselves
    assert exact_divide(edge * (coord("y") - 1), coord("y") - 1) == edge
    assert exact_divide(edge * (coord("y") - 1), edge) == coord("y") - 1
    # a quotient past the slot is refused, never wrapped
    wide = power("z", LIMIT - 1) * (coord("y") + 1)
    with pytest.raises(DomainError):
        exact_divide(wide, power("z", -1) * (coord("y") + 1))


def test_a_product_chain_past_a_slot_raises():
    top = power("x", LIMIT - 1)
    with pytest.raises(DomainError):
        top * coord("x")
    with pytest.raises(DomainError):
        (top + coord("p")) * (coord("x") + coord("y"))
    bottom = power("z", -LIMIT)
    with pytest.raises(DomainError):
        bottom * power("z", -1)
    chain = coord("x")
    with pytest.raises(DomainError):
        for _ in range(LIMIT):
            chain = chain * coord("x")
    assert exponent_terms(chain) == {(0, LIMIT - 1, 0, 0): 1}


def test_a_power_past_a_slot_raises_before_it_multiplies():
    with pytest.raises(DomainError):
        coord("x") ** LIMIT
    with pytest.raises(DomainError):
        (coord("x") + coord("y")) ** 10**9  # refused at once, not after 10**9 products
    with pytest.raises(DomainError):
        coord("z") ** -(LIMIT + 1)
    with pytest.raises(DomainError):
        power("z", -2) ** (LIMIT // 2 + 1)
    with pytest.raises(DomainError):
        power("z", -LIMIT).unit_inverse()


def test_repeated_partials_on_a_laurent_coordinate_raise_past_the_slot():
    c = power("z", 2 - LIMIT)
    c = c.partial("z").partial("z")
    assert exponent_terms(c) == {(0, 0, 0, -LIMIT): (2 - LIMIT) * (1 - LIMIT)}
    with pytest.raises(DomainError):
        c.partial("z")


def test_parsed_and_constructed_exponents_past_a_slot_raise():
    for text in (f"x^{LIMIT}", f"z^-{LIMIT + 1}", f"p*x^{10**30}", f"(x + 1)^{LIMIT}"):
        with pytest.raises((DomainError, ParseError)):
            parse_coefficient(CHART, text)
    for expo in ((0, LIMIT, 0, 0), (0, 0, 0, -LIMIT - 1), (0, 0, 0, 10**30)):
        with pytest.raises(DomainError):
            Coefficient(CHART, {expo: 1})
    with pytest.raises(DomainError):
        power("x", LIMIT)
    with pytest.raises(DomainError):
        power("z", -LIMIT - 1)


def test_graded_products_past_a_slot_raise():
    top = DiffForm.differential(CHART, "p").scale(power("x", LIMIT - 1))
    with pytest.raises(DomainError):
        wedge(top, DiffForm.differential(CHART, "y").scale(coord("x")))
    U = MultiVector.basis_vector(CHART, "x").scale(power("z", -LIMIT))
    V = MultiVector.basis_vector(CHART, "z").scale(coord("p"))
    with pytest.raises(DomainError):
        schouten_nijenhuis(V, U)  # ∂/∂z of z^-LIMIT leaves the slot
