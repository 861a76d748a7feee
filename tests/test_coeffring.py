"""Coefficient ring: exact Laurent arithmetic, calculus, text round-trips."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb.coeffring import _BIAS, Chart, Coefficient, format_coefficient
from gjb.dsl import parse_coefficient, render, to_json
from gjb.errors import DomainError, ParseError, StructuralError
from gjb.exterior import DiffForm, MultiVector, schouten_nijenhuis, wedge
from gjb.linalg import exact_divide
from gjb.session import Session

from conftest import rand_coefficient

CHART = Chart(("p", "x", "y", "z"), frozenset({"z"}))


def coord(name):
    return Coefficient.coordinate(CHART, name)


def const(v):
    return Coefficient.constant(CHART, v)


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
    zinv = Coefficient.coordinate(CHART, "z", -1)
    assert z * zinv == const(1)


def test_subtraction_cancels_shared_term():
    p, y = coord("p"), coord("y")
    H = y * y + const(Fraction(1, 2))
    assert (p + H) - p == H


def test_partial_of_inverse_power():
    zinv = Coefficient.coordinate(CHART, "z", -1)
    assert zinv.partial("z") == Coefficient.coordinate(CHART, "z", -2).scale(-1)
    assert zinv.partial("z").exponent_terms() == {(0, 0, 0, -2): -1}


def test_negative_exponent_needs_flag():
    with pytest.raises(DomainError):
        Coefficient.coordinate(CHART, "x", -1)


def test_unit_inverse_round_trip():
    u = Coefficient.coordinate(CHART, "z", 3).scale(Fraction(2, 5))
    assert u * u.unit_inverse() == const(1)
    assert not (coord("x") + const(1)).is_unit()
    with pytest.raises(DomainError):
        (coord("x")).unit_inverse()


def test_integer_powers():
    y = coord("y")
    assert y**0 == const(1)
    assert y**3 == y * y * y
    z = coord("z")
    assert z**-2 == Coefficient.coordinate(CHART, "z", -2)


def test_evaluate_is_exact():
    f = coord("p") * coord("y") ** 2 + Coefficient.coordinate(CHART, "z", -1)
    point = {"p": Fraction(3), "x": 0, "y": Fraction(1, 2), "z": Fraction(2)}
    assert f.evaluate(point) == Fraction(3, 4) + Fraction(1, 2)


def test_evaluate_guards_domain():
    f = coord("z")
    with pytest.raises(DomainError):
        f.evaluate({"p": 0, "x": 0, "y": 0, "z": 0})
    with pytest.raises(StructuralError):
        f.evaluate({"p": 0, "x": 0, "y": 0})


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
    f = coord("p") * coord("y") + Coefficient.coordinate(CHART, "z", -1).scale(2)
    g = coord("y") ** 2 - const(4)
    fs = f.substitute(images, target)
    gs = g.substitute(images, target)
    assert (f * g).substitute(images, target) == fs * gs
    assert (f + g).substitute(images, target) == fs + gs


# -- textual form ------------------------------------------------------------


def test_format_standalone_keeps_rational_prefix():
    f = coord("y") ** 2 * coord("p").scale(Fraction(3, 2)) - Coefficient.coordinate(CHART, "z", -1)
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
        by_names = sorted(f.exponent_terms().items(), key=lambda item: [-item[0][i] for i in order])
        assert [(chart.unpack(key), value) for key, value in f.sorted_terms()] == by_names
    assert format_coefficient(Coefficient(chart, {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, -1, 2): 2})) == "1*y + 2*a^-1*x0^2"


def test_parse_examples():
    assert parse_coefficient(CHART, "3/2*p*y^2 - 1*z^-1") == coord("p") * coord("y") ** 2 * Fraction(
        3, 2
    ) - Coefficient.coordinate(CHART, "z", -1)
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
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


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
    assert Coefficient.coordinate(chart, "z", -1).partial("z") == Coefficient.coordinate(chart, "z", -2).scale(-1)


def test_stored_values_are_never_bools():
    assert Coefficient.constant(CHART, True).exponent_terms() == {(0, 0, 0, 0): 1}
    assert type(Coefficient.constant(CHART, True).exponent_terms()[(0, 0, 0, 0)]) is int
    assert type(Coefficient(CHART, {(1, 0, 0, 0): True}).exponent_terms()[(1, 0, 0, 0)]) is int
    assert coord("x").scale(True) == coord("x")
    assert (coord("x") * True).exponent_terms() == {(0, 1, 0, 0): 1}
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


def test_arithmetic_across_charts_still_raises():
    other = Chart(("p", "x", "y", "z"))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(StructuralError):
            op(coord("x"), Coefficient.coordinate(other, "x"))


def test_renaming_onto_a_chart_that_may_vanish_still_raises():
    zinv = Coefficient.coordinate(CHART, "z", -1)
    with pytest.raises(DomainError):
        zinv.rename_chart(Chart(("p", "x", "y", "z")))


def test_values_at_a_point_stay_exact():
    zinv = Coefficient.coordinate(CHART, "z", -1)
    point = {"p": 0, "x": 0, "y": 0, "z": 1}
    assert type(zinv.evaluate(point)) is Fraction
    assert zinv.evaluate({**point, "z": 2}) == Fraction(1, 2)
    assert type(const(3).constant_value()) is Fraction
    assert type(Coefficient.zero(CHART).evaluate(point)) is Fraction


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
    assert all(type(c.evaluate(point)) is Fraction for c in results + [f, g, unit])


@given(coefficients(), coefficients(), rationals, st.sampled_from(CHART.coordinates), st.integers(1, 3))
@settings(max_examples=60)
def test_every_trusted_result_passes_the_boundary_unchanged(f, g, r, name, k):
    for result in (f + g, f - g, (f + g) - g, -f, f * g, f.scale(r), f * r, f.partial(name), f**k, 2 - f):
        assert 0 not in result.terms.values()
        checked = Coefficient(result.chart, result.exponent_terms())
        assert checked == result and checked.terms == result.terms


def test_an_integral_fraction_is_an_int(tmp_path):
    expo = (1, 0, 2, -1)
    as_int = Coefficient(CHART, {expo: 3})
    # the boundary stores an int; arithmetic may leave a Fraction
    given_fraction = Coefficient(CHART, {expo: Fraction(3)})
    computed = Coefficient(CHART, {expo: Fraction(3, 2)}) * 2
    assert _stored_types(as_int) == _stored_types(given_fraction) == {int}
    assert _stored_types(computed) == {Fraction}

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


def test_named_builders_refuse_what_the_boundary_refuses():
    with pytest.raises(StructuralError):
        Coefficient.coordinate(CHART, "w")
    with pytest.raises(DomainError, match="not flagged nonvanishing"):
        Coefficient.coordinate(CHART, "y", -1)
    with pytest.raises(StructuralError):
        Coefficient.constant(CHART, 1.0)
    with pytest.raises(StructuralError):
        Coefficient.constant(CHART, "1")


def test_named_builders_store_what_the_boundary_stores():
    z = CHART.coordinates.index("z")
    expo = tuple(-2 if i == z else 0 for i in range(CHART.dimension))
    assert Coefficient.coordinate(CHART, "z", -2).exponent_terms() == {expo: 1}
    assert Coefficient.coordinate(CHART, "y", 0) == Coefficient.one(CHART)
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
        Coefficient.coordinate(CHART, "p", 3),
        Coefficient.coordinate(CHART, "z", -1),
    ]
    for c in built:
        checked = Coefficient(c.chart, c.exponent_terms())
        assert checked == c and checked.terms == c.terms


# -- the packed exponent slots: the range edge and every way past it ----------

LIMIT = _BIAS  # exponents lie in [-LIMIT, LIMIT)


def test_a_coefficient_pickles_with_its_chart():
    c = Coefficient.coordinate(CHART, "z", -3) * (coord("p") + Fraction(1, 2))
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and copy.chart == CHART and copy.terms == c.terms
    assert copy * coord("x") == c * coord("x")


def test_exponents_just_inside_the_range_round_trip_exactly():
    top = Coefficient.coordinate(CHART, "x", LIMIT - 1)
    bottom = Coefficient.coordinate(CHART, "z", -LIMIT)
    edge = top * bottom + coord("p")
    assert edge.exponent_terms() == {(0, LIMIT - 1, 0, -LIMIT): 1, (1, 0, 0, 0): 1}
    assert Coefficient(CHART, edge.exponent_terms()) == edge
    assert parse_coefficient(CHART, format_coefficient(edge)) == edge
    assert format_coefficient(edge) == f"1*p + 1*x^{LIMIT - 1}*z^{-LIMIT}"
    assert edge.evaluate({"p": 0, "x": 1, "y": 5, "z": 1}) == 1
    assert (top * coord("y")).partial("x").exponent_terms() == {(0, LIMIT - 2, 1, 0): LIMIT - 1}
    assert Coefficient.coordinate(CHART, "z", 1 - LIMIT).unit_inverse().exponent_terms() == {(0, 0, 0, LIMIT - 1): 1}
    assert coord("z") ** -LIMIT == bottom
    near = top * bottom * (coord("p") + 1)
    assert exact_divide(near * (coord("y") - 1), coord("y") - 1) == near
    # a dividend whose exponents spread over more than a slot's range
    # divides, since division reads the Laurent keys themselves
    assert exact_divide(edge * (coord("y") - 1), coord("y") - 1) == edge
    assert exact_divide(edge * (coord("y") - 1), edge) == coord("y") - 1
    # a quotient past the slot is refused, never wrapped
    wide = Coefficient.coordinate(CHART, "z", LIMIT - 1) * (coord("y") + 1)
    with pytest.raises(DomainError):
        exact_divide(wide, Coefficient.coordinate(CHART, "z", -1) * (coord("y") + 1))


def test_a_product_chain_past_a_slot_raises():
    top = Coefficient.coordinate(CHART, "x", LIMIT - 1)
    with pytest.raises(DomainError):
        top * coord("x")
    with pytest.raises(DomainError):
        (top + coord("p")) * (coord("x") + coord("y"))
    bottom = Coefficient.coordinate(CHART, "z", -LIMIT)
    with pytest.raises(DomainError):
        bottom * Coefficient.coordinate(CHART, "z", -1)
    chain = coord("x")
    with pytest.raises(DomainError):
        for _ in range(LIMIT):
            chain = chain * coord("x")
    assert chain.exponent_terms() == {(0, LIMIT - 1, 0, 0): 1}


def test_a_power_past_a_slot_raises_before_it_multiplies():
    with pytest.raises(DomainError):
        coord("x") ** LIMIT
    with pytest.raises(DomainError):
        (coord("x") + coord("y")) ** 10**9  # refused at once, not after 10**9 products
    with pytest.raises(DomainError):
        coord("z") ** -(LIMIT + 1)
    with pytest.raises(DomainError):
        Coefficient.coordinate(CHART, "z", -2) ** (LIMIT // 2 + 1)
    with pytest.raises(DomainError):
        Coefficient.coordinate(CHART, "z", -LIMIT).unit_inverse()


def test_repeated_partials_on_a_laurent_coordinate_raise_past_the_slot():
    c = Coefficient.coordinate(CHART, "z", 2 - LIMIT)
    c = c.partial("z").partial("z")
    assert c.exponent_terms() == {(0, 0, 0, -LIMIT): (2 - LIMIT) * (1 - LIMIT)}
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
        Coefficient.coordinate(CHART, "x", LIMIT)
    with pytest.raises(DomainError):
        Coefficient.coordinate(CHART, "z", -LIMIT - 1)


def test_graded_products_past_a_slot_raise():
    top = DiffForm.differential(CHART, "p").scale(Coefficient.coordinate(CHART, "x", LIMIT - 1))
    with pytest.raises(DomainError):
        wedge(top, DiffForm.differential(CHART, "y").scale(coord("x")))
    U = MultiVector.basis_vector(CHART, "x").scale(Coefficient.coordinate(CHART, "z", -LIMIT))
    V = MultiVector.basis_vector(CHART, "z").scale(coord("p"))
    with pytest.raises(DomainError):
        schouten_nijenhuis(V, U)  # ∂/∂z of z^-LIMIT leaves the slot
