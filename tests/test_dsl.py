"""Expression grammar, elaboration rules, renderers and JSON interchange."""

import copy
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gjb import dsl
from gjb.coeffring import Chart, Coefficient, format_coefficient
from gjb.dsl import (
    Environment,
    _writer_form,
    elaborate,
    evaluate,
    free_names,
    latex_name,
    parse,
    parse_coefficient,
    render,
    to_json,
)
from gjb.errors import ParseError, StructuralError, ValidationError
from gjb.exterior import DiffForm, MultiVector, wedge
from gjb.fieldtheory import build_canonical
from gjb.structures import make_conformal_data

from conftest import SEED, contact_structure, rand_coefficient, rand_form, rand_multivector
from oracles import volume

CAN = build_canonical(2, 1)


def env(**bindings):
    return Environment(chart=CAN.chart, bindings=bindings, structure=CAN)


def C(name):
    return Coefficient.coordinate(CAN.chart, name)


# --------------------------------------------------------------------------
# grammar and precedence
# --------------------------------------------------------------------------


def test_power_binds_tighter_than_scalar_product():
    value = evaluate("1/2*p0^2", env())
    assert value == C("p0") ** 2 * Coefficient.constant(CAN.chart, Fraction(1, 2))


def test_wedge_is_left_associative():
    value = evaluate("dx0^dx1^dy", env())
    expected = wedge(
        wedge(DiffForm.differential(CAN.chart, "x0"), DiffForm.differential(CAN.chart, "x1")),
        DiffForm.differential(CAN.chart, "y"),
    )
    assert value == expected


def test_scalar_multiple_of_wedge():
    value = evaluate("-p*dx0^dx1", env())
    expected = wedge(
        DiffForm.differential(CAN.chart, "x0"), DiffForm.differential(CAN.chart, "x1")
    ).scale(-C("p"))
    assert value == expected


def test_negative_power_on_invertible_coordinate():
    chart = Chart(("q", "z"), nonvanishing=frozenset({"z"}))
    e = Environment(chart=chart)
    value = evaluate("z^-1", e)
    assert value == Coefficient.coordinate(chart, "z") ** -1
    assert evaluate("z^-2*q", e) == (
        Coefficient.coordinate(chart, "z") ** -2 * Coefficient.coordinate(chart, "q")
    )


def test_parenthesized_expressions_and_unary_minus():
    value = evaluate("-(s0 + y)*dx0", env())
    expected = DiffForm.differential(CAN.chart, "x0").scale(-(C("s0") + C("y")))
    assert value == expected


def test_integer_power_of_sum():
    assert evaluate("(s0 + y)^2", env()) == (C("s0") + C("y")) ** 2


def test_a_minus_binds_looser_than_a_power_wherever_it_stands():
    assert evaluate("2*-y^2", env()) == -2 * C("y") ** 2
    assert evaluate("-y^2", env()) == -(C("y") ** 2)
    assert evaluate("p*-y^3*s0", env()) == -C("p") * C("y") ** 3 * C("s0")


@pytest.mark.parametrize("text", ["y^p", "y^(p - p + s0)", "y^(1/2)", "(y + 1)^s0"])
def test_a_scalar_power_refuses_a_non_integer_exponent_at_its_caret(text):
    with pytest.raises(ParseError) as err:
        evaluate(text, env())
    assert str(err.value).startswith("exponent must be an integer")
    assert err.value.column == text.rindex("^")


@pytest.mark.parametrize(
    "text, twin",
    [
        ("dx0^(1+1)", "dx0^2"),
        ("e_x0^(1+1)", "e_x0^2"),
        ("(dx0 + dy)^(3-1)", "(dx0 + dy)^2"),
        ("dx0^(2-1)", "dx0^1"),
        ("e_y^(1-1)", "e_y^0"),
    ],
)
def test_a_graded_power_with_a_constant_exponent_is_its_literal_twin(text, twin):
    """A parenthesised constant exponent of a form or multivector is an
    iterated wedge, as the integer literal is, not a scalar multiple."""
    e, e_twin = env(), env()
    value, expected = evaluate(text, e), evaluate(twin, e_twin)
    assert type(value) is type(expected) and value == expected
    assert e.warnings == e_twin.warnings


def test_a_repeated_factor_under_a_constant_exponent_warns():
    e = env()
    assert evaluate("dx0^(1+1)", e).is_zero()
    assert e.warnings == ["exterior product vanishes identically (repeated factor)"]


@pytest.mark.parametrize("text", ["dx0^(1/2)", "e_x0^(3/2)", "dx0^y", "e_y^(p - p + s0)"])
def test_a_graded_power_refuses_a_non_integer_exponent_at_its_caret(text):
    with pytest.raises(ParseError) as err:
        evaluate(text, env())
    assert str(err.value).startswith("exponent must be an integer")
    assert err.value.column == text.rindex("^")


def test_parse_coefficient_reads_a_scalar_expression():
    x, y = C("x0"), C("y")
    assert parse_coefficient(CAN.chart, "2*-x0") == -2 * x
    assert parse_coefficient(CAN.chart, "x0^2^3") == x**6
    assert parse_coefficient(CAN.chart, "x0^(1+1)") == x**2
    assert parse_coefficient(CAN.chart, "3/2*p*y^2 - 1*s0") == Fraction(3, 2) * C("p") * y**2 - C("s0")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0^+2", "expected a name, number or '(', found '+' (line 1, column 3)"),
        ("x0^y", "exponent must be an integer (line 1, column 2)"),
        ("dx0", "expected a scalar, got a 1-form"),
        ("e_x0", "expected a scalar, got a 1-vector"),
        ("d(x0)", "expected a scalar, got a 1-form"),
        ("i_(e_x0, dx0)", "expected a scalar, got a 0-form"),
    ],
)
def test_parse_coefficient_refuses_what_is_not_a_scalar_of_the_ring(text, message):
    with pytest.raises(ParseError) as err:
        parse_coefficient(CAN.chart, text)
    assert str(err.value).startswith(message)


def test_wedge_square_of_two_form_in_higher_dimension():
    chart = Chart(("a", "b", "c", "e"))
    e = Environment(chart=chart)
    value = evaluate("(da^db + dc^de)^2", e)
    expected = volume(chart).scale(2)
    assert value == expected
    assert not e.warnings


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("q + +")
    assert err.value.line == 1
    assert err.value.column == 4


def test_function_arity_is_checked():
    with pytest.raises(ParseError):
        parse("i_(e_x0)")
    with pytest.raises(ParseError):
        parse("d(dx0, dx1)")


def test_free_names_walks_every_node():
    node = parse("jb(alpha, cup(beta, gamma)) + d(s0)^mu - 3*nu^2")
    assert free_names(node) == {"alpha", "beta", "gamma", "s0", "mu", "nu"}


# --------------------------------------------------------------------------
# elaboration
# --------------------------------------------------------------------------


def test_contract_then_wedge_example():
    value = evaluate("d(s0)^i_(e_x0, dx0^dx1)", env())
    expected = wedge(
        DiffForm.differential(CAN.chart, "s0"), DiffForm.differential(CAN.chart, "x1")
    )
    assert value == expected


def test_repeated_wedge_factor_warns_and_vanishes():
    e = env()
    value = evaluate("dx0^dx0", e)
    assert isinstance(value, DiffForm)
    assert value.degree == 2
    assert value.is_zero()
    assert e.warnings


def test_undefined_name_is_a_resolution_error():
    with pytest.raises(ParseError) as err:
        evaluate("jb(alpha, beta)", env())
    assert "alpha" in str(err.value)


def test_resolution_prefers_bindings_over_coordinates():
    marked = DiffForm.differential(CAN.chart, "x1")
    assert evaluate("p0", env(p0=marked)) == marked
    assert evaluate("dy", env(dy=marked)) == marked  # shadows the differential
    assert evaluate("dy", env()) == DiffForm.differential(CAN.chart, "y")
    assert evaluate("e_p", env()) == MultiVector.basis_vector(CAN.chart, "p")


def test_degree_mismatch_reports_both_degrees():
    with pytest.raises(ParseError) as err:
        evaluate("dx0 + p", env())
    assert "1" in str(err.value) and "0" in str(err.value)


def test_mixed_species_sum_is_rejected():
    with pytest.raises(ParseError):
        evaluate("dx0 + e_x0", env())


def test_lie_and_schouten_calls():
    from gjb.exterior import lie_derivative, schouten_nijenhuis

    e = env()
    assert evaluate("L_(e_y, p0*dy)", e) == lie_derivative(
        MultiVector.basis_vector(CAN.chart, "y"),
        DiffForm.differential(CAN.chart, "y").scale(C("p0")),
    )
    assert evaluate("sn(y*e_p0, p0*e_y)", e) == schouten_nijenhuis(
        MultiVector.basis_vector(CAN.chart, "p0").scale(C("y")),
        MultiVector.basis_vector(CAN.chart, "y").scale(C("p0")),
    )


def test_jacobi_and_cup_on_data_bindings():
    from gjb.fieldtheory import elementary_tables
    from gjb.structures import cup_product, jacobi_bracket

    rows, _ = elementary_tables(CAN)
    a, b = rows[0].data, rows[3].data
    e = env(a=a, b=b)
    assert evaluate("jb(a, b)", e).alpha == jacobi_bracket(a, b).alpha
    assert evaluate("cup(a, b)", e).alpha == cup_product(a, b).alpha
    with pytest.raises(ParseError):
        evaluate("jb(a, dx0)", e)


def test_psi_requires_an_extension():
    from gjb.fieldtheory import elementary_tables
    from gjb.symplectization import build, psi_map

    rows, _ = elementary_tables(CAN)
    data = rows[0].data
    with pytest.raises(ParseError):
        evaluate("psi(a)", Environment(chart=CAN.chart, bindings={"a": data}))
    sym = build(CAN)
    e = Environment(chart=CAN.chart, bindings={"a": data}, structure=CAN)
    assert evaluate("psi(a)", e) == psi_map(sym, data)[0]


def test_conformal_data_scales_by_constants_only():
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    data = rows[0].data
    scaled = evaluate("3*a", env(a=data))
    assert scaled.alpha == data.alpha.scale(3)
    assert evaluate("-a", env(a=data)).alpha == -data.alpha
    with pytest.raises(ParseError):
        evaluate("s0*a", env(a=data))


@pytest.mark.parametrize("text", ["a^2", "a^-1", "a^0", "a^(1+1)", "a^(0-1)", "a^(1-1)"])
def test_conformal_data_has_no_powers(text):
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    with pytest.raises(ParseError, match=r"^conformal data has no powers \(line 1, column 1\)"):
        evaluate(text, env(a=rows[0].data))


def test_conformal_data_refuses_a_non_integer_exponent():
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    with pytest.raises(ParseError, match=r"^exponent must be an integer \(line 1, column 1\)"):
        evaluate("a^(1/2)", env(a=rows[0].data))


# --------------------------------------------------------------------------
# plain render round trip
# --------------------------------------------------------------------------


def _assert_round_trip(value, environment):
    text = render(value, "plain")
    back = evaluate(text, environment)
    if value.is_zero():
        assert back.is_zero()
    elif isinstance(value, Coefficient) or value.degree == 0:
        # scalars render to bare coefficient text
        reference = value if isinstance(value, Coefficient) else value.scalar()
        assert back == reference
    else:
        assert back == value


def test_plain_round_trip_on_random_objects(rng):
    laurent_chart = Chart(("q", "w", "z"), nonvanishing=frozenset({"z"}))
    environments = [
        (CAN.chart, Environment(chart=CAN.chart)),
        (laurent_chart, Environment(chart=laurent_chart)),
    ]
    for chart, environment in environments:
        laurent = bool(chart.nonvanishing)
        for _ in range(40):
            value = rand_coefficient(rng, chart, laurent=laurent)
            _assert_round_trip(value, environment)
        for degree in range(0, min(4, chart.dimension) + 1):
            for _ in range(20):
                _assert_round_trip(rand_form(rng, chart, degree, laurent=laurent), environment)
                _assert_round_trip(
                    rand_multivector(rng, chart, degree, laurent=laurent), environment
                )


def test_theta_render_round_trips():
    assert evaluate(str(CAN.theta), env()) == CAN.theta


def test_zero_renders_as_zero():
    assert render(DiffForm.zero(CAN.chart, 2)) == "0"
    assert render(Coefficient.zero(CAN.chart)) == "0"


def test_a_degree_zero_form_keeps_its_unit_prefix_in_plain_text():
    # a scalar drops the 1 in front of its monomial; a degree-0 form or
    # multivector writes it in plain text (so the text parses back to the
    # same species), never in LaTeX
    q = C("p0") - C("s0") * C("y")
    for species in (DiffForm, MultiVector):
        assert render(species.from_scalar(q)) == str(species.from_scalar(q)) == "1*p0 - 1*s0*y"
        assert render(species.from_scalar(q), "latex") == "p^{0} - s^{0} y"
    assert render(q) == "p0 - s0*y"
    assert render(q, "latex") == "p^{0} - s^{0} y"


@pytest.mark.parametrize("fmt", ["plain", "latex"])
def test_only_expression_values_render(fmt):
    with pytest.raises(StructuralError, match="cannot render a Fraction"):
        render(Fraction(1, 2), fmt)
    with pytest.raises(StructuralError, match="unknown render format 'xml'"):
        render(C("y"), "xml")


def test_an_overlong_interior_product_is_refused_at_its_call():
    # the library contraction gives the typed zero; the expression language refuses
    with pytest.raises(ParseError) as err:
        evaluate("i_(e_q^e_p, dq)", Environment(chart=Chart(("q", "p", "z"))))
    assert str(err.value) == "cannot contract a degree-2 multivector into a degree-1 form (line 1, column 0)"


def test_graded_operands_refuse_other_species_by_name():
    with pytest.raises(ParseError, match="expected a form, got a 1-vector"):
        evaluate("d(x0) + e_y", env())
    with pytest.raises(ParseError, match="expected a multivector, got a 1-form"):
        evaluate("sn(e_y, d(x0))", env())


# --------------------------------------------------------------------------
# LaTeX renderer
# --------------------------------------------------------------------------


def test_latex_names():
    assert latex_name("p0_1") == "p^{0}_{1}"
    assert latex_name("y_x0") == "y_{x^{0}}"
    assert latex_name("s0") == "s^{0}"
    assert latex_name("z") == "z"


def test_latex_form_uses_wedge_and_roman_d():
    text = render(CAN.theta, "latex")
    assert "\\wedge" in text
    assert "\\mathrm{d}" in text
    assert "^" in text  # indexed coordinates keep their superscripts


def test_latex_scalar_fractions():
    value = C("p0").scale(Fraction(1, 2)) - C("s0") ** 2
    text = render(value, "latex")
    assert "\\tfrac{1}{2}" in text
    assert "{s^{0}}^{2}" in text


def test_latex_multivector_uses_partial():
    text = render(MultiVector.basis_vector(CAN.chart, "x0"), "latex")
    assert text == "\\partial_{x^{0}}"


def test_latex_conformal_data_mentions_iota():
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    text = render(rows[0].data, "latex")
    assert "\\iota" in text
    assert "\\alpha" in text


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------


def stored(payload, chart, structure=None):
    """A value that names its chart, read back by the version-1 session
    reader, which checks that chart against ``chart`` and drops it from
    the payload in place; so it reads a copy."""
    return dsl._stored_value(copy.deepcopy(payload), chart, structure, "dropped")


def test_a_coefficient_serializes_as_a_degree_zero_term_list():
    value = C("p0").scale(Fraction(-3, 2)) + C("y") ** 2
    chart = {"coordinates": list(CAN.chart.coordinates), "nonvanishing": []}
    assert to_json(value) == {
        "kind": "coefficient",
        "degree": 0,
        "chart": chart,
        "terms": [{"indices": [], "coeff": "-3/2*p0 + 1*y^2"}],
    }
    assert list(to_json(value)) == ["kind", "degree", "chart", "terms"]
    assert to_json(Coefficient.zero(CAN.chart)) == {"kind": "coefficient", "degree": 0, "chart": chart, "terms": []}


def test_json_round_trip_on_random_objects(rng):
    for _ in range(25):
        form = rand_form(rng, CAN.chart, rng.randint(0, 3))
        payload = json.loads(render(form, "json"))
        assert stored(payload, CAN.chart) == form
        vector = rand_multivector(rng, CAN.chart, rng.randint(0, 3))
        assert stored(to_json(vector), CAN.chart) == vector
        scalar = rand_coefficient(rng, CAN.chart)
        assert stored(to_json(scalar), CAN.chart) == scalar


def test_json_terms_accepted_in_any_order():
    form = DiffForm.differential(CAN.chart, "x0").scale(C("s0")) + DiffForm.differential(
        CAN.chart, "x1"
    )
    payload = to_json(form)
    payload["terms"] = list(reversed(payload["terms"]))
    assert stored(payload, CAN.chart) == form


def test_json_sums_repeated_terms_and_drops_cancelled_ones():
    scalar = lambda text: parse_coefficient(CAN.chart, text)
    form = DiffForm.differential(CAN.chart, "x0").scale(C("s0")) + DiffForm.differential(CAN.chart, "x1")
    payload = to_json(form)
    payload["terms"].append({"indices": [0], "coeff": "2 - s0"})
    payload["terms"].append({"indices": [1], "coeff": "-1"})
    assert stored(payload, CAN.chart) == DiffForm.differential(CAN.chart, "x0").scale(2)
    vector = to_json(MultiVector.basis_vector(CAN.chart, "y"))
    vector["terms"].append({"indices": [2], "coeff": "-1"})
    assert stored(vector, CAN.chart) == MultiVector.zero(CAN.chart, 1)
    payload = to_json(scalar("s0 + 1"))
    payload["terms"].append({"indices": [], "coeff": "1 - s0"})
    assert stored(payload, CAN.chart) == scalar("2")
    payload["terms"].append({"indices": [], "coeff": "-2"})
    assert stored(payload, CAN.chart) == Coefficient.zero(CAN.chart)


@pytest.mark.parametrize(
    "text, error",
    [
        ("dq", "expected a scalar, got a 1-form (line 1, column 0)"),
        ("q^+2", "expected a name, number or '(', found '+' (line 1, column 2)"),
        ("sn(q, z)", "the graded bracket of two scalars is not defined (line 1, column 0)"),
        ("i_(e_z, d(z^-16384))", "an exponent leaves the range [-16384, 16383] of its slot (line 1, column 8)"),
    ],
)
def test_a_stored_coefficient_outside_the_ring_is_malformed_and_named(text, error):
    chart = Chart(("q", "z"), nonvanishing=frozenset({"z"}))
    payload = to_json(DiffForm.differential(chart, "q"))
    payload["terms"][0]["coeff"] = text
    with pytest.raises(StructuralError) as err:
        stored(payload, chart)
    assert str(err.value) == f"coefficient {text!r}: {error}"


def test_json_rejects_malformed_indices():
    """A coefficient is stored as a degree-0 form, and its index tuples
    and degree are checked like a form's."""
    form = to_json(DiffForm.differential(CAN.chart, "x0"))
    coefficient = to_json(C("x0"))
    bad_terms = [{"indices": [2, 1, 9], "coeff": "y"}, {"indices": "junk", "coeff": "x0"}]
    for payload in [
        {**form, "terms": [{"indices": [1, 1], "coeff": "1"}]},
        {**coefficient, "degree": 7, "terms": bad_terms},
        {**coefficient, "terms": bad_terms},
        {**coefficient, "terms": bad_terms[1:]},
        {**coefficient, "degree": 1, "terms": []},
    ]:
        with pytest.raises(StructuralError):
            stored(payload, CAN.chart)


@pytest.mark.parametrize("indices", [[True], [1.0], [0, True]])
def test_json_index_entries_must_be_ints(indices):
    """A JSON ``true`` is a bool, which Python counts as an int, and
    ``1.0`` equals ``1``: neither is a position, in a form or in a
    coefficient, nor a degree."""
    form = to_json(DiffForm.differential(CAN.chart, "x0"))
    terms = [{"indices": indices, "coeff": "1"}]
    for payload in [
        {**form, "degree": len(indices), "terms": terms},
        {**to_json(C("x0")), "terms": terms},
        {**form, "degree": indices[-1]},
    ]:
        with pytest.raises(StructuralError, match="is not an int"):
            stored(payload, CAN.chart)
        payload = json.loads(json.dumps(payload))  # the same through JSON text
        with pytest.raises(StructuralError, match="is not an int"):
            stored(payload, CAN.chart)


def test_json_rejects_chart_mismatch():
    contact = contact_structure()
    payload = to_json(DiffForm.differential(contact.chart, "q"))
    with pytest.raises(StructuralError):
        stored(payload, CAN.chart)


def test_conformal_json_revalidates_and_ignores_the_stamp():
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    data = rows[0].data
    payload = to_json(data)
    payload["validated"] = False  # the stamp is never trusted either way
    rebuilt = stored(payload, CAN.chart, CAN)
    assert rebuilt.alpha == data.alpha
    assert rebuilt.x_field == data.x_field
    payload["x_field"]["terms"][0]["coeff"] = "17"
    with pytest.raises(ValidationError):
        stored(payload, CAN.chart, CAN)


def test_conformal_json_needs_a_structure():
    from gjb.fieldtheory import elementary_tables

    rows, _ = elementary_tables(CAN)
    with pytest.raises(StructuralError):
        stored(to_json(rows[0].data), CAN.chart)


# --------------------------------------------------------------------------
# the one-pass reader of the writer's form
# --------------------------------------------------------------------------

# a plain chart, a Laurent chart whose names are not in sorted order, and
# a canonical chart with parameters
WRITER_CHARTS = {
    "plain": Chart(("q", "p", "z")),
    "laurent": Chart(("z", "q", "p", "w"), nonvanishing=frozenset({"z", "w"})),
    "parameter": build_canonical(2, 1, ("k", "c")).chart,
}
_rationals = st.one_of(
    st.integers(-3, 3),
    st.fractions(max_denominator=12),
    # large rationals, well inside the digits the interpreter converts
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300)),
)


@st.composite
def _written(draw):
    """A chart and a random coefficient on it."""
    chart = WRITER_CHARTS[draw(st.sampled_from(sorted(WRITER_CHARTS)))]
    exponents = st.tuples(*(st.integers(-40 if name in chart.nonvanishing else 0, 40) for name in chart.coordinates))
    return chart, Coefficient(chart, draw(st.dictionaries(exponents, _rationals, max_size=4)))


@seed(SEED)
@given(_written())
@settings(max_examples=300, deadline=None)
def test_the_one_pass_reader_reads_every_written_text_as_the_grammar_does(case):
    chart, value = case
    text = format_coefficient(value)
    read = _writer_form(chart, text)
    assert read is not None
    assert read == evaluate(text, Environment(chart=chart)) == value


def _outcome(chart, text):
    """The value ``parse_coefficient`` reads, or the type, message, line
    and column of its refusal."""
    try:
        return parse_coefficient(chart, text)
    except ParseError as err:
        return type(err), str(err), err.line, err.column


def _grammar_outcome(chart, text):
    with mock.patch.object(dsl, "_writer_form", lambda chart, text: None):
        return _outcome(chart, text)


# x may vanish, z may not
ADVERSARIAL_CHART = Chart(("q", "x", "y", "z"), nonvanishing=frozenset({"z"}))
ADVERSARIAL = [
    "３",
    "1/2٣",
    "x^-1*x",
    "1*x^-1*x",
    "1*x^20000*x^-20000",
    "x^20000*x^-20000",
    "1*x^20000 - 1*x^20000",
    "1*z^-16384",
    "1*z^-16385",
    "1*x^-1 - 1*x^-1",
    "0*x^-1",
    "1/0",
    "1/0*x",
    "1/00",
    "1" * 4301,
    "1*x^" + "1" * 4301,
    "dq",
    "e_q",
    "d",
    "1*y*x",
    "1*x*x",
    "1*x + 1*x",
    "1 + 0",
    "1*x^0 + 1",
    "1*x+2",
    "+1*x",
    "--1*x",
    "x^2^3",
    "1*x^2^3",
    "1*x ",
    " 1*x",
    "1*x  + 1",
    "1*w",
    "0",
    "-0",
    "0/7",
    "",
]


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_the_one_pass_reader_declines_what_the_grammar_reads_otherwise(text):
    assert _outcome(ADVERSARIAL_CHART, text) == _grammar_outcome(ADVERSARIAL_CHART, text)


_MUTATIONS = st.sampled_from([*"0123456789/*^-+ _xyzqpwk", "３", "٣", "e_", "d", "(", ")"])


@seed(SEED)
@given(_written(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_written_text_reads_as_the_grammar_reads_it(case, data):
    chart, value = case
    text = format_coefficient(value)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        # insert, replace or delete one piece
        text = text[:at] + data.draw(st.just("") | _MUTATIONS) + text[at + data.draw(st.integers(0, 1)) :]
    assert _outcome(chart, text) == _grammar_outcome(chart, text)
