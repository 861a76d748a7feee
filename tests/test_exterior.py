"""Exterior calculus: wedge/d/contractions and the graded bracket.

The randomized suites below pin the sign conventions; the contraction
identity in particular characterizes the graded bracket, so any silent
convention drift fails loudly here.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, rand_coefficient, rand_fg_data, rand_form, rand_multivector
from gjb import exterior as exterior_module
from gjb.coeffring import Chart, Coefficient, _accumulate
from gjb.dsl import parse_coefficient
from gjb.errors import DegreeError, DomainError, StructuralError
from gjb.exterior import (
    DiffForm,
    MultiVector,
    _contract_key,
    _merge_indices,
    _odd_parts,
    exterior_derivative,
    interior_product,
    lie_derivative,
    schouten_nijenhuis,
    wedge,
)
from gjb.fieldtheory import build_canonical
from gjb.structures import jacobi_bracket
from oracles import exponent_terms, reindex, volume

CH = Chart(("a", "b", "c", "u"))
# t is nonvanishing, so coefficients may carry negative powers of it
LAURENT_CH = Chart(("a", "b", "c", "t", "u"), frozenset({"t"}))


def C(text):
    return parse_coefficient(CH, text)


def dx(name):
    return DiffForm.differential(CH, name)


def e(name):
    return MultiVector.basis_vector(CH, name)


# -- wedge ---------------------------------------------------------------


def test_wedge_basics():
    assert wedge(dx("a"), dx("b")) == -wedge(dx("b"), dx("a"))
    assert wedge(dx("a"), dx("a")).is_zero()
    two_form = wedge(dx("a"), dx("b"))
    assert wedge(two_form, dx("c")).terms == {(0, 1, 2): Coefficient.one(CH)}


def test_wedge_type_discipline():
    with pytest.raises(StructuralError):
        wedge(dx("a"), e("b"))


def test_wedge_graded_commutativity(rng):
    for _ in range(20):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(rng, CH, p), rand_form(rng, CH, q)
        assert wedge(a, b) == wedge(b, a).scale((-1) ** (p * q))


def test_wedge_associativity(rng):
    for _ in range(20):
        a = rand_form(rng, CH, rng.randint(0, 2))
        b = rand_form(rng, CH, rng.randint(0, 1))
        c = rand_form(rng, CH, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- exterior derivative ---------------------------------------------------


def test_d_on_scalars_is_the_gradient():
    f = C("a^2*b")
    df = exterior_derivative(DiffForm.from_scalar(f))
    assert df == dx("a").scale(C("2*a*b")) + dx("b").scale(C("a^2"))


def test_d_squared_vanishes(rng):
    for _ in range(20):
        omega = rand_form(rng, CH, rng.randint(0, 3))
        assert exterior_derivative(exterior_derivative(omega)).is_zero()


def test_d_leibniz(rng):
    for _ in range(20):
        p = rng.randint(0, 2)
        a, b = rand_form(rng, CH, p), rand_form(rng, CH, rng.randint(0, 2))
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale((-1) ** p)
        assert lhs == rhs


def test_d_of_top_form_is_zero():
    top = volume(CH)
    assert exterior_derivative(top).is_zero()


# -- contractions -----------------------------------------------------------


def test_single_slot_rule():
    omega = wedge(dx("a"), dx("b"))
    assert interior_product(e("a"), omega) == dx("b")
    assert interior_product(e("b"), omega) == -dx("a")
    assert interior_product(e("c"), omega).is_zero()


def test_leftmost_factor_contracts_first():
    omega = wedge(dx("a"), dx("b"))
    pair = wedge(e("a"), e("b"))
    by_hand = interior_product(e("b"), interior_product(e("a"), omega))
    assert interior_product(pair, omega) == by_hand
    assert interior_product(pair, omega).scalar() == Coefficient.one(CH)


def test_degree_zero_contraction_multiplies():
    g = MultiVector.from_scalar(C("a*b"))
    omega = dx("c")
    assert interior_product(g, omega) == omega.scale(C("a*b"))


def test_overlong_contraction_is_the_typed_zero_unless_strict():
    pair = wedge(e("a"), e("b"))
    assert interior_product(pair, dx("a")) == DiffForm.zero(CH, -1)
    assert interior_product(pair, dx("a")).degree == -1
    with pytest.raises(DegreeError, match="^cannot contract a degree-2 multivector into a degree-1 form$"):
        interior_product(pair, dx("a"), strict=True)


def test_lie_derivative_past_the_bottom_degree_is_typed():
    # L_U g = d i_U g - i_U dg for a degree-2 U on a 0-form lands in degree -1
    result = lie_derivative(wedge(e("a"), e("b")), DiffForm.from_scalar(C("a*b")))
    assert result.is_zero()
    assert result.degree == -1
    with pytest.raises(DegreeError):
        result + DiffForm.zero(CH, 0)


def mirror_contraction(xi, U):
    """ι_ξ U, a differential eating a multivector, of degree U.degree −
    ξ.degree, with the sorting oracle's sign rule (``oracle_contract``, the
    slots of ξ eaten leftmost first) tried on every pair of terms; a
    degree-zero ξ scales.  The graded bracket with a scalar reads it:
    [U, g] = (−1)^{p+1} ι_{dg} U and [g, U] = −ι_{dg} U."""
    if xi.degree == 0:
        return full_scale(U, xi.scalar())
    products = (
        (hit[1], (k * c).scale(hit[0]))
        for I, k in xi.terms.items()
        for J, c in U.terms.items()
        if (hit := oracle_contract(I, J)) is not None
    )
    return MultiVector(U.chart, U.degree - xi.degree, _accumulate(products))


def lie_bracket(X, Y):
    """[X, Y] of two vector fields, componentwise:
    Σ X^m ∂_m Y^n e_n − Y^n ∂_n X^m e_m."""
    names = X.chart.coordinates

    def pieces():
        for (m,), a in X.terms.items():
            for (n,), b in Y.terms.items():
                yield (n,), a * b.partial(names[m])
                yield (m,), -(b * a.partial(names[n]))

    return MultiVector(X.chart, 1, _accumulate(pieces()))


def test_mirror_contraction_single_slot():
    # the mirror oracle's slot rule, and the bracket with a scalar that
    # reads it: [g, U] = −ι_{dg} U
    pair = wedge(e("a"), e("b"))
    assert mirror_contraction(dx("a"), pair) == e("b")
    assert mirror_contraction(dx("b"), pair) == -e("a")
    assert schouten_nijenhuis(MultiVector.from_scalar(C("a")), pair) == -e("b")
    assert schouten_nijenhuis(MultiVector.from_scalar(C("b")), pair) == e("a")


def test_interior_derivation_property(rng):
    # i_U(xi ^ om) = i_{i_xi U} om + (-1)^p xi ^ i_U om for a 1-form xi
    for _ in range(30):
        p = rng.randint(1, 3)
        U = rand_multivector(rng, CH, p)
        xi = rand_form(rng, CH, 1)
        om = rand_form(rng, CH, rng.randint(p, CH.dimension))
        lhs = interior_product(U, wedge(xi, om))
        first = interior_product(mirror_contraction(xi, U), om)
        second = wedge(xi, interior_product(U, om)).scale((-1) ** p)
        assert lhs == first + second


def test_contraction_pairing_transpose(rng):
    # <i_X om, Y> = <om, X ^ Y> style associativity of slot eating
    for _ in range(20):
        om = rand_form(rng, CH, 2)
        X, Y = rand_multivector(rng, CH, 1), rand_multivector(rng, CH, 1)
        lhs = interior_product(Y, interior_product(X, om))
        rhs = interior_product(wedge(X, Y), om)
        assert lhs == rhs


# -- Lie derivative -----------------------------------------------------------


def test_cartan_formula_for_vector_fields(rng):
    for _ in range(15):
        X = rand_multivector(rng, CH, 1)
        om = rand_form(rng, CH, rng.randint(1, 3))
        lhs = lie_derivative(X, om)
        rhs = exterior_derivative(interior_product(X, om)) + interior_product(
            X, exterior_derivative(om)
        )
        assert lhs == rhs
    # degree-zero case: the Lie derivative is the directional derivative
    X = rand_multivector(rng, CH, 1)
    f = rand_coefficient(rng, CH)
    scalar = DiffForm.from_scalar(f)
    assert lie_derivative(X, scalar) == interior_product(X, exterior_derivative(scalar))


def test_lie_derivative_leibniz_over_wedge(rng):
    for _ in range(15):
        X = rand_multivector(rng, CH, 1)
        a = rand_form(rng, CH, rng.randint(0, 2))
        b = rand_form(rng, CH, rng.randint(0, 2))
        assert lie_derivative(X, wedge(a, b)) == wedge(lie_derivative(X, a), b) + wedge(
            a, lie_derivative(X, b)
        )


def test_lie_derivative_rescaled_field():
    X, f = e("a"), C("b^2")
    om = wedge(dx("a"), dx("c")).scale(C("a*c"))
    lhs = lie_derivative(X.scale(f), om)
    rhs = lie_derivative(X, om).scale(f) + wedge(
        exterior_derivative(DiffForm.from_scalar(f)), interior_product(X, om)
    )
    assert lhs == rhs


# -- vector fields and the graded bracket -------------------------------------


def test_vector_bracket_example():
    X = e("a").scale(C("b"))
    Y = e("b").scale(C("a^2"))
    # [b d_a, a^2 d_b] = 2ab d_b - a^2 d_a
    expected = e("b").scale(C("2*a*b")) - e("a").scale(C("a^2"))
    assert schouten_nijenhuis(X, Y) == expected
    assert lie_bracket(X, Y) == expected


def test_vector_bracket_jacobi(rng):
    # the graded bracket on vector fields, with every Jacobi sign +1
    for _ in range(10):
        X, Y, Z = (rand_multivector(rng, CH, 1) for _ in range(3))
        total = (
            schouten_nijenhuis(X, schouten_nijenhuis(Y, Z))
            + schouten_nijenhuis(Y, schouten_nijenhuis(Z, X))
            + schouten_nijenhuis(Z, schouten_nijenhuis(X, Y))
        )
        assert total.is_zero()


def test_graded_bracket_agrees_with_vector_bracket(rng):
    for _ in range(10):
        X, Y = rand_multivector(rng, CH, 1), rand_multivector(rng, CH, 1)
        assert schouten_nijenhuis(X, Y) == lie_bracket(X, Y)


def test_graded_bracket_contraction_identity(rng):
    # the characterizing identity, and the regression test for the global
    # sign: i_[U,V] = (-1)^{(p-1)q} L_U i_V - i_V L_U
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        U, V = rand_multivector(rng, CH, p), rand_multivector(rng, CH, q)
        B = schouten_nijenhuis(U, V)
        w = rng.randint(1, CH.dimension)
        om = rand_form(rng, CH, w)
        lhs = interior_product(B, om)
        rhs = lie_derivative(U, interior_product(V, om)).scale((-1) ** ((p - 1) * q)) - interior_product(
            V, lie_derivative(U, om)
        )
        assert lhs == rhs


def test_graded_bracket_antisymmetry(rng):
    for _ in range(20):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        U, V = rand_multivector(rng, CH, p), rand_multivector(rng, CH, q)
        assert schouten_nijenhuis(U, V) == schouten_nijenhuis(V, U).scale(
            -((-1) ** ((p - 1) * (q - 1)))
        )


def test_graded_bracket_jacobi(rng):
    for _ in range(8):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        U = rand_multivector(rng, CH, p, max_terms=2, max_degree=1)
        V = rand_multivector(rng, CH, q, max_terms=2, max_degree=1)
        W = rand_multivector(rng, CH, r, max_terms=2, max_degree=1)
        t1 = schouten_nijenhuis(U, schouten_nijenhuis(V, W)).scale((-1) ** ((p - 1) * (r - 1)))
        t2 = schouten_nijenhuis(V, schouten_nijenhuis(W, U)).scale((-1) ** ((q - 1) * (p - 1)))
        t3 = schouten_nijenhuis(W, schouten_nijenhuis(U, V)).scale((-1) ** ((r - 1) * (q - 1)))
        assert (t1 + t2 + t3).is_zero()


def test_graded_bracket_leibniz_over_wedge(rng):
    # [U, V∧W] = [U,V]∧W + (−1)^{(p−1)q} V∧[U,W]; in the classes
    # (p, q, r) = (1, 1, 2) and (2, 1, 1) the sign differs from (−1)^{(r−1)q}
    nonzero = 0
    for p, q, r in [(1, 1, 2), (2, 1, 1)] * 20:
        U, V, W = (rand_multivector(rng, CH, k) for k in (p, q, r))
        second = wedge(V, schouten_nijenhuis(U, W))
        expected = wedge(schouten_nijenhuis(U, V), W) + second.scale((-1) ** ((p - 1) * q))
        assert schouten_nijenhuis(U, wedge(V, W)) == expected
        nonzero += not second.is_zero()
    # measured: 16 of the 40 second terms are nonzero at the default seed,
    # and at least 8 at each of the seeds 0 to 299
    assert nonzero >= 8


def test_graded_bracket_lie_composition(rng):
    for _ in range(10):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        U, V = rand_multivector(rng, CH, p), rand_multivector(rng, CH, q)
        om = rand_form(rng, CH, CH.dimension)
        lhs = lie_derivative(schouten_nijenhuis(U, V), om)
        rhs = lie_derivative(U, lie_derivative(V, om)).scale(
            (-1) ** ((p - 1) * (q - 1))
        ) - lie_derivative(V, lie_derivative(U, om))
        assert lhs == rhs


def test_graded_bracket_degree_zero_rules(rng):
    for _ in range(15):
        p = rng.randint(1, 3)
        U = rand_multivector(rng, CH, p)
        g = rand_coefficient(rng, CH)
        G = MultiVector.from_scalar(g)
        dg = exterior_derivative(DiffForm.from_scalar(g))
        assert schouten_nijenhuis(U, G) == mirror_contraction(dg, U).scale((-1) ** (p + 1))
        assert schouten_nijenhuis(G, U) == -mirror_contraction(dg, U)
    with pytest.raises(DegreeError):
        schouten_nijenhuis(MultiVector.from_scalar(C("a")), MultiVector.from_scalar(C("b")))


def decomposable_schouten(U, V):
    """The graded bracket from decomposable factors, an oracle independent
    of the odd-variable formula: for term pairs c·X₁∧⋯∧X_p and e·Y₁∧⋯∧Y_q
    (the coefficient on the first factor) it sums
    (−1)^{i+j} [X_i, Y_j] ∧ X₁⋯X̂_i⋯∧X_p ∧ Y₁⋯Ŷ_j⋯∧Y_q, with
    [U, g] = (−1)^{p+1} ι_{dg} U and [g, U] = −ι_{dg} U for a scalar g."""
    p, q = U.degree, V.degree
    chart = U.chart
    if p == 0:
        dg = exterior_derivative(DiffForm.from_scalar(U.scalar()))
        return -mirror_contraction(dg, V)
    if q == 0:
        dg = exterior_derivative(DiffForm.from_scalar(V.scalar()))
        return mirror_contraction(dg, U).scale((-1) ** (p + 1))
    one = Coefficient.one(chart)
    out = MultiVector.zero(chart, p + q - 1)
    for J, c in U.terms.items():
        factors_u = [MultiVector(chart, 1, {(idx,): c if k == 0 else one}) for k, idx in enumerate(J)]
        for K, e in V.terms.items():
            factors_v = [MultiVector(chart, 1, {(idx,): e if k == 0 else one}) for k, idx in enumerate(K)]
            for i in range(p):
                for j in range(q):
                    piece = lie_bracket(factors_u[i], factors_v[j])
                    for k in range(p):
                        if k != i:
                            piece = wedge(piece, factors_u[k])
                    for k in range(q):
                        if k != j:
                            piece = wedge(piece, factors_v[k])
                    out = out + piece.scale((-1) ** (i + j))
    return out


def test_graded_bracket_matches_the_decomposable_reference(rng):
    degrees = [(p, q) for p in range(4) for q in range(4) if (p, q) != (0, 0)]
    for _ in range(200):
        p, q = rng.choice(degrees)
        chart = rng.choice((CH, LAURENT_CH))
        U = rand_multivector(rng, chart, p, laurent=True)
        V = rand_multivector(rng, chart, q, laurent=True)
        assert schouten_nijenhuis(U, V) == decomposable_schouten(U, V)


# -- transport ----------------------------------------------------------------


def test_reindex_round_trip():
    other = Chart(("u", "c", "b", "a"))
    om = wedge(dx("a"), dx("b")).scale(C("c")) + wedge(dx("b"), dx("u"))
    moved = reindex(om, other)
    assert reindex(moved, CH) == om
    # same geometric object: contractions agree after transport
    contracted = interior_product(MultiVector.basis_vector(other, "a"), moved)
    assert reindex(contracted, CH) == interior_product(e("a"), om)


# -- display -------------------------------------------------------------------


def test_plain_text_is_canonical():
    om = wedge(dx("a"), dx("b")).scale(C("-1*c")) + wedge(dx("a"), dx("c")) + wedge(
        dx("b"), dx("c")
    ).scale(C("3/2"))
    assert str(om) == "-c*da^db + da^dc + 3/2*db^dc"
    assert str(DiffForm.zero(CH, 2)) == "0"
    assert str(DiffForm.from_scalar(C("a - 1"))) == "1*a - 1"
    assert str(e("a").scale(C("b")) - e("c")) == "b*e_a - e_c"
    multi = wedge(dx("a"), dx("b")).scale(C("a + b"))
    assert str(multi) == "(a + b)*da^db"


# -- validating boundary, trusted interior -------------------------------------


def test_the_constructors_refuse_malformed_terms():
    one = Coefficient.one(CH)
    for key in [(1.0,), (True,), (0, 2.0), (False, 1)]:
        # equal to an int tuple, and so to its key in the index tables
        for cls in (DiffForm, MultiVector):
            with pytest.raises(StructuralError, match="not an int"):
                cls(CH, len(key), {key: one})
    with pytest.raises(StructuralError):
        DiffForm(CH, 2, {(1, 0): one})  # not increasing
    with pytest.raises(StructuralError):
        MultiVector(CH, 2, {(1, 1): one})
    with pytest.raises(StructuralError):
        DiffForm(CH, 1, {(4,): one})  # past the last coordinate
    with pytest.raises(StructuralError):
        MultiVector(CH, 1, {(-1,): one})
    with pytest.raises(StructuralError, match="does not match degree 2"):
        DiffForm(CH, 2, {(0,): one})
    for degree in (True, 1.0, "1"):
        with pytest.raises(StructuralError, match="is not an int"):
            DiffForm(CH, degree, {(0,): one})
        with pytest.raises(StructuralError, match="is not an int"):
            MultiVector(CH, degree)
    with pytest.raises(StructuralError):
        DiffForm(CH, 1, {(0,): Coefficient.one(LAURENT_CH)})  # on another chart
    with pytest.raises(DomainError):
        reindex(DiffForm(LAURENT_CH, 1, {(0,): parse_coefficient(LAURENT_CH, "t^-1")}), Chart(CH.coordinates + ("t",)))


def test_operands_on_two_charts_still_raise():
    equal = Chart(CH.coordinates)
    assert equal is not CH
    assert DiffForm.differential(equal, "a") + dx("b") == dx("a") + dx("b")
    other = Chart(("a", "b", "c", "u", "w"))
    a, b = DiffForm.differential(CH, "a"), DiffForm.differential(other, "a")
    U, V = MultiVector.basis_vector(CH, "a"), MultiVector.basis_vector(other, "b")
    ops = [
        lambda: a + b,
        lambda: a - b,
        lambda: wedge(a, b),
        lambda: wedge(U, V),
        lambda: interior_product(V, a),
        lambda: schouten_nijenhuis(U, V),
        lambda: a.scale(Coefficient.one(other)),
    ]
    for op in ops:
        with pytest.raises(StructuralError):
            op()


def test_trivial_operands_skip_the_ring_but_keep_every_check():
    other = Chart(("a", "b", "c", "u", "w"))
    empty_form, empty_vector = DiffForm.zero(CH, 2), MultiVector.zero(CH, 2)
    # a zero or constant factor on another chart is refused, even by an empty object
    for factor in (Coefficient.zero(other), Coefficient.one(other), Coefficient.constant(other, 3)):
        for obj in (dx("a"), empty_form):
            with pytest.raises(StructuralError):
                obj.scale(factor)
    form = wedge(dx("a"), dx("b")).scale(C("u + 2"))
    assert form.scale(Coefficient.constant(CH, Fraction(3, 2))) == form.scale(Fraction(3, 2))
    assert form.scale(Coefficient.zero(CH)) == DiffForm.zero(CH, 2)
    assert C("a") * Coefficient.zero(CH) == Coefficient.zero(CH)
    assert Coefficient.constant(CH, -2) * C("a + b") == C("-2*a - 2*b")
    # empty operands give the zero of the result's degree, after the checks
    assert interior_product(e("a"), empty_form) == DiffForm.zero(CH, 1)
    assert interior_product(empty_vector, wedge(form, dx("c"))) == DiffForm.zero(CH, 1)
    assert schouten_nijenhuis(empty_vector, e("a")) == MultiVector.zero(CH, 2)
    assert schouten_nijenhuis(e("a"), MultiVector.zero(CH, 3)) == MultiVector.zero(CH, 3)
    assert interior_product(MultiVector.zero(CH, 3), empty_form) == DiffForm.zero(CH, -1)
    assert interior_product(MultiVector.zero(CH, 3), empty_form).degree == -1
    with pytest.raises(DegreeError):
        interior_product(MultiVector.zero(CH, 3), empty_form, strict=True)
    with pytest.raises(DegreeError):
        schouten_nijenhuis(MultiVector.zero(CH, 0), MultiVector.zero(CH, 0))
    with pytest.raises(StructuralError):
        schouten_nijenhuis(empty_vector, MultiVector.basis_vector(other, "a"))
    with pytest.raises(StructuralError):
        interior_product(empty_vector, DiffForm.zero(other, 2))
    with pytest.raises(StructuralError):
        interior_product(empty_form, empty_form)


def test_a_schouten_bracket_with_an_empty_operand_forms_no_product(monkeypatch):
    # the refusals come first, then an empty operand returns the empty
    # bracket of degree p + q − 1 without clearing either operand
    cleared, clear = [], exterior_module._cleared

    def counting_cleared(terms, offset=0):
        cleared.append(len(terms))
        return clear(terms, offset)

    other = Chart(("a", "b", "c", "u", "w"))
    full = wedge(e("a"), e("b")).scale(C("u^2 + a"))
    monkeypatch.setattr(exterior_module, "_cleared", counting_cleared)
    zero = lambda degree, chart=CH: MultiVector.zero(chart, degree)
    for U, V in ((zero(1), full), (full, zero(3)), (zero(0), full), (full, zero(0)), (zero(2), zero(1))):
        assert schouten_nijenhuis(U, V) == zero(U.degree + V.degree - 1)  # equal degrees too
    assert cleared == []
    for U, V in ((zero(0), zero(0)), (zero(0), MultiVector.from_scalar(C("a")))):
        with pytest.raises(DegreeError, match="two scalars"):
            schouten_nijenhuis(U, V)
    for U, V in ((full, zero(1, other)), (zero(2, other), full), (zero(1), zero(1, other))):
        with pytest.raises(StructuralError, match="different charts"):
            schouten_nijenhuis(U, V)
    assert cleared == []
    # a bracket of two nonempty operands still clears each once
    schouten_nijenhuis(full, e("c"))
    assert cleared == [len(full.terms), 1]


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def laurent_coefficients(draw):
    exponents = [st.integers(-2 if name in LAURENT_CH.nonvanishing else 0, 2) for name in LAURENT_CH.coordinates]
    terms = draw(st.dictionaries(st.tuples(*exponents), rationals, max_size=3))
    return Coefficient(LAURENT_CH, terms)


@st.composite
def graded(draw, cls, degree=None, coefficients=laurent_coefficients):
    if degree is None:
        degree = draw(st.integers(0, 3))
    keys = list(itertools.combinations(range(LAURENT_CH.dimension), degree))
    return cls(LAURENT_CH, degree, draw(st.dictionaries(st.sampled_from(keys), coefficients(), max_size=3)))


@given(graded(DiffForm), graded(DiffForm), graded(MultiVector), graded(MultiVector), laurent_coefficients(), st.data())
@settings(max_examples=40, deadline=None)
def test_every_trusted_graded_result_passes_the_boundary_unchanged(om, eta, U, V, f, data):
    same_degree = data.draw(graded(DiffForm, om.degree))
    same_vector = data.draw(graded(MultiVector, U.degree))
    results = [
        om + same_degree,
        om - same_degree,
        U - same_vector,
        -om,
        -U,
        om.scale(f),
        U.scale(f),
        wedge(om, eta),
        wedge(U, V),
        exterior_derivative(om),
        interior_product(U, om),
    ]
    kernel_results = [wedge(om, eta), wedge(U, V)]
    if U.degree or V.degree:
        kernel_results.append(schouten_nijenhuis(U, V))
    for r in results + kernel_results:
        assert all(r.terms.values())
        checked = type(r)(r.chart, r.degree, r.terms)
        assert checked == r and checked.terms == r.terms
        # each coefficient rebuilt through the ring's boundary has the same
        # numerators over the same denominator
        rebuilt = {key: Coefficient(r.chart, exponent_terms(c)) for key, c in r.terms.items()}
        assert {key: (c.nums, c.den) for key, c in rebuilt.items()} == {key: (c.nums, c.den) for key, c in r.terms.items()}
    for r in kernel_results:
        assert_integral_values_are_ints(r)


# -- the index tables against an oracle of sorting and inversion counts -------
#
# The kernel's oracles below read index tuples through these functions
# only, so they share no index code with the cached helpers of exterior.


def inversions(seq):
    return sum(1 for a, b in itertools.combinations(seq, 2) if a > b)


def oracle_merge(I, J):
    """dx^I ∧ dx^J = (−1)^{inv(I + J)} dx^{sorted(I + J)}, zero on a repeat."""
    joined = I + J
    if len(set(joined)) < len(joined):
        return None
    return (-1) ** inversions(joined), tuple(sorted(joined))


def oracle_contract(J, I):
    """ι_{∂_J} dx^I, J eaten leftmost first: write dx^I as ±dx^J ∧ dx^{I∖J},
    the sign (−1)^{inv(J + I∖J)}; each factor of J is then eaten at the
    front, with sign +1."""
    if not set(J) <= set(I):
        return None
    rest = tuple(i for i in I if i not in J)
    return (-1) ** inversions(J + rest), rest


def oracle_odd_parts(J):
    """∂ᴿξ_J/∂ξᵢ for each i in J: write ξ_J as ±ξ_{J∖i} ξᵢ, the sign
    (−1)^{inv(J∖i + (i,))}."""
    parts = []
    for i in J:
        rest = tuple(j for j in J if j != i)
        parts.append((i, rest, (-1) ** inversions(rest + (i,))))
    return tuple(parts)


SUBSETS_OF_6 = [c for p in range(7) for c in itertools.combinations(range(6), p)]


def test_index_tables_match_the_sorting_oracle():
    for J in SUBSETS_OF_6:
        assert _odd_parts(J) == oracle_odd_parts(J)
        for I in SUBSETS_OF_6:
            assert _merge_indices(I, J) == oracle_merge(I, J)
            assert _contract_key(J, I) == oracle_contract(J, I)
    assert _contract_key((1, 3), (0, 1, 2, 3)) == (-1, (0, 2))  # ι_{∂₃} ι_{∂₁}: (−1)¹ (−1)²
    assert _odd_parts((0, 2, 5)) == ((0, (2, 5), 1), (2, (0, 5), -1), (5, (0, 2), 1))


def test_index_tables_return_immutable_tuples():
    """Every caller shares one result per key, so none may be mutable:
    a tuple of ints and tuples hashes, and a list anywhere inside would not."""
    for value in (_merge_indices((0, 2), (1,)), _contract_key((1,), (0, 1)), _odd_parts((0, 1))):
        assert type(value) is tuple
        hash(value)


# -- the product kernel against the Coefficient-level loops it replaced --------


def assert_integral_values_are_ints(obj):
    for coeff in obj.terms.values():
        for value in coeff.terms.values():
            assert type(value) is int or value.denominator != 1, value


def reference_wedge(a, b):
    """The wedge as one sum of Coefficient products, one per term pair."""
    products = (
        (merged[1], (c * e).scale(merged[0]))
        for I, c in a.terms.items()
        for J, e in b.terms.items()
        if (merged := oracle_merge(I, J)) is not None
    )
    return type(a)(a.chart, a.degree + b.degree, _accumulate(products))


def reference_schouten(U, V):
    """The odd-variable bracket with Coefficient derivatives and products."""
    p, q = U.degree, V.degree
    names = U.chart.coordinates

    def half(A, B, sign):
        for J, c in A.terms.items():
            for i, rest, odd in oracle_odd_parts(J):
                for K, e in B.terms.items():
                    merged = oracle_merge(rest, K)
                    if merged is not None:
                        yield merged[1], (c * e.partial(names[i])).scale(sign * odd * merged[0])

    swap = -1 if (p - 1) * (q - 1) % 2 else 1
    terms = _accumulate(half(U, V, 1))
    _accumulate(half(V, U, -swap), terms)
    return MultiVector(U.chart, p + q - 1, terms)


# an int, a Fraction with a denominator up to 7 (which may reduce to a whole
# number), or a whole number given as a Fraction
mixed_values = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7)),
    st.integers(-9, 9).filter(bool).map(Fraction),
)


@st.composite
def mixed_coefficients(draw):
    exponents = [st.integers(-2 if name in LAURENT_CH.nonvanishing else 0, 2) for name in LAURENT_CH.coordinates]
    # through the boundary, which puts the values over their lcm denominator
    terms = draw(st.dictionaries(st.tuples(*exponents), mixed_values, max_size=3))
    return Coefficient(LAURENT_CH, terms)


@given(
    graded(DiffForm, coefficients=mixed_coefficients),
    graded(DiffForm, coefficients=mixed_coefficients),
    graded(MultiVector, coefficients=mixed_coefficients),
    graded(MultiVector, coefficients=mixed_coefficients),
)
@settings(max_examples=60, deadline=None)
def test_kernel_products_match_the_coefficient_loops(om, eta, U, V):
    results = [(wedge(om, eta), reference_wedge(om, eta)), (wedge(U, V), reference_wedge(U, V))]
    if U.degree or V.degree:
        results.append((schouten_nijenhuis(U, V), reference_schouten(U, V)))
    for kernel, reference in results:
        assert kernel == reference
        assert_integral_values_are_ints(kernel)


# -- the Schouten inputs kept on each operand ----------------------------------


def fresh(U):
    """A copy of U that no bracket has read."""
    return MultiVector(U.chart, U.degree, dict(U.terms))


def brackets(U, V):
    """[U, V], [V, U], [U, U] and [V, V], less the brackets of two scalars."""
    return [(A, B) for A, B in ((U, V), (V, U), (U, U), (V, V)) if A.degree or B.degree]


operands = st.one_of(graded(MultiVector, coefficients=mixed_coefficients), graded(MultiVector))


@seed(SEED)
@given(operands, operands, operands)
@settings(max_examples=60, deadline=None)
def test_a_bracketed_operand_brackets_as_a_fresh_copy(U, V, W):
    # each operand keeps what it gave its first bracket; brackets in
    # either position and against itself read it back
    for A, B in brackets(U, W) + brackets(W, V):
        schouten_nijenhuis(A, B)
    for _ in range(2):
        for A, B in brackets(U, V):
            kept = schouten_nijenhuis(A, B)
            assert_same_in_order(kept, schouten_nijenhuis(fresh(A), fresh(B)))
            assert kept == reference_schouten(A, B)
            assert_integral_values_are_ints(kept)


def test_a_jacobi_check_clears_masks_and_differentiates_each_operand_once(monkeypatch):
    # one criterion-3 Jacobi check on vertical (F, G) data at (2, 1): each
    # nonempty multivector is cleared once however many brackets read it,
    # each of its terms masked at most once, and differentiated at most
    # once along each coordinate
    clear, mask, partial = exterior_module._cleared, exterior_module._support_mask, exterior_module._partial_terms
    cleared, outputs, masked, differentiated = [], [], Counter(), Counter()

    def counting_cleared(terms, offset=0):
        lcm, out = clear(terms, offset)
        cleared.append(terms)
        outputs.append(out)  # keeps every counted dict alive, so no id is reused
        return lcm, out

    def counting_mask(chart, keys):
        masked[id(keys)] += 1
        return mask(chart, keys)

    def counting_partial(chart, terms, i, offset=0):
        differentiated[id(terms), i] += 1
        return partial(chart, terms, i, offset)

    rng = random.Random(SEED)
    S = build_canonical(2, 1)
    a, b, c = (rand_fg_data(rng, S, 2, 1) for _ in range(3))
    monkeypatch.setattr(exterior_module, "_cleared", counting_cleared)
    monkeypatch.setattr(exterior_module, "_support_mask", counting_mask)
    monkeypatch.setattr(exterior_module, "_partial_terms", counting_partial)
    p, q, r = a.degree, b.degree, c.degree
    total = (
        jacobi_bracket(a, jacobi_bracket(b, c)).alpha.scale((-1) ** ((p - 1) * (r - 1)))
        + jacobi_bracket(c, jacobi_bracket(a, b)).alpha.scale((-1) ** ((r - 1) * (q - 1)))
        + jacobi_bracket(b, jacobi_bracket(c, a)).alpha.scale((-1) ** ((q - 1) * (p - 1)))
    )
    assert total.is_zero()
    assert cleared and all(cleared)
    assert len({id(terms) for terms in cleared}) == len(cleared)
    # the cleared terms of each multivector, counted once per multivector:
    # one term dict may sit in two (a coefficient they share)
    first = {}
    for terms, out in zip(cleared, outputs):
        first.setdefault(id(terms), out)
    held = Counter(id(e) for out in first.values() for e in out.values())
    assert masked and all(count <= held[key] for key, count in masked.items())
    assert differentiated and all(count <= held[key] for (key, _), count in differentiated.items())


# -- the skip rules against the loops that did the skipped work ---------------


def full_interior_product(U, omega):
    """ι_U ω with the contraction oracle tried on every pair of terms."""
    if U.degree == 0:
        return full_scale(omega, U.scalar())
    products = (
        (hit[1], (c * k).scale(hit[0]))
        for J, c in U.terms.items()
        for I, k in omega.terms.items()
        if (hit := oracle_contract(J, I)) is not None
    )
    return DiffForm(omega.chart, omega.degree - U.degree, _accumulate(products))


def full_exterior_derivative(omega):
    """d with every coefficient differentiated along every coordinate."""
    chart = omega.chart
    pieces = (
        (merged[1], dc.scale(merged[0]))
        for I, c in omega.terms.items()
        for j, name in enumerate(chart.coordinates)
        if (merged := oracle_merge((j,), I)) is not None and (dc := c.partial(name))
    )
    return DiffForm(chart, omega.degree + 1, _accumulate(pieces))


def full_scale(obj, factor):
    """Scaling as a product with a constant Coefficient, term by term."""
    if not isinstance(factor, Coefficient):
        factor = Coefficient(obj.chart, {(0,) * obj.chart.dimension: factor})
    products = ((k, factor * c) for k, c in obj.terms.items())
    return type(obj)(obj.chart, obj.degree, _accumulate(products))


def assert_same_in_order(result, reference):
    assert type(result) is type(reference) and result.degree == reference.degree
    assert result == reference
    assert list(result.terms) == list(reference.terms)
    for key, coeff in result.terms.items():
        assert list(coeff.terms.items()) == list(reference.terms[key].terms.items())


every_degree = st.integers(0, LAURENT_CH.dimension)
nonzero_rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3))


@st.composite
def dense_graded(draw, cls, degree):
    """Up to four terms of one degree, each coefficient nonzero, with
    negative powers of the nonvanishing t; no terms at all is allowed."""
    exponents = [st.integers(-2 if name in LAURENT_CH.nonvanishing else 0, 2) for name in LAURENT_CH.coordinates]
    coefficients = st.dictionaries(st.tuples(*exponents), nonzero_rationals, min_size=1, max_size=3)
    keys = list(itertools.combinations(range(LAURENT_CH.dimension), degree))
    terms = draw(st.dictionaries(st.sampled_from(keys), coefficients.map(lambda t: Coefficient(LAURENT_CH, t)), max_size=4))
    return cls(LAURENT_CH, degree, terms)


@seed(SEED)
@given(every_degree, every_degree, st.data())
@settings(max_examples=120, deadline=None)
def test_prefiltered_contractions_match_the_full_pair_loops(p, k, data):
    U = data.draw(dense_graded(MultiVector, p))
    omega = data.draw(dense_graded(DiffForm, k))
    assert_same_in_order(interior_product(U, omega), full_interior_product(U, omega))
    if p > k:
        assert interior_product(U, omega) == DiffForm.zero(LAURENT_CH, k - p)
        with pytest.raises(DegreeError):
            interior_product(U, omega, strict=True)
    else:
        assert_same_in_order(interior_product(U, omega, strict=True), full_interior_product(U, omega))


@seed(SEED)
@given(every_degree, st.data())
@settings(max_examples=80, deadline=None)
def test_support_only_d_matches_the_every_coordinate_loop(k, data):
    omega = data.draw(dense_graded(DiffForm, k))
    assert_same_in_order(exterior_derivative(omega), full_exterior_derivative(omega))


def test_d_differentiates_along_a_coordinate_held_only_at_a_negative_power():
    t = Coefficient.coordinate(LAURENT_CH, "t") ** -2
    omega = DiffForm(LAURENT_CH, 1, {(0,): t})
    # d(t^-2 da) = -2 t^-3 dt ^ da = 2 t^-3 da ^ dt
    assert exterior_derivative(omega) == DiffForm(LAURENT_CH, 2, {(0, 3): -t.partial("t")})
    assert_same_in_order(exterior_derivative(omega), full_exterior_derivative(omega))


SCALE_FACTORS = [0, 1, -1, True, Fraction(3, 2), Fraction(4, 2)]


@seed(SEED)
@given(st.sampled_from([DiffForm, MultiVector]), every_degree, st.sampled_from(SCALE_FACTORS), st.data())
@settings(max_examples=120, deadline=None)
def test_rational_scaling_matches_the_constant_coefficient_product(cls, k, factor, data):
    obj = data.draw(dense_graded(cls, k))
    scaled = obj.scale(factor)
    assert_same_in_order(scaled, full_scale(obj, factor))
    for coeff in scaled.terms.values():
        assert not any(type(value) is bool for value in coeff.terms.values())
    if factor == 1:
        assert scaled.terms is not obj.terms


def test_rational_scaling_refuses_what_a_constant_refuses():
    with pytest.raises(StructuralError):
        dx("a").scale(1.5)
    with pytest.raises(StructuralError):
        e("a").scale(0.0)


# -- the named builders keep the boundary's refusals ---------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiffForm.differential(CH, "w"),
        lambda: DiffForm.differential(Chart(("a", "b", "a")), "a"),
        lambda: MultiVector.basis_vector(CH, "w"),
    ],
)
def test_named_graded_builders_refuse_unknown_and_repeated_names(build):
    with pytest.raises(StructuralError):
        build()


def test_named_graded_builders_pass_the_boundary_unchanged():
    zero = Coefficient.zero(LAURENT_CH)
    t = Coefficient.coordinate(LAURENT_CH, "t") ** -1
    built = [
        DiffForm.differential(LAURENT_CH, "t"),
        volume(LAURENT_CH),
        volume(LAURENT_CH, ["u", "a"]),
        volume(LAURENT_CH, []),
        MultiVector.basis_vector(LAURENT_CH, "b"),
        DiffForm.from_scalar(t),
        MultiVector.from_scalar(t),
        DiffForm.zero(LAURENT_CH, 2),
        MultiVector.zero(LAURENT_CH, -1),
    ]
    for obj in built:
        checked = type(obj)(obj.chart, obj.degree, obj.terms)
        assert checked == obj and checked.terms == obj.terms
    assert volume(LAURENT_CH, ["u", "a"]).terms == {(0, 4): Coefficient.one(LAURENT_CH)}
    for cls in (DiffForm, MultiVector):
        assert cls.from_scalar(zero).terms == {}
        assert cls.from_scalar(zero) == cls.zero(LAURENT_CH)
