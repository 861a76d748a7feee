"""Exterior calculus: wedge/d/contractions and the graded bracket.

The randomized suites below pin the sign conventions; the contraction
identity in particular characterizes the graded bracket, so any silent
convention drift fails loudly here.
"""

import random

import pytest

from conftest import SEED, rand_coefficient, rand_form, rand_multivector
from gjb.coeffring import Chart, Coefficient, parse_coefficient
from gjb.errors import DegreeError, StructuralError
from gjb.exterior import (
    DiffForm,
    MultiVector,
    PolyMap,
    exterior_derivative,
    form_contraction,
    interior_product,
    lie_derivative,
    reindex,
    schouten_nijenhuis,
    vector_bracket,
    wedge,
)

CH = Chart(("a", "b", "c", "u"))


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
    top = DiffForm.volume(CH)
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
    xi = DiffForm.from_scalar(C("2"))
    assert form_contraction(xi, e("a")) == e("a").scale(2)


def test_overlong_contraction_raises_unless_lenient():
    with pytest.raises(DegreeError):
        interior_product(wedge(e("a"), e("b")), dx("a"))
    assert interior_product(wedge(e("a"), e("b")), dx("a"), strict=False).is_zero()
    assert interior_product(wedge(e("a"), e("b")), dx("a"), strict=False).degree == -1
    with pytest.raises(DegreeError):
        form_contraction(wedge(dx("a"), dx("b")), e("a"))
    assert form_contraction(wedge(dx("a"), dx("b")), e("a"), strict=False) == MultiVector.zero(CH, -1)


def test_lie_derivative_past_the_bottom_degree_is_typed():
    # L_U g = d i_U g - i_U dg for a degree-2 U on a 0-form lands in degree -1
    result = lie_derivative(wedge(e("a"), e("b")), DiffForm.from_scalar(C("a*b")))
    assert result.is_zero()
    assert result.degree == -1
    with pytest.raises(DegreeError):
        result + DiffForm.zero(CH, 0)


def test_mirror_contraction_single_slot():
    pair = wedge(e("a"), e("b"))
    assert form_contraction(dx("a"), pair) == e("b")
    assert form_contraction(dx("b"), pair) == -e("a")


def test_interior_derivation_property(rng):
    # i_U(xi ^ om) = i_{i_xi U} om + (-1)^p xi ^ i_U om for a 1-form xi
    for _ in range(30):
        p = rng.randint(1, 3)
        U = rand_multivector(rng, CH, p)
        xi = rand_form(rng, CH, 1)
        om = rand_form(rng, CH, rng.randint(p, CH.dimension))
        lhs = interior_product(U, wedge(xi, om), strict=False)
        first = interior_product(form_contraction(xi, U, strict=False), om, strict=False)
        second = wedge(xi, interior_product(U, om, strict=False)).scale((-1) ** p)
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
    assert vector_bracket(X, Y) == expected


def test_vector_bracket_jacobi(rng):
    for _ in range(10):
        X, Y, Z = (rand_multivector(rng, CH, 1) for _ in range(3))
        total = (
            vector_bracket(X, vector_bracket(Y, Z))
            + vector_bracket(Y, vector_bracket(Z, X))
            + vector_bracket(Z, vector_bracket(X, Y))
        )
        assert total.is_zero()


def test_graded_bracket_agrees_with_vector_bracket(rng):
    for _ in range(10):
        X, Y = rand_multivector(rng, CH, 1), rand_multivector(rng, CH, 1)
        assert schouten_nijenhuis(X, Y) == vector_bracket(X, Y)


def test_graded_bracket_contraction_identity(rng):
    # the characterizing identity, and the regression test for the global
    # sign: i_[U,V] = (-1)^{(p-1)q} L_U i_V - i_V L_U
    for _ in range(40):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        U, V = rand_multivector(rng, CH, p), rand_multivector(rng, CH, q)
        B = schouten_nijenhuis(U, V)
        w = rng.randint(1, CH.dimension)
        om = rand_form(rng, CH, w)
        lhs = interior_product(B, om, strict=False)
        rhs = lie_derivative(U, interior_product(V, om, strict=False)).scale(
            (-1) ** ((p - 1) * q)
        ) - interior_product(V, lie_derivative(U, om), strict=False)
        if lhs.degree != rhs.degree:
            assert lhs.is_zero() and rhs.is_zero()
        else:
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
        assert schouten_nijenhuis(U, G) == form_contraction(dg, U, strict=False).scale(
            (-1) ** (p + 1)
        )
        assert schouten_nijenhuis(G, U) == -form_contraction(dg, U, strict=False)
    with pytest.raises(DegreeError):
        schouten_nijenhuis(MultiVector.from_scalar(C("a")), MultiVector.from_scalar(C("b")))


# -- transport ----------------------------------------------------------------


def test_reindex_round_trip():
    other = Chart(("u", "c", "b", "a"))
    om = wedge(dx("a"), dx("b")).scale(C("c")) + wedge(dx("b"), dx("u"))
    moved = reindex(om, other)
    assert reindex(moved, CH) == om
    # same geometric object: contractions agree after transport
    contracted = interior_product(MultiVector.basis_vector(other, "a"), moved)
    assert reindex(contracted, CH) == interior_product(e("a"), om)


def test_pullback_commutes_with_d_and_wedge(rng):
    target = Chart(("s", "t"))
    images = {
        "s": rand_coefficient(rng, CH, max_terms=2, max_degree=2),
        "t": rand_coefficient(rng, CH, max_terms=2, max_degree=2),
    }
    phi = PolyMap(CH, target, images)
    for _ in range(10):
        om = rand_form(rng, target, rng.randint(0, 1))
        eta = rand_form(rng, target, rng.randint(0, 1))
        assert phi.pull_form(exterior_derivative(om)) == exterior_derivative(phi.pull_form(om))
        assert phi.pull_form(wedge(om, eta)) == wedge(phi.pull_form(om), phi.pull_form(eta))


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
