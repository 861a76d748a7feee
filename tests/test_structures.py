"""Structures layer: kernels, multicontact predicate, conformal data,
graded bracket and cup product.

Two small structures carry the load here: the contact chart (q, p, z)
with Θ = dz − p·dq, and a five-dimensional chart with
Θ = ds1∧ds2 + z·dx∧dy whose degree-1 conformal family is generated by
potentials Φ(s1, s2) via X_Φ = Φ_{s2}∂_{s1} − Φ_{s1}∂_{s2}, α = −dΦ.
"""

import random

import pytest

from conftest import SEED, rand_coefficient
from gjb.coeffring import Chart, Coefficient, parse_coefficient
from gjb.errors import DegreeError, StructuralError, ValidationError
from gjb.linalg import AffineSolution
from gjb.exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    wedge,
)
from gjb.structures import (
    ConformalData,
    NFormStructure,
    cup_product,
    is_multicontact,
    jacobi_bracket,
    kernel_basis,
    make_conformal_data,
    ms_hamiltonian_pair,
    verify_conformal,
)

CONTACT = Chart(("q", "p", "z"))
FIVE = Chart(("x", "y", "z", "s1", "s2"), frozenset({"z"}))


def contact_structure():
    theta = DiffForm.differential(CONTACT, "z") - DiffForm.differential(CONTACT, "q").scale(
        Coefficient.coordinate(CONTACT, "p")
    )
    return NFormStructure(CONTACT, theta)


def five_structure():
    theta = wedge(DiffForm.differential(FIVE, "s1"), DiffForm.differential(FIVE, "s2")) + wedge(
        DiffForm.differential(FIVE, "x"), DiffForm.differential(FIVE, "y")
    ).scale(Coefficient.coordinate(FIVE, "z"))
    return NFormStructure(FIVE, theta)


def contact_data(S, f: Coefficient):
    """The contact conformal triple of a function f."""
    fq, fp, fz = (f.partial(n) for n in ("q", "p", "z"))
    p = Coefficient.coordinate(CONTACT, "p")
    X = (
        MultiVector.basis_vector(CONTACT, "q").scale(fp)
        - MultiVector.basis_vector(CONTACT, "p").scale(fq + p * fz)
        + MultiVector.basis_vector(CONTACT, "z").scale(p * fp - f)
    )
    return make_conformal_data(S, DiffForm.from_scalar(f), X, -fz)


def potential_data(S, phi: Coefficient):
    """Divergence-free s-plane field from a potential Φ(s1, s2)."""
    X = MultiVector.basis_vector(FIVE, "s1").scale(phi.partial("s2")) - MultiVector.basis_vector(
        FIVE, "s2"
    ).scale(phi.partial("s1"))
    alpha = -exterior_derivative(DiffForm.from_scalar(phi))
    return make_conformal_data(S, alpha, X, Coefficient.zero(FIVE))


def rand_potential(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e1, e2 = rng.randint(0, 2), rng.randint(0, 2)
        expo = [0, 0, 0, e1, e2]
        terms[tuple(expo)] = rng.randint(-3, 3)
    return Coefficient(FIVE, terms)


# -- kernels and the multicontact predicate -----------------------------------


def test_contact_kernels():
    S = contact_structure()
    dkernel = kernel_basis(S, 1, "dtheta")
    assert dkernel == [MultiVector.basis_vector(CONTACT, "z")]
    assert kernel_basis(S, 1, "both") == []
    # the kernel of a contact 1-form is the 2-dimensional horizontal span
    horizontal = kernel_basis(S, 1, "theta")
    assert len(horizontal) == 2
    p = Coefficient.coordinate(CONTACT, "p")
    expected = MultiVector.basis_vector(CONTACT, "q") + MultiVector.basis_vector(CONTACT, "z").scale(p)
    assert horizontal == [expected, MultiVector.basis_vector(CONTACT, "p")]
    report = is_multicontact(S)
    assert report.ok and report.witness == dkernel[0]


def test_five_dim_kernels():
    S = five_structure()
    assert kernel_basis(S, 1, "theta") == [MultiVector.basis_vector(FIVE, "z")]
    dk = kernel_basis(S, 1, "dtheta")
    assert len(dk) == 2
    names = {frozenset(k for k, in v.terms) for v in dk}
    assert names == {frozenset({FIVE.index("s1")}), frozenset({FIVE.index("s2")})}
    assert is_multicontact(S).ok
    # z-direction pairs with the s-plane inside K_2
    k2 = kernel_basis(S, 2, "both")
    pair = wedge(MultiVector.basis_vector(FIVE, "z"), MultiVector.basis_vector(FIVE, "s1"))
    assert any(v == pair or v == -pair for v in k2)


def test_kernels_above_the_top_degree_are_everything():
    # contractions into theta and d(theta) land in negative degrees, where
    # every form is zero, so the whole top-degree space is the kernel
    S = contact_structure()
    e = lambda name: MultiVector.basis_vector(CONTACT, name)
    top = wedge(wedge(e("q"), e("p")), e("z"))
    for which in ("theta", "dtheta", "both"):
        assert kernel_basis(S, 3, which) == [top]


def test_degenerate_structure_is_not_multicontact():
    chart = Chart(("x", "y"))
    S = NFormStructure(chart, DiffForm.differential(chart, "x"))
    report = is_multicontact(S)
    assert not report.ok
    assert report.witness == MultiVector.basis_vector(chart, "y")


def test_kernel_basis_reverifies_by_contraction():
    S = five_structure()
    for p in (1, 2):
        for which in ("theta", "dtheta", "both"):
            for u in kernel_basis(S, p, which):
                if which in ("theta", "both"):
                    assert interior_product(u, S.theta, strict=False).is_zero()
                if which in ("dtheta", "both"):
                    assert interior_product(u, S.dtheta, strict=False).is_zero()


# -- conformal data ------------------------------------------------------------


def test_contact_conformal_family(rng):
    S = contact_structure()
    for _ in range(10):
        f = rand_coefficient(rng, CONTACT, max_terms=3, max_degree=2)
        data = contact_data(S, f)
        assert data.residuals()["defining"].is_zero()
        solved = verify_conformal(S, data.x_field)
        assert solved == data.v_field


def test_make_conformal_data_rejects_sign_flip():
    S = contact_structure()
    f = Coefficient.coordinate(CONTACT, "q")
    good = contact_data(S, f)
    with pytest.raises(ValidationError) as err:
        make_conformal_data(S, -good.alpha, good.x_field, good.v_field)
    assert "defining" in err.value.residuals


def test_verify_conformal_absent_for_non_conformal_field():
    S = five_structure()
    # L_{d_z} theta = dx^dy, and i_V theta = V ds1^ds2 + V z dx^dy can
    # never produce dx^dy alone, so no witness exists
    assert verify_conformal(S, MultiVector.basis_vector(FIVE, "z")) is None


def test_verify_conformal_zero_field():
    S = contact_structure()
    assert verify_conformal(S, MultiVector.zero(CONTACT, 1)) == MultiVector.zero(CONTACT, 0)


def test_verify_conformal_past_the_top_degree():
    # p - 1 = 2 > n = 1: both sides of L_X theta = i_V theta are zero forms
    # of degree -1, so V = 0 is a witness
    S = contact_structure()
    e = lambda name: MultiVector.basis_vector(CONTACT, name)
    top = wedge(wedge(e("q"), e("p")), e("z"))
    assert verify_conformal(S, top) == MultiVector.zero(CONTACT, 2)


def test_zero_alpha_is_read_at_degree_n_minus_p():
    S = contact_structure()
    e = lambda name: MultiVector.basis_vector(CONTACT, name)
    x = wedge(e("q"), e("p")) + wedge(e("q"), e("z")).scale(Coefficient.coordinate(CONTACT, "q"))
    data = make_conformal_data(S, DiffForm.zero(CONTACT, 0), x, -e("z"))
    assert data.alpha == DiffForm.zero(CONTACT, -1)


def test_nonzero_alpha_of_the_wrong_degree_is_refused():
    S = contact_structure()
    data = contact_data(S, Coefficient.coordinate(CONTACT, "q"))
    with pytest.raises(DegreeError, match="n - p = 0"):
        make_conformal_data(S, DiffForm.differential(CONTACT, "q"), data.x_field, data.v_field)


def test_solves_do_not_swallow_unexpected_errors(monkeypatch):
    # only DomainError means "no ring solution"; any other error is a bug
    # and must surface instead of reading as "no witness"
    def broken(self):
        raise StructuralError("injected")

    S = contact_structure()
    X = contact_data(S, Coefficient.coordinate(CONTACT, "q")).x_field
    chart = Chart(("x", "y", "z"))
    omega = wedge(DiffForm.differential(chart, "z"), DiffForm.differential(chart, "x"))
    alpha = DiffForm.from_scalar(Coefficient.coordinate(chart, "x") ** 2)
    assert verify_conformal(S, X) is not None
    assert ms_hamiltonian_pair(omega, alpha) is not None
    monkeypatch.setattr(AffineSolution, "coefficient_solution", broken)
    with pytest.raises(StructuralError):
        verify_conformal(S, X)
    with pytest.raises(StructuralError):
        ms_hamiltonian_pair(omega, alpha)


def test_conformal_addition_and_scaling(rng):
    S = contact_structure()
    f = rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2)
    g = rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2)
    summed = contact_data(S, f) + contact_data(S, g)
    assert summed.alpha == DiffForm.from_scalar(f + g)
    scaled = contact_data(S, f).scale(3)
    assert scaled.alpha == DiffForm.from_scalar(f.scale(3))


# -- the graded bracket ----------------------------------------------------------


def test_bracket_skew_symmetry(rng):
    S = contact_structure()
    for _ in range(8):
        a = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
        b = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
        # p = q = 1: {a,b} = -{b,a} and {a,a} = 0
        assert jacobi_bracket(a, b).alpha == -jacobi_bracket(b, a).alpha
        assert jacobi_bracket(a, a).alpha.is_zero()


def test_bracket_jacobi_identity_contact(rng):
    S = contact_structure()
    for _ in range(5):
        a, b, c = (
            contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
            for _ in range(3)
        )
        total = (
            jacobi_bracket(a, jacobi_bracket(b, c)).alpha
            + jacobi_bracket(b, jacobi_bracket(c, a)).alpha
            + jacobi_bracket(c, jacobi_bracket(a, b)).alpha
        )
        assert total.is_zero()


def test_bracket_expression_identity(rng):
    # {a,b} = (-1)^{(p-1)q} (L_{X_a} - i_{V_a}) beta
    S = contact_structure()
    for _ in range(8):
        a = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
        b = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
        expected = lie_derivative(a.x_field, b.alpha) - interior_product(
            a.v_field, b.alpha, strict=False
        )
        assert jacobi_bracket(a, b).alpha == expected


def test_bracket_expression_identity_five(rng):
    S = five_structure()
    for _ in range(6):
        a = potential_data(S, rand_potential(rng))
        b = potential_data(S, rand_potential(rng))
        expected = lie_derivative(a.x_field, b.alpha) - interior_product(
            a.v_field, b.alpha, strict=False
        )
        assert jacobi_bracket(a, b).alpha == expected


def test_weak_leibniz_zero_data():
    S = contact_structure()
    zero = make_conformal_data(
        S,
        DiffForm.zero(CONTACT, 0),
        MultiVector.zero(CONTACT, 1),
        Coefficient.zero(CONTACT),
    )
    b = contact_data(S, Coefficient.coordinate(CONTACT, "q"))
    assert jacobi_bracket(zero, b).alpha.is_zero()
    assert jacobi_bracket(b, zero).alpha.is_zero()


def test_bracket_structure_mismatch():
    S1, S2 = contact_structure(), contact_structure()
    a = contact_data(S1, Coefficient.coordinate(CONTACT, "q"))
    b = contact_data(S2, Coefficient.coordinate(CONTACT, "p"))
    with pytest.raises(StructuralError):
        jacobi_bracket(a, b)


# -- well-definedness under kernel perturbations -----------------------------------


def test_bracket_invariant_under_x_perturbation(rng):
    S = five_structure()
    k2 = kernel_basis(S, 2, "both")
    assert k2
    for _ in range(6):
        a = potential_data(S, rand_potential(rng))
        b = potential_data(S, rand_potential(rng))
        pair = cup_product(a, b)
        c = potential_data(S, rand_potential(rng))
        reference = jacobi_bracket(pair, c).alpha
        perturbation = k2[rng.randrange(len(k2))].scale(
            rand_coefficient(rng, FIVE, max_terms=2, max_degree=1)
        )
        moved = make_conformal_data(S, pair.alpha, pair.x_field + perturbation, pair.v_field)
        assert jacobi_bracket(moved, c).alpha == reference
        assert jacobi_bracket(c, moved).alpha == jacobi_bracket(c, pair).alpha


def test_bracket_invariant_under_v_perturbation(rng):
    S = five_structure()
    zker = kernel_basis(S, 1, "theta")
    assert zker
    for _ in range(6):
        a = potential_data(S, rand_potential(rng))
        b = potential_data(S, rand_potential(rng))
        pair = cup_product(a, b)
        c = potential_data(S, rand_potential(rng))
        wiggle = zker[0].scale(rand_coefficient(rng, FIVE, max_terms=2, max_degree=1))
        moved = make_conformal_data(S, pair.alpha, pair.x_field, pair.v_field + wiggle)
        assert jacobi_bracket(moved, c).alpha == jacobi_bracket(pair, c).alpha


# -- cup product ---------------------------------------------------------------------


def test_cup_of_functions_vanishes_on_contact(rng):
    S = contact_structure()
    a = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
    b = contact_data(S, rand_coefficient(rng, CONTACT, max_terms=2, max_degree=2))
    assert cup_product(a, b).alpha.is_zero()


def test_cup_product_five(rng):
    S = five_structure()
    for _ in range(6):
        a = potential_data(S, rand_potential(rng))
        b = potential_data(S, rand_potential(rng))
        cup = cup_product(a, b)
        assert cup.alpha == interior_product(b.x_field, a.alpha, strict=False)
        assert cup.x_field == wedge(a.x_field, b.x_field)


def test_cup_leibniz_rule(rng):
    # {a, b v c} = {a,b} v c + (-1)^{(r-1)q} b v {a,c}
    S = five_structure()
    for _ in range(6):
        a = potential_data(S, rand_potential(rng))
        b = potential_data(S, rand_potential(rng))
        c = potential_data(S, rand_potential(rng))
        q, r = b.degree, c.degree
        lhs = jacobi_bracket(a, cup_product(b, c)).alpha
        rhs = cup_product(jacobi_bracket(a, b), c).alpha + cup_product(
            b, jacobi_bracket(a, c)
        ).alpha.scale((-1) ** ((r - 1) * q))
        assert lhs == rhs


# -- Hamiltonian pairs on closed forms --------------------------------------------


def test_ms_hamiltonian_pair_solves_and_reports_absence():
    chart = Chart(("x", "y", "z"))
    omega = wedge(DiffForm.differential(chart, "z"), DiffForm.differential(chart, "x"))
    g = Coefficient.coordinate(chart, "x") ** 2
    X = ms_hamiltonian_pair(omega, DiffForm.from_scalar(g))
    assert X is not None
    assert interior_product(X, omega) == exterior_derivative(DiffForm.from_scalar(g))
    # d(f(y)) = f' dy is outside the image of contraction into dz^dx
    f = Coefficient.coordinate(chart, "y")
    assert ms_hamiltonian_pair(omega, DiffForm.from_scalar(f)) is None
    # closed alpha admits X = 0
    const = DiffForm.from_scalar(Coefficient.constant(chart, 5))
    assert ms_hamiltonian_pair(omega, const) == MultiVector.zero(chart, 1)


def test_ms_hamiltonian_pair_scalar_unknown():
    # d(y dx) = -dx^dy, so the degree-0 unknown is g = -1
    chart = Chart(("x", "y"))
    omega = wedge(DiffForm.differential(chart, "x"), DiffForm.differential(chart, "y"))
    alpha = DiffForm.differential(chart, "x").scale(Coefficient.coordinate(chart, "y"))
    assert ms_hamiltonian_pair(omega, alpha) == MultiVector.from_scalar(Coefficient.constant(chart, -1))


def test_ms_hamiltonian_pair_requires_closed_form():
    chart = Chart(("x", "y", "z"))
    omega = wedge(DiffForm.differential(chart, "x"), DiffForm.differential(chart, "y")).scale(
        Coefficient.coordinate(chart, "z")
    )
    with pytest.raises(ValidationError):
        ms_hamiltonian_pair(omega, DiffForm.from_scalar(Coefficient.coordinate(chart, "x")))
