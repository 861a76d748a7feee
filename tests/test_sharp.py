"""Sharp/Reeb decompositions of top-degree forms (``gjb.sharp``), and the
graded quotient and form-level bracket formula of the test oracle
(``oracles``), exercised on the canonical phase space, the contact chart,
and a five-dimensional structure with a nontrivial K₂."""

import itertools
import random

import pytest

from conftest import (
    SEED,
    canonical_structure,
    contact_structure,
    fg_conformal_data,
    rand_coefficient,
    rand_fg_data,
    rand_multivector,
    xmu_form,
)
from gjb import sharp
from gjb.coeffring import Chart, Coefficient
from gjb.dsl import parse_coefficient
from gjb.errors import DegreeError, DomainError
from gjb.exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    wedge,
)
from gjb.linalg import rref
from gjb.sharp import sharp_and_reeb, z_membership
from gjb.structures import (
    NFormStructure,
    cup_product,
    jacobi_bracket,
    make_conformal_data,
    verify_conformal,
)
import oracles
from oracles import QuotientMultiVector, bracket_via_sharp, sharp_graded

CAN = canonical_structure(2, 1)


def C(S, text):
    return parse_coefficient(S.chart, text)


def e(S, name):
    return MultiVector.basis_vector(S.chart, name)


def d(S, name):
    return DiffForm.differential(S.chart, name)


def same_form(x, y):
    if x.degree != y.degree:
        return x.is_zero() and y.is_zero()
    return x == y


def rand_member(rng, S, laurent=False):
    """A random top-degree member ι_X dΘ + γ·Θ with ι_X Θ = 0, built from
    the ker Θ basis, returned together with its (X, γ)."""
    x = MultiVector.zero(S.chart, 1)
    for u in S.kernel(1, "theta"):
        x = x + u.scale(rand_coefficient(rng, S.chart, laurent=laurent))
    gamma = rand_coefficient(rng, S.chart, laurent=laurent)
    alpha = interior_product(x, S.dtheta) + S.theta.scale(gamma)
    return alpha, x, gamma


def contact_data(S, f):
    p = Coefficient.coordinate(S.chart, "p")
    fq, fp, fz = (f.partial(name) for name in ("q", "p", "z"))
    x = MultiVector(S.chart, 1, {(0,): fp, (1,): -(fq + p * fz), (2,): p * fp - f})
    return make_conformal_data(S, DiffForm.from_scalar(f), x, MultiVector.from_scalar(-fz))


def five_structure():
    chart = Chart(("x", "y", "z", "s1", "s2"), nonvanishing=frozenset({"z"}))
    theta = wedge(DiffForm.differential(chart, "s1"), DiffForm.differential(chart, "s2")) + wedge(
        DiffForm.differential(chart, "x"), DiffForm.differential(chart, "y")
    ).scale(Coefficient.coordinate(chart, "z"))
    return NFormStructure(chart, theta)


def potential_data(S, phi):
    """On the five-dimensional chart: X = φ_{s2}∂_{s1} − φ_{s1}∂_{s2} with
    α = −dφ for s-only potentials φ."""
    x = e(S, "s1").scale(phi.partial("s2")) - e(S, "s2").scale(phi.partial("s1"))
    alpha = -exterior_derivative(DiffForm.from_scalar(phi))
    return make_conformal_data(S, alpha, x, 0)


def table1_instances(S, n, m):
    """The elementary vertical conformal families, one instance per free index."""
    zero = Coefficient.zero(S.chart)
    minus_one = Coefficient.constant(S.chart, -1)
    ys = ["y"] if m == 1 else [f"y{i}" for i in range(m)]
    out = [fg_conformal_data(S, n, m, minus_one, [zero] * n, [zero] * m)]
    for i in range(m):
        for mu in range(n):
            A = [zero] * n
            A[mu] = -Coefficient.coordinate(S.chart, ys[i])
            out.append(fg_conformal_data(S, n, m, zero, A, [zero] * m))
    for i in range(m):
        B = [zero] * m
        B[i] = minus_one
        out.append(fg_conformal_data(S, n, m, zero, [zero] * n, B))
    for mu in range(n):
        A = [zero] * n
        A[mu] = minus_one
        out.append(fg_conformal_data(S, n, m, zero, A, [zero] * m))
    return out


# --- membership and the top-degree decomposition --------------------------


def test_theta_decomposes_onto_gamma_one():
    dec = z_membership(CAN, CAN.theta)
    assert dec is not None and dec.unique
    assert dec.x_part.is_zero()
    assert dec.gamma == Coefficient.one(CAN.chart)
    assert sharp_and_reeb(CAN, CAN.theta) == (dec.x_part, dec.gamma)


def test_one_membership_contracts_twice_and_reads_the_columns_once(monkeypatch):
    # the solve reads the columns ι_{∂_j} of dΘ and Θ off their terms and
    # takes γ's column (Θ, 0) as it is, so the only contractions are the
    # two checks ι_X Θ and ι_X dΘ
    product, read = sharp.interior_product, sharp._contraction_columns
    for shape in ((2, 1), (3, 2)):
        S = canonical_structure(*shape)
        contractions, columns = [], []
        monkeypatch.setattr(sharp, "interior_product", lambda U, w: contractions.append(U) or product(U, w))
        monkeypatch.setattr(sharp, "_contraction_columns", lambda forms, p: columns.append(p) or read(forms, p))
        dec = z_membership(S, S.theta)
        assert dec is not None and dec.unique and dec.gamma == Coefficient.one(S.chart)
        assert len(contractions) == 2
        assert columns == [1]


def test_membership_refuses_a_form_whose_degree_is_not_n():
    # sharp_and_reeb checks the degree before it solves, so `gjb sharp`
    # keeps its own message
    for alpha in (d(CAN, "y"), wedge(CAN.theta, d(CAN, "y"))):
        with pytest.raises(DegreeError) as err:
            z_membership(CAN, alpha)
        assert str(err.value) == f"membership is defined for degree-2 forms here, got degree {alpha.degree}"
        with pytest.raises(DegreeError) as err:
            sharp_and_reeb(CAN, alpha)
        assert str(err.value) == f"sharp acts on degree-2 forms here, got degree {alpha.degree}"


def test_membership_inverts_kernel_contractions():
    # ∂_p0 annihilates Θ, so its dΘ-contraction decomposes back exactly
    x0 = e(CAN, "p0")
    dec = z_membership(CAN, interior_product(x0, CAN.dtheta))
    assert dec.x_part == x0
    assert dec.gamma.is_zero()


def test_membership_restores_the_side_condition():
    # ι_{∂_y}Θ ≠ 0: the decomposition of ι_{∂_y}dΘ corrects ∂_y along the
    # dΘ-kernel directions until Θ is annihilated
    alpha = interior_product(e(CAN, "y"), CAN.dtheta)
    dec = z_membership(CAN, alpha)
    expected = e(CAN, "y") + e(CAN, "s0").scale(C(CAN, "p0")) + e(CAN, "s1").scale(C(CAN, "p1"))
    assert dec.x_part == expected
    assert dec.gamma.is_zero()
    assert interior_product(dec.x_part, CAN.theta).is_zero()


def test_membership_reconstructs_random_members(rng):
    for _ in range(8):
        alpha, x, gamma = rand_member(rng, CAN)
        got_x, got_gamma = sharp_and_reeb(CAN, alpha)
        assert got_x == x
        assert got_gamma == gamma


def test_reeb_component_vanishes_on_pure_contractions(rng):
    # whenever ι_X dΘ decomposes at all, its γ-component is forced to zero
    for _ in range(8):
        x = rand_multivector(rng, CAN.chart, 1)
        dec = z_membership(CAN, interior_product(x, CAN.dtheta))
        if dec is not None:
            assert dec.gamma.is_zero()


def test_membership_absent_and_nonunique_on_degenerate_structure():
    chart = Chart(("x", "y"))
    S = NFormStructure(chart, DiffForm.differential(chart, "x"))
    assert z_membership(S, DiffForm.differential(chart, "y")) is None
    with pytest.raises(DomainError):
        sharp_and_reeb(S, DiffForm.differential(chart, "y"))
    # dx itself decomposes (X = 0, γ = 1) but ker₁(dΘ = 0) makes X ambiguous
    dec = z_membership(S, DiffForm.differential(chart, "x"))
    assert dec is not None and not dec.unique
    with pytest.raises(DomainError):
        sharp_and_reeb(S, DiffForm.differential(chart, "x"))


def test_unique_decomposition_survives_permuted_resolve(rng):
    # independent solve with the unknown order reversed (γ first, then the
    # X coordinates backwards) lands on the same decomposition
    alpha, x, gamma = rand_member(rng, CAN)
    chart = CAN.chart
    dim = chart.dimension
    zero_form = DiffForm.zero(chart, CAN.degree - 1)
    cols = [CAN.theta] + [interior_product(e(CAN, name), CAN.dtheta) for name in reversed(chart.coordinates)]
    side = [zero_form] + [interior_product(e(CAN, name), CAN.theta) for name in reversed(chart.coordinates)]
    # map rows keyed by the position of a column, and "b" for the right-hand side
    rows = []
    for degree, forms, target in ((CAN.degree, cols, alpha), (CAN.degree - 1, side, None)):
        for I in itertools.combinations(range(dim), degree):
            row = {k: f.terms[I] for k, f in enumerate(forms) if I in f.terms}
            if target is not None and I in target.terms:
                row["b"] = target.terms[I]
            rows.append(row)
    solution = rref(rows, chart, unknowns=range(len(cols)))
    values = solution.solution("b")
    assert not solution.kernel
    assert values.get(0, Coefficient.zero(chart)) == gamma
    resolved = MultiVector(chart, 1, {(dim - k,): c for k, c in values.items() if k})
    assert resolved == x


def test_sharp_is_skew_symmetric(rng):
    for _ in range(6):
        alpha, xa, _ = rand_member(rng, CAN)
        beta, xb, _ = rand_member(rng, CAN)
        left = interior_product(xa, beta)
        right = interior_product(xb, alpha)
        assert same_form(left, -right)


def test_sharp_defining_contraction(rng):
    alpha, _, _ = rand_member(rng, CAN)
    x, gamma = sharp_and_reeb(CAN, alpha)
    assert interior_product(x, CAN.dtheta) == alpha - CAN.theta.scale(gamma)
    assert interior_product(x, CAN.theta).is_zero()


# --- the contact chart ----------------------------------------------------


def test_contact_sharp_and_reeb_formulas(rng):
    S = contact_structure()
    p = Coefficient.coordinate(S.chart, "p")
    for _ in range(10):
        f = rand_coefficient(rng, S.chart, max_terms=3, max_degree=2)
        x, gamma = sharp_and_reeb(S, exterior_derivative(DiffForm.from_scalar(f)))
        fq, fp, fz = (f.partial(name) for name in ("q", "p", "z"))
        assert x == MultiVector(S.chart, 1, {(0,): fp, (1,): -(fq + p * fz), (2,): p * fp})
        assert gamma == fz
        # x is the Hamiltonian field shifted by f times the Reeb direction
        assert x == contact_data(S, f).x_field + e(S, "z").scale(f)


# --- graded classes -------------------------------------------------------


def test_top_degree_graded_class_is_sharp(rng):
    alpha, _, _ = rand_member(rng, CAN)
    cls = sharp_graded(CAN, alpha)
    x, _ = sharp_and_reeb(CAN, alpha)
    assert cls.representative == x
    assert cls.modulus == ()  # K₁ = 0 on a multicontact chart


def test_graded_refusal_names_only_the_decompositions_it_tried():
    # x0·dp is refused after trying the hint and the constant degree-1 basis
    # vector fields for u, so that is all the message claims
    alpha = d(CAN, "p").scale(C(CAN, "x0"))
    searched = "no decomposition i_u(i_X d theta + gamma theta) of the degree-1 form with u "
    with pytest.raises(DomainError) as err:
        sharp_graded(CAN, alpha)
    assert str(err.value) == searched + "a constant degree-1 basis multivector"
    with pytest.raises(DomainError) as err:
        sharp_graded(CAN, alpha, e(CAN, "y"))
    assert str(err.value) == searched + "the hint or a constant degree-1 basis multivector"


def test_a_search_reads_the_columns_of_dtheta_and_theta_once(monkeypatch):
    # x0·dp is refused after all eight candidates u; the columns ι_{∂_j} of
    # dΘ and Θ do not depend on u, so the search reads them once (once per
    # candidate before)
    calls, columns = [], oracles._contraction_columns
    monkeypatch.setattr(oracles, "_contraction_columns", lambda forms, p: calls.append(p) or columns(forms, p))
    with pytest.raises(DomainError):
        sharp_graded(CAN, d(CAN, "p").scale(C(CAN, "x0")))
    assert calls == [1]


def test_quotient_classes_ignore_kernel_shifts():
    S = five_structure()
    k2 = S.kernel(2, "both")
    assert k2
    base = wedge(e(S, "x"), e(S, "y"))
    shifted = base + k2[0].scale(C(S, "z^2 - 3"))
    assert QuotientMultiVector(base, k2) == QuotientMultiVector(shifted, k2)
    assert QuotientMultiVector(k2[0].scale(C(S, "x*z")), k2).is_zero()
    other = base + wedge(e(S, "x"), e(S, "z"))
    assert QuotientMultiVector(base, k2) != QuotientMultiVector(other, k2)


def test_contraction_relation_alone_does_not_pin_a_class():
    # a wedge whose dΘ-contraction cancels a Θ-contraction without lying in
    # K₂ — the reason classes are built from explicit decompositions
    A = wedge(e(CAN, "p"), e(CAN, "x0"))
    B = e(CAN, "s0")
    residual = interior_product(A, CAN.dtheta) + interior_product(B, CAN.theta)
    assert residual.is_zero()
    assert not QuotientMultiVector(A, CAN.kernel(2, "both")).is_zero()


def test_graded_pairing_symmetry(rng):
    n = CAN.degree
    for _ in range(8):
        a, b = rng.choice([1, 2]), rng.choice([1, 2])
        alpha_top, _, _ = rand_member(rng, CAN)
        beta_top, _, _ = rand_member(rng, CAN)
        u_a = rng.choice(list(itertools.combinations(range(CAN.chart.dimension), n - a)))
        u_b = rng.choice(list(itertools.combinations(range(CAN.chart.dimension), n - b)))
        alpha = interior_product(MultiVector(CAN.chart, n - a, {u_a: Coefficient.one(CAN.chart)}), alpha_top)
        beta = interior_product(MultiVector(CAN.chart, n - b, {u_b: Coefficient.one(CAN.chart)}), beta_top)
        sa = sharp_graded(CAN, alpha)
        sb = sharp_graded(CAN, beta)
        left = interior_product(sa.representative, beta)
        right = interior_product(sb.representative, alpha)
        sign = (-1) ** ((n + 1 - a) * (n + 1 - b))
        assert same_form(left, right.scale(sign))


def test_conformal_field_reconstruction_from_sharp():
    # the y-family form: its field is ♯ of the differential plus the unique
    # dΘ-kernel correction R with ι_R Θ = −γ
    gamma_form = xmu_form(CAN, 2, 0).scale(C(CAN, "y"))
    x_sharp, _ = sharp_and_reeb(CAN, exterior_derivative(gamma_form))
    R = e(CAN, "s0").scale(-C(CAN, "y"))
    assert interior_product(R, CAN.dtheta).is_zero()
    assert interior_product(R, CAN.theta) == -gamma_form
    candidate = x_sharp + R
    assert candidate == -e(CAN, "s0").scale(C(CAN, "y")) - e(CAN, "p0")
    witness = verify_conformal(CAN, candidate)
    assert witness is not None and witness.is_zero()
    make_conformal_data(CAN, gamma_form, candidate, witness)


# --- the bracket through sharp --------------------------------------------


def test_bracket_formula_on_elementary_family():
    data = table1_instances(CAN, 2, 1)
    assert len(data) == 6
    for a in data:
        for b in data:
            assert bracket_via_sharp(a, b) == jacobi_bracket(a, b).alpha
    # spot checks against hand values: {s^μ dx_μ, dx_0-family} = dx_0-family
    assert jacobi_bracket(data[0], data[4]).alpha == data[4].alpha
    # and {y-family, p-family} hits minus the Kronecker form
    assert jacobi_bracket(data[1], data[3]).alpha == -data[4].alpha


def test_bracket_formula_differentiates_each_form_once(monkeypatch):
    # dβ is formed once, for its decomposition and the sharp term (twice
    # before)
    data = table1_instances(CAN, 2, 1)
    a, b = data[1], data[3]
    differentiated, derivative = [], oracles.exterior_derivative
    monkeypatch.setattr(oracles, "exterior_derivative", lambda omega: differentiated.append(omega) or derivative(omega))
    assert bracket_via_sharp(a, b) == jacobi_bracket(a, b).alpha
    assert differentiated.count(b.alpha) == differentiated.count(a.alpha) == 1


def test_bracket_formula_on_random_pairs(rng):
    for _ in range(10):
        a = rand_fg_data(rng, CAN, 2, 1)
        b = rand_fg_data(rng, CAN, 2, 1)
        assert bracket_via_sharp(a, b) == jacobi_bracket(a, b).alpha


def test_top_form_bracket_specialization(rng):
    # degree-(n−1) data: {α,β} = −d(α∨β) + ι_{♯(dα)}dβ − ℛ(dβ)·α + ℛ(dα)·β
    for _ in range(6):
        a = rand_fg_data(rng, CAN, 2, 1)
        b = rand_fg_data(rng, CAN, 2, 1)
        vee = cup_product(a, b).alpha
        xa, ra = sharp_and_reeb(CAN, exterior_derivative(a.alpha))
        rb = sharp_and_reeb(CAN, exterior_derivative(b.alpha))[1]
        rhs = (
            -exterior_derivative(vee)
            + interior_product(xa, exterior_derivative(b.alpha))
            - a.alpha.scale(rb)
            + b.alpha.scale(ra)
        )
        assert rhs == jacobi_bracket(a, b).alpha


def test_contact_bracket_formula(rng):
    S = contact_structure()
    for _ in range(10):
        f = rand_coefficient(rng, S.chart, max_terms=3, max_degree=2)
        g = rand_coefficient(rng, S.chart, max_terms=3, max_degree=2)
        a, b = contact_data(S, f), contact_data(S, g)
        got = bracket_via_sharp(a, b)
        x, rf = sharp_and_reeb(S, exterior_derivative(a.alpha))
        rg = sharp_and_reeb(S, exterior_derivative(b.alpha))[1]
        expected = interior_product(x, exterior_derivative(b.alpha)) + DiffForm.from_scalar(g * rf - f * rg)
        assert same_form(got, expected)


def test_bracket_formula_zero_data():
    zero = make_conformal_data(
        CAN, DiffForm.zero(CAN.chart, 1), MultiVector.zero(CAN.chart, 1), MultiVector.from_scalar(Coefficient.zero(CAN.chart))
    )
    other = table1_instances(CAN, 2, 1)[0]
    assert bracket_via_sharp(zero, other).is_zero()
    assert bracket_via_sharp(other, zero).is_zero()


def test_bracket_formula_higher_degree():
    # degree-(2,1) and (1,2) pairs on the five-dimensional chart; the
    # differential of the degree-0 cup form needs a contraction hint
    S = five_structure()
    phi = C(S, "s1^2*s2")
    psi = C(S, "s2^2 + s1")
    chi = C(S, "s1*s2")
    ab = cup_product(potential_data(S, phi), potential_data(S, psi))
    c = potential_data(S, chi)
    dform = exterior_derivative(ab.alpha)
    hint = e(S, "s1").scale(dform.terms.get((4,), Coefficient.zero(S.chart))) - e(S, "s2").scale(
        dform.terms.get((3,), Coefficient.zero(S.chart))
    )
    left = bracket_via_sharp(ab, c, hint_a=hint)
    assert same_form(left, jacobi_bracket(ab, c).alpha)
    right = bracket_via_sharp(c, ab, hint_b=hint)
    assert same_form(right, jacobi_bracket(c, ab).alpha)
