"""Homogeneous extension: construction invariants, nondegeneracy against
the base criterion, conformal lifts, the Poisson bracket, and the bracket
correspondence through the psi map."""

import dataclasses
import sys

import pytest

from conftest import (
    canonical_structure,
    contact_structure,
    fg_conformal_data,
    rand_coefficient,
    rand_fg_data,
    rand_form,
    rand_multivector,
)
from gjb import exterior, symplectization
from gjb.cli import main
from gjb.coeffring import Chart, Coefficient
from gjb.dsl import parse_coefficient
from gjb.errors import StructuralError, ValidationError
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
    make_conformal_data,
)
from gjb.symplectization import (
    build,
    check_correspondence,
    lift_conformal,
    nondegeneracy_check,
    poisson_bracket,
    project_to_base,
    psi_map,
)
from oracles import ms_hamiltonian_pair, reindex

CAN = canonical_structure(2, 1)
SYM = build(CAN)


def table1_instances(S, n, m):
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


def contact_data(S, f):
    p = Coefficient.coordinate(S.chart, "p")
    fq, fp, fz = (f.partial(name) for name in ("q", "p", "z"))
    x = MultiVector(S.chart, 1, {(0,): fp, (1,): -(fq + p * fz), (2,): p * fp - f})
    return make_conformal_data(S, DiffForm.from_scalar(f), x, MultiVector.from_scalar(-fz))


# --- construction ----------------------------------------------------------


def test_build_extends_by_an_invertible_fiber():
    assert SYM.fiber == "z"
    assert SYM.extended_chart.coordinates == CAN.chart.coordinates + ("z",)
    assert "z" in SYM.extended_chart.nonvanishing
    z = SYM.conformal_factor
    assert z == Coefficient.coordinate(SYM.extended_chart, "z")
    assert SYM.upsilon == SYM.horizontal(CAN.theta).scale(z)
    assert SYM.omega == -exterior_derivative(SYM.upsilon)


def test_build_renames_a_taken_fiber_coordinate():
    # the taken z is flagged nonvanishing, and its flag survives the extension
    chart = Chart(("q", "p", "z"), frozenset({"z"}))
    eta = DiffForm.differential(chart, "z") - DiffForm.differential(chart, "q").scale(Coefficient.coordinate(chart, "p"))
    sym = build(NFormStructure(chart, eta))
    assert sym.fiber == "z1"
    assert sym.extended_chart.coordinates == ("q", "p", "z", "z1")
    assert sym.extended_chart.nonvanishing == {"z", "z1"}


def test_liouville_contraction_recovers_upsilon():
    assert interior_product(SYM.liouville, SYM.omega) == -SYM.upsilon
    # and the Liouville field rescales the fiber function by itself
    dz = exterior_derivative(DiffForm.from_scalar(SYM.conformal_factor))
    assert interior_product(SYM.liouville, dz).scalar() == SYM.conformal_factor


def test_omega_on_a_closed_base_form_is_a_pure_fiber_wedge():
    chart = Chart(("x", "y"))
    S = NFormStructure(chart, DiffForm.differential(chart, "x"))
    sym = build(S)
    dz = DiffForm.differential(sym.extended_chart, "z")
    assert sym.omega == -wedge(dz, sym.horizontal(S.theta))


def test_homogeneity_of_omega():
    # 𝓛_Δ Ω = d(ι_Δ Ω) = −dΥ = Ω: the extension rescales with degree one
    assert lie_derivative(SYM.liouville, SYM.omega) == SYM.omega


# --- nondegeneracy ---------------------------------------------------------


def test_nondegeneracy_matches_base_criterion_on_reference_structures():
    chart2 = Chart(("x", "y"))
    degenerate = NFormStructure(chart2, DiffForm.differential(chart2, "x"))
    five_chart = Chart(("x", "y", "z", "s1", "s2"), nonvanishing=frozenset({"z"}))
    five = NFormStructure(
        five_chart,
        wedge(DiffForm.differential(five_chart, "s1"), DiffForm.differential(five_chart, "s2"))
        + wedge(
            DiffForm.differential(five_chart, "x"), DiffForm.differential(five_chart, "y")
        ).scale(Coefficient.coordinate(five_chart, "z")),
    )
    for S in (CAN, contact_structure(), degenerate, five, canonical_structure(2, 2), canonical_structure(3, 1)):
        assert nondegeneracy_check(build(S)).ok == is_multicontact(S).ok


def test_nondegeneracy_failure_reports_a_kernel_witness():
    chart = Chart(("x", "y"))
    report = nondegeneracy_check(build(NFormStructure(chart, DiffForm.differential(chart, "x"))))
    assert not report.ok
    assert report.witness is not None
    # the witness genuinely annihilates omega
    sym = build(NFormStructure(chart, DiffForm.differential(chart, "x")))
    assert interior_product(report.witness, sym.omega).is_zero()


# --- lifting ---------------------------------------------------------------


def test_lift_of_a_kernel_field_is_its_inclusion():
    # −∂_{s0} is conformal with zero witness; the lift adds nothing
    x = -MultiVector.basis_vector(CAN.chart, "s0")
    lifted = lift_conformal(SYM, x, 0)
    assert lifted == SYM.horizontal(x)
    assert lie_derivative(lifted, SYM.upsilon).is_zero()


def test_lift_with_nonzero_witness_gains_a_liouville_leg():
    row1 = table1_instances(CAN, 2, 1)[0]
    lifted = lift_conformal(SYM, row1.x_field, row1.v_field)
    assert lifted == SYM.horizontal(row1.x_field) + SYM.liouville
    assert lie_derivative(lifted, SYM.upsilon).is_zero()
    assert project_to_base(SYM, lifted) == row1.x_field


def test_lift_of_zero_is_zero():
    lifted = lift_conformal(SYM, MultiVector.zero(CAN.chart, 1), 0)
    assert lifted.is_zero()


def test_lift_rejects_invalid_witnesses():
    row1 = table1_instances(CAN, 2, 1)[0]
    with pytest.raises(ValidationError):
        lift_conformal(SYM, row1.x_field, 7)


@pytest.mark.parametrize("structure", ["canonical-21", "canonical-31", "contact"])
def test_the_upsilon_check_is_the_conformal_equation_times_z(rng, structure):
    # 𝓛_{X̃}Υ = z·(𝓛_XΘ − ι_VΘ)^h for any pair, so the lift's Υ check
    # refuses exactly the pairs that are not conformal on the base, and the
    # residual it reports is the base one times z
    S = {"canonical-21": CAN, "canonical-31": canonical_structure(3, 1), "contact": contact_structure()}[structure]
    sym = build(S)
    refused = 0
    for p in (1, 2):
        for _ in range(6):
            x = rand_multivector(rng, S.chart, p, max_degree=1)
            v = rand_multivector(rng, S.chart, p - 1, max_degree=1)
            lifted = sym.horizontal(x) + wedge(sym.liouville, sym.horizontal(v)).scale((-1) ** p)
            base = lie_derivative(x, S.theta) - interior_product(v, S.theta)
            upsilon = lie_derivative(lifted, sym.upsilon)
            assert upsilon == sym.horizontal(base).scale(sym.conformal_factor)
            if base.is_zero():
                assert lift_conformal(sym, x, v) == lifted
                continue
            with pytest.raises(ValidationError, match="not a conformal pair on the base") as refusal:
                lift_conformal(sym, x, v)
            assert refusal.value.residuals == {"lie_upsilon": str(upsilon)}
            refused += 1
    assert refused >= 6  # random pairs are mostly not conformal: 11, 12 and 11 of 12 at the default seed


def test_the_lift_refuses_a_witness_off_the_base_chart():
    # the same constant −1 on the extended chart would lift correctly, so
    # only the chart check refuses it
    row1 = table1_instances(CAN, 2, 1)[0]
    with pytest.raises(StructuralError, match="base chart"):
        lift_conformal(SYM, row1.x_field, SYM.horizontal(row1.v_field))


def test_psi_refuses_hand_built_data_that_is_not_conformal():
    # ConformalData(...) skips make_conformal_data; psi_map's one check,
    # the Ψ contraction, still refuses a wrong witness (the lift's Υ
    # equation fails) and a wrong α (whose pair (X, V) is conformal)
    row1 = table1_instances(CAN, 2, 1)[0]
    wrong_witness = ConformalData(CAN, row1.alpha, row1.x_field, row1.v_field.scale(Coefficient.constant(CAN.chart, 2)))
    with pytest.raises(ValidationError, match="psi image is not a Hamiltonian pair for omega"):
        psi_map(SYM, wrong_witness)
    wrong_alpha = ConformalData(CAN, row1.alpha + DiffForm.differential(CAN.chart, "x0"), row1.x_field, row1.v_field)
    with pytest.raises(ValidationError, match="psi image is not a Hamiltonian pair for omega"):
        psi_map(SYM, wrong_alpha)


def _psi_residual(sym, alpha, x, v):
    """ι_WΩ − dΨ(α) for W = −X̃, as ``psi_map`` forms it."""
    p = x.degree
    lifted = sym.horizontal(x) + wedge(sym.liouville, sym.horizontal(v)).scale((-1) ** p)
    psi = sym.horizontal(alpha).scale(sym.conformal_factor).scale((-1) ** (p + 1))
    return interior_product(-lifted, sym.omega) - exterior_derivative(psi), lie_derivative(lifted, sym.upsilon)


@pytest.mark.parametrize("structure", ["canonical-21", "canonical-31", "contact"])
def test_the_psi_residual_is_a_dz_leg_plus_the_upsilon_residual(rng, structure):
    # for any α, X and V: ι_WΩ − dΨ(α) = (−1)^p (dz∧β^h + z·(dβ)^h − 𝓛_{X̃}Υ)
    # with β = α + ι_XΘ; 𝓛_{X̃}Υ has no dz leg, and at α = −ι_XΘ the
    # residual is (−1)^{p+1} 𝓛_{X̃}Υ
    S = {"canonical-21": CAN, "canonical-31": canonical_structure(3, 1), "contact": contact_structure()}[structure]
    sym = build(S)
    n, z = S.degree, sym.conformal_factor
    dz = DiffForm.differential(sym.extended_chart, sym.fiber)
    fiber = sym.extended_chart.index(sym.fiber)
    for p in (1, 2):
        for _ in range(5):
            x = rand_multivector(rng, S.chart, p, max_degree=1)
            v = rand_multivector(rng, S.chart, p - 1, max_degree=1)
            alpha = rand_form(rng, S.chart, n - p, max_degree=1) if p <= n else DiffForm.zero(S.chart, n - p)
            beta = alpha + interior_product(x, S.theta)
            residual, upsilon = _psi_residual(sym, alpha, x, v)
            expected = wedge(dz, sym.horizontal(beta)) + sym.horizontal(exterior_derivative(beta)).scale(z) - upsilon
            assert residual == expected.scale((-1) ** p)
            assert not any(fiber in key for key in upsilon.terms)
            assert _psi_residual(sym, -interior_product(x, S.theta), x, v)[0] == upsilon.scale((-1) ** (p + 1))
            if not residual.is_zero():
                with pytest.raises(ValidationError) as refusal:
                    psi_map(sym, ConformalData(S, alpha, x, v))
                assert refusal.value.residuals == {"psi image": str(residual)}


def _conformal_samples(rng, S):
    """Conformal data on S, three at p = 1 and their cups at p = 2."""
    if hasattr(S, "spec"):
        first = [rand_fg_data(rng, S, S.spec.n, S.spec.m, max_degree=1) for _ in range(3)]
    else:  # the contact structure
        first = [contact_data(S, rand_coefficient(rng, S.chart, max_degree=2)) for _ in range(3)]
    return first + [cup_product(a, b) for a, b in zip(first, first[1:] + first[:1])]


@pytest.mark.parametrize("structure", ["canonical-21", "canonical-31", "contact"])
def test_psi_refuses_every_datum_the_upsilon_check_refuses(rng, structure):
    # hand-built data at p = 1 and 2: a wrong witness (α = −ι_XΘ, the
    # pair not conformal), which the lift's Υ check refuses, and a wrong α
    # beside a conformal pair; psi_map, which runs no Υ check, refuses both
    S = {"canonical-21": CAN, "canonical-31": canonical_structure(3, 1), "contact": contact_structure()}[structure]
    sym = build(S)
    refused = {"witness": 0, "alpha": 0}
    for p in (1, 2):
        for _ in range(6):
            x = rand_multivector(rng, S.chart, p, max_degree=1)
            v = rand_multivector(rng, S.chart, p - 1, max_degree=1)
            data = ConformalData(S, -interior_product(x, S.theta), x, v)
            try:
                lift_conformal(sym, x, v)
            except ValidationError:
                with pytest.raises(ValidationError, match="psi image is not a Hamiltonian pair for omega"):
                    psi_map(sym, data)
                refused["witness"] += 1
            else:
                assert psi_map(sym, data)[1] == -lift_conformal(sym, x, v)
    for data in _conformal_samples(rng, S):
        assert psi_map(sym, data)[1] == -lift_conformal(sym, data.x_field, data.v_field)
        for _ in range(2 if data.alpha.degree >= 0 else 0):
            while (wrong := rand_form(rng, S.chart, data.alpha.degree, max_degree=1)).is_zero():
                pass
            with pytest.raises(ValidationError, match="psi image is not a Hamiltonian pair for omega"):
                psi_map(sym, ConformalData(S, data.alpha + wrong, data.x_field, data.v_field))
            refused["alpha"] += 1
    assert min(refused.values()) >= 6, refused


def test_degree_one_lifts_are_pinned_by_nondegeneracy():
    # ker₁ dΥ = ker₁ Ω = 0 on a multicontact base, so the degree-1 lift
    # of a conformal pair is the unique one
    extended = NFormStructure(SYM.extended_chart, SYM.upsilon)
    assert extended.kernel(1, "dtheta") == []


def test_degree_two_lifts_differ_inside_the_upsilon_kernel(rng):
    # shifting a degree-2 witness along ker₁Θ produces a second honest
    # lift; the difference contracts dΥ to zero exactly
    from gjb.structures import cup_product

    a = rand_fg_data(rng, CAN, 2, 1)
    b = rand_fg_data(rng, CAN, 2, 1)
    pair = cup_product(a, b)
    shift = CAN.kernel(1, "theta")[0].scale(rand_coefficient(rng, CAN.chart))
    first = lift_conformal(SYM, pair.x_field, pair.v_field)
    second = lift_conformal(SYM, pair.x_field, pair.v_field + shift)
    assert lie_derivative(second, SYM.upsilon).is_zero()
    assert project_to_base(SYM, second) == pair.x_field
    difference = second - first
    assert interior_product(difference, exterior_derivative(SYM.upsilon)).is_zero()
    assert (difference.is_zero()) == shift.is_zero()


def test_projection_rejects_fiber_dependent_coefficients():
    # a coefficient that depends on the fiber, by a positive or a negative
    # power, in all of its terms or in one, is refused before any key moves
    for sym in (SYM, build(_transport_structure("laurent"))):
        ext, z = sym.extended_chart, sym.conformal_factor
        leg = MultiVector.basis_vector(ext, ext.coordinates[0])
        for c in (z, z.unit_inverse(), z * z + Coefficient.one(ext)):
            with pytest.raises(StructuralError, match="^projection of a fiber-dependent coefficient is undefined$"):
                project_to_base(sym, leg.scale(c))


# --- transport between the charts ---------------------------------------------


def _transport_structure(shape):
    """A structure whose chart exercises one case of the transport: the
    fiber z appended to canonical charts and a contact chart (q, p, s),
    z1 appended to the contact chart (q, p, z), and a Laurent chart whose
    flagged coordinates carry negative exponents."""
    if shape == "canonical-21":
        return CAN
    if shape == "canonical-31":
        return canonical_structure(3, 1)
    if shape == "contact-z1":
        return contact_structure()
    if shape == "contact":
        chart = Chart(("q", "p", "s"))
        return NFormStructure(chart, DiffForm.differential(chart, "s") - DiffForm.differential(chart, "q").scale(
            Coefficient.coordinate(chart, "p")))
    chart = Chart(("u", "x", "v"), frozenset({"u", "v"}))
    u, v = Coefficient.coordinate(chart, "u") ** -2, Coefficient.coordinate(chart, "v") ** -1
    return NFormStructure(chart, wedge(DiffForm.differential(chart, "u"), DiffForm.differential(chart, "x")).scale(u)
                          + wedge(DiffForm.differential(chart, "x"), DiffForm.differential(chart, "v")).scale(v))


@pytest.mark.parametrize("shape", ["canonical-21", "canonical-31", "contact", "contact-z1", "laurent"])
def test_the_slot_shift_transport_agrees_with_reindex(rng, shape):
    # horizontal moves each key up one slot and project_to_base down one;
    # reindex, the transport by coordinate name, is the oracle for both
    S = _transport_structure(shape)
    sym = build(S)
    base, ext = S.chart, sym.extended_chart
    assert sym.fiber == ("z1" if shape == "contact-z1" else "z")
    assert sym.upsilon == reindex(S.theta, ext).scale(sym.conformal_factor)
    fiber_leg = MultiVector.basis_vector(ext, sym.fiber)
    for degree in range(base.dimension + 1):
        for _ in range(3):
            form = rand_form(rng, base, degree, laurent=True)
            field = rand_multivector(rng, base, degree, laurent=True)
            assert sym.horizontal(form) == reindex(form, ext)
            assert sym.horizontal(field) == reindex(field, ext)
            assert project_to_base(sym, sym.horizontal(field)) == field
            if degree:
                # the legs along the fiber drop, whatever their coefficients
                legs = wedge(fiber_leg.scale(sym.conformal_factor), reindex(
                    rand_multivector(rng, base, degree - 1, laurent=True), ext))
                lifted = reindex(field, ext) + legs
                flat = MultiVector(ext, degree, {key: c for key, c in lifted.terms.items() if ext.dimension - 1 not in key})
                assert project_to_base(sym, lifted) == reindex(flat, base) == field
    # each direction takes its own chart only
    with pytest.raises(StructuralError, match="base chart"):
        sym.horizontal(fiber_leg)
    with pytest.raises(StructuralError, match="extended chart"):
        project_to_base(sym, MultiVector.basis_vector(base, base.coordinates[0]))


def test_an_extension_keeps_the_base_chart_as_its_leading_slots():
    # the slot shift is sound only for the chart build makes
    moved = Chart((SYM.fiber,) + CAN.chart.coordinates, SYM.extended_chart.nonvanishing)
    with pytest.raises(StructuralError, match="base chart with the fiber appended"):
        dataclasses.replace(SYM, extended_chart=moved)


# --- psi and the Poisson bracket --------------------------------------------


def test_psi_scales_by_the_fiber():
    data = table1_instances(CAN, 2, 1)[0]
    psi, witness = psi_map(SYM, data)
    assert psi == SYM.horizontal(data.alpha).scale(SYM.conformal_factor)
    assert interior_product(witness, SYM.omega) == exterior_derivative(psi)


def test_psi_witness_matches_independent_hamiltonian_solve():
    data = table1_instances(CAN, 2, 1)[2]
    psi, witness = psi_map(SYM, data)
    solved = ms_hamiltonian_pair(SYM.omega, psi)
    assert solved is not None
    difference = witness - solved
    assert interior_product(difference, SYM.omega).is_zero()


def test_poisson_bracket_rejects_non_hamiltonian_pairs():
    data = table1_instances(CAN, 2, 1)[0]
    psi, witness = psi_map(SYM, data)
    broken = witness + MultiVector.basis_vector(SYM.extended_chart, "x0")
    with pytest.raises(ValidationError):
        poisson_bracket(SYM, (psi, broken), (psi, witness))


def test_poisson_bracket_of_disjoint_pairs_vanishes():
    # q- and p-families touching different canonical directions commute
    data = table1_instances(CAN, 2, 1)
    pair_a = psi_map(SYM, data[4])  # constant x0-family
    pair_b = psi_map(SYM, data[5])  # constant x1-family
    assert poisson_bracket(SYM, pair_a, pair_b).is_zero()


def test_exact_forms_bracket_to_the_exact_poisson_bracket(rng):
    # dΨ(α) observables: their degree-n bracket is d of the Poisson bracket
    extended = NFormStructure(SYM.extended_chart, SYM.omega)
    for _ in range(4):
        a = rand_fg_data(rng, CAN, 2, 1)
        b = rand_fg_data(rng, CAN, 2, 1)
        (psi_a, wa), (psi_b, wb) = psi_map(SYM, a), psi_map(SYM, b)
        exact_a = make_conformal_data(extended, exterior_derivative(psi_a), -wa, 0)
        exact_b = make_conformal_data(extended, exterior_derivative(psi_b), -wb, 0)
        lhs = jacobi_bracket(exact_a, exact_b).alpha
        rhs = exterior_derivative(poisson_bracket(SYM, (psi_a, wa), (psi_b, wb)))
        assert lhs == rhs


def test_symplectic_specialization_of_the_exact_bracket():
    # one-dimensional base: Θ = dx gives Ω = −dz∧dx, the plane's area form
    chart = Chart(("x",))
    S = NFormStructure(chart, DiffForm.differential(chart, "x"))
    sym = build(S)
    extended = NFormStructure(sym.extended_chart, sym.omega)
    f = parse_coefficient(sym.extended_chart, "x*z")
    g = parse_coefficient(sym.extended_chart, "x + z^2")
    pairs = []
    for h in (f, g):
        form = DiffForm.from_scalar(h)
        field = ms_hamiltonian_pair(sym.omega, form)
        assert field is not None
        pairs.append((form, field))
    bracket = poisson_bracket(sym, pairs[0], pairs[1])
    exact_a = make_conformal_data(extended, exterior_derivative(pairs[0][0]), -pairs[0][1], 0)
    exact_b = make_conformal_data(extended, exterior_derivative(pairs[1][0]), -pairs[1][1], 0)
    assert jacobi_bracket(exact_a, exact_b).alpha == exterior_derivative(bracket)


# --- the correspondence -----------------------------------------------------


def test_correspondence_on_elementary_family():
    data = table1_instances(CAN, 2, 1)
    for a in data:
        for b in data:
            assert check_correspondence(SYM, a, b).is_zero()


def test_correspondence_on_random_data(rng):
    for _ in range(8):
        a = rand_fg_data(rng, CAN, 2, 1)
        b = rand_fg_data(rng, CAN, 2, 1)
        assert check_correspondence(SYM, a, b).is_zero()


def test_contact_correspondence_has_no_exact_term(rng):
    S = contact_structure()
    sym = build(S)
    for _ in range(6):
        f = rand_coefficient(rng, S.chart, max_terms=3, max_degree=2)
        g = rand_coefficient(rng, S.chart, max_terms=3, max_degree=2)
        a, b = contact_data(S, f), contact_data(S, g)
        psi_a, wa = psi_map(sym, a)
        psi_b, wb = psi_map(sym, b)
        # Ψ(f) = z·f, and the bracket maps across with no exact correction
        assert psi_a == DiffForm.from_scalar(
            f.rename_chart(sym.extended_chart) * sym.conformal_factor
        )
        poisson = poisson_bracket(sym, (psi_a, wa), (psi_b, wb))
        assert poisson == psi_map(sym, jacobi_bracket(a, b))[0]
        # because the cup form of two degree-0 observables is already zero
        from gjb.structures import cup_product

        assert cup_product(a, b).alpha.is_zero()


def test_self_correspondence_is_skew_trivial():
    data = table1_instances(CAN, 2, 1)[1]
    assert check_correspondence(SYM, data, data).is_zero()


# --- one check per equation ---------------------------------------------------


@pytest.fixture
def checks(monkeypatch):
    """Work done against the homogeneous data of the latest extension
    built, counted at the ``exterior`` level whoever asks for it:
    contractions into a form equal to ±Ω by value (``_contracted`` is the
    one contraction loop) and exterior derivatives of a form equal to Υ.
    An extension is watched from when it is built, so the contraction of
    Δ and the dΥ that build it are not counted."""
    counts = {"omega": 0, "d_upsilon": 0}
    built = []  # (Ω, −Ω, Υ) of the latest extension
    build, contracted, derivative = symplectization.build, exterior._contracted, exterior.exterior_derivative

    def counting_build(S):
        built.clear()
        sym = build(S)
        built.append((sym.omega, -sym.omega, sym.upsilon))
        return sym

    def counting_contracted(eaten, target):
        counts["omega"] += any(target == omega or target == negated for omega, negated, _ in built)
        return contracted(eaten, target)

    def counting_derivative(omega):
        counts["d_upsilon"] += any(omega == upsilon for _, _, upsilon in built)
        return derivative(omega)

    monkeypatch.setattr(symplectization, "build", counting_build)
    monkeypatch.setattr(exterior, "_contracted", counting_contracted)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gjb" and getattr(module, "exterior_derivative", None) is derivative:
            monkeypatch.setattr(module, "exterior_derivative", counting_derivative)
    return counts


def test_a_correspondence_checks_each_equation_once(checks, tmp_path, capsys):
    # each Ψ image contracts its witness against Ω once, for its one
    # check, the Hamiltonian pair (four); the bracket contracts once more
    # (five); Ω = −dΥ is never formed again
    sym = symplectization.build(CAN)
    data = table1_instances(CAN, 2, 1)
    assert check_correspondence(sym, data[1], data[4]).is_zero()
    assert checks == {"omega": 5, "d_upsilon": 0}

    # the poisson command: two Ψ images and their bracket
    path = str(tmp_path / "session.json")
    for argv in (["chart", "new", "--canonical", "2,1"], ["conformal", "make", "--x=e_x0", "--store", "a"],
                 ["conformal", "make", "--x", "e_y", "--store", "b"]):
        assert main([*argv, "-s", path]) == 0
    checks.update(omega=0, d_upsilon=0)
    assert main(["poisson", "a", "b", "-s", path]) == 0
    capsys.readouterr()
    assert checks == {"omega": 3, "d_upsilon": 0}
