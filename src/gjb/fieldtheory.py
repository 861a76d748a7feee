"""Covariant phase-space dynamics with dissipation.

This module builds the canonical multicontact phase space of a first-order
field theory (``n`` independent variables, ``m`` field components), the
elementary families of conformal Hamiltonian forms on it, the refined Reeb
calculus that produces the dissipation 1-form, and an exact first-jet
emission of the dissipative covariant Hamilton equations.

Conventions in force throughout:

* chart order is ``x^0..x^{n-1}, y^i, p, p^mu_i (mu-major), s^0..s^{n-1}``;
* ``d^{n-1}x_mu`` denotes the contraction of the coordinate volume by the
  ``mu``-th coordinate field, so for n = 2: ``d^1x_0 = dx1`` and
  ``d^1x_1 = -dx0``;
* the structure form is ``Theta = ds^mu ^ d^{n-1}x_mu - p d^n x
  - p^mu_i dy^i ^ d^{n-1}x_mu``;
* a Hamiltonian section fixes ``p = -H(x, y, p^mu_i, s^mu)`` and contributes
  the n-form ``h = (p + H) d^n x``;
* jet symbols are named ``<coordinate>_<x-coordinate>`` and represent the
  first partial derivatives of an unknown section.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .coeffring import Chart, Coefficient
from .errors import DegreeError, DomainError, StructuralError
from .exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pull_form_along,
    wedge,
)
from .linalg import is_in_span, reduce_mod_span, rref
from .structures import (
    CheckReport,
    ConformalData,
    NFormStructure,
    _contraction_columns,
    _index_tuples,
    is_multicontact,
    jacobi_bracket,
    make_conformal_data,
    solve_by_contraction,
)

__all__ = [
    "PhaseSpaceSpec",
    "CanonicalStructure",
    "build_canonical",
    "vertical_conformal_from_FG",
    "Table1Row",
    "Table2Entry",
    "elementary_tables",
    "RefinedReeb",
    "refined_reeb",
    "hamiltonian_subbundle_check",
    "good_hamiltonian_check",
    "HamiltonianSection",
    "hamiltonian_section",
    "dissipation_form",
    "JetSection",
    "hdw_residuals",
    "evolution_residual",
    "dissipated_check",
    "variational_check",
    "distortion",
    "gamma_obstruction",
]


# --------------------------------------------------------------------------
# canonical phase space
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpaceSpec:
    """Shape of the canonical phase space: n independent variables, m fields."""

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError("a phase space needs at least two independent variables")
        if not isinstance(self.m, int) or self.m < 1:
            raise DomainError("a phase space needs at least one field component")


class CanonicalStructure(NFormStructure):
    """The canonical multicontact structure of a first-order field theory.

    Extra ``parameters`` are appended to the chart as inert constants (no
    differentials enter the structure form and no dynamics is attached to
    them); structural validation only applies to the parameter-free chart.
    """

    def __init__(self, spec: PhaseSpaceSpec, parameters: tuple[str, ...] = ()):
        self.spec = spec
        self.parameters = tuple(parameters)
        n, m = spec.n, spec.m
        self.x_names = tuple(f"x{mu}" for mu in range(n))
        self.y_names = ("y",) if m == 1 else tuple(f"y{i}" for i in range(m))
        self.p_name = "p"
        self.momentum_names = tuple(
            f"p{mu}" if m == 1 else f"p{mu}_{i}" for mu in range(n) for i in range(m)
        )
        self.s_names = tuple(f"s{mu}" for mu in range(n))
        names = (
            self.x_names
            + self.y_names
            + (self.p_name,)
            + self.momentum_names
            + self.s_names
            + self.parameters
        )
        if len(set(names)) != len(names):
            raise DomainError(f"parameter names collide with phase-space coordinates: {parameters}")
        chart = Chart(names)
        dnx = DiffForm.volume(chart, self.x_names)
        theta = dnx.scale(-Coefficient.coordinate(chart, self.p_name))
        for mu in range(n):
            head = interior_product(MultiVector.basis_vector(chart, self.x_names[mu]), dnx)
            theta = theta + wedge(DiffForm.differential(chart, self.s_names[mu]), head)
            for i in range(m):
                p_coord = Coefficient.coordinate(chart, self.momentum_name(mu, i))
                theta = theta - wedge(DiffForm.differential(chart, self.y_names[i]), head).scale(p_coord)
        super().__init__(chart, theta)

    # -- naming helpers ------------------------------------------------

    def momentum_name(self, mu: int, i: int) -> str:
        return self.momentum_names[mu * self.spec.m + i]

    def coordinate(self, name: str) -> Coefficient:
        return Coefficient.coordinate(self.chart, name)

    @property
    def volume(self) -> DiffForm:
        return DiffForm.volume(self.chart, self.x_names)

    def xmu(self, mu: int) -> DiffForm:
        """The (n-1)-form d^{n-1}x_mu."""
        return interior_product(MultiVector.basis_vector(self.chart, self.x_names[mu]), self.volume)

    @property
    def reeb_directions(self) -> list[MultiVector]:
        """The coordinate fields spanning ker_1 dTheta (one per s-coordinate)."""
        return [MultiVector.basis_vector(self.chart, s) for s in self.s_names]


def _field_rows(fields: Sequence[MultiVector], chart: Chart) -> list[list[Coefficient]]:
    return [
        [f.terms.get((j,), Coefficient.zero(chart)) for j in range(chart.dimension)]
        for f in fields
    ]


def _same_span(a: Sequence[MultiVector], b: Sequence[MultiVector], chart: Chart) -> bool:
    rows_a, rows_b = _field_rows(a, chart), _field_rows(b, chart)
    return all(is_in_span(r, rows_b, chart) for r in rows_a) and all(
        is_in_span(r, rows_a, chart) for r in rows_b
    )


def build_canonical(spec: PhaseSpaceSpec | int, m: int | None = None, parameters: tuple[str, ...] = ()) -> CanonicalStructure:
    """Construct and validate the canonical phase-space structure.

    Accepts either a PhaseSpaceSpec or the pair (n, m).  On a parameter-free
    chart the construction is validated: the structure must be multicontact, the
    degree-1 kernel of dTheta must be spanned by the s-coordinate fields, and
    the degree-1 kernel of Theta by ``d/dy^i + p^mu_i d/ds^mu`` together with
    all momentum coordinate fields (the residual momentum included).
    """
    if not isinstance(spec, PhaseSpaceSpec):
        if m is None:
            raise DomainError("build_canonical needs a PhaseSpaceSpec or the pair (n, m)")
        spec = PhaseSpaceSpec(spec, m)
    S = CanonicalStructure(spec, parameters)
    if parameters:
        return S
    report = is_multicontact(S)
    if not report.ok:
        raise StructuralError(f"canonical structure failed the multicontact check: {report.details}")
    chart, n, m_ = S.chart, spec.n, spec.m
    if not _same_span(S.kernel(1, "dtheta"), S.reeb_directions, chart):
        raise StructuralError("degree-1 kernel of dTheta is not spanned by the s-coordinate fields")
    expected_theta_kernel = []
    for i in range(m_):
        terms = {(chart.index(S.y_names[i]),): Coefficient.one(chart)}
        for mu in range(n):
            terms[(chart.index(S.momentum_name(mu, i)),)] = Coefficient.zero(chart)
            terms[(chart.index(S.s_names[mu]),)] = S.coordinate(S.momentum_name(mu, i))
        expected_theta_kernel.append(
            MultiVector(chart, 1, {k: v for k, v in terms.items() if not v.is_zero()})
        )
    for name in (S.p_name,) + S.momentum_names:
        expected_theta_kernel.append(MultiVector.basis_vector(chart, name))
    if not _same_span(S.kernel(1, "theta"), expected_theta_kernel, chart):
        raise StructuralError(
            "degree-1 kernel of Theta is not spanned by the lifted field directions "
            "and the momentum coordinate fields"
        )
    return S


# --------------------------------------------------------------------------
# vertical conformal transformations from (F, G) data
# --------------------------------------------------------------------------


def vertical_conformal_from_FG(
    C: CanonicalStructure, F: Coefficient, G: Sequence[Coefficient]
) -> tuple[MultiVector, ConformalData]:
    """Vertical conformal transformation generated by scalars F and G^mu.

    F may depend on x and y only; each G^mu may depend on x, y and the
    momenta, subject to dG^mu/dp^nu_i = delta^mu_nu * B_i for functions
    B_i(x, y) shared across mu.  The resulting data has
    alpha = (-F s^mu - G^mu) d^{n-1}x_mu with conformal factor F.
    """
    chart, n, m = C.chart, C.spec.n, C.spec.m
    if F.chart != chart or any(g.chart != chart for g in G):
        raise StructuralError("F and G must live on the canonical chart")
    if len(G) != n:
        raise DomainError(f"expected {n} components for G, got {len(G)}")
    allowed_F = set(C.x_names) | set(C.y_names) | set(C.parameters)
    bad = F.support() - allowed_F
    if bad:
        raise DomainError(f"F may depend on x and y only; it involves {sorted(bad)}")
    allowed_G = allowed_F | set(C.momentum_names)
    for mu in range(n):
        bad = G[mu].support() - allowed_G
        if bad:
            raise DomainError(f"G^{mu} may depend on x, y and the momenta only; it involves {sorted(bad)}")
    B = []
    for i in range(m):
        diag = G[0].partial(C.momentum_name(0, i))
        for mu in range(n):
            for nu in range(n):
                part = G[mu].partial(C.momentum_name(nu, i))
                want = diag if mu == nu else Coefficient.zero(chart)
                if part != want:
                    raise DomainError(
                        f"G does not generate a conformal transformation: "
                        f"dG^{mu}/dp^{nu}_{i} = {part} but delta^{mu}_{nu} * dG^0/dp^0_{i} = {want}"
                    )
        bad = diag.support() - allowed_F
        if bad:
            raise DomainError(
                f"G must be affine in the momenta with x,y coefficients; "
                f"dG^0/dp^0_{i} involves {sorted(bad)}"
            )
        B.append(diag)

    x_terms: dict[tuple[int, ...], Coefficient] = {}

    def add(name: str, value: Coefficient):
        if not value.is_zero():
            x_terms[(chart.index(name),)] = value

    coord = C.coordinate
    for mu in range(n):
        # s-component: F s^mu + G^mu - p^mu_j * B_j  (= F s^mu + A^mu)
        s_comp = F * coord(C.s_names[mu]) + G[mu]
        for j in range(m):
            s_comp = s_comp - coord(C.momentum_name(mu, j)) * B[j]
        add(C.s_names[mu], s_comp)
    for i in range(m):
        add(C.y_names[i], -B[i])
        for mu in range(n):
            add(
                C.momentum_name(mu, i),
                F.partial(C.y_names[i]) * coord(C.s_names[mu])
                + G[mu].partial(C.y_names[i])
                + F * coord(C.momentum_name(mu, i)),
            )
    p_comp = F * coord(C.p_name)
    for mu in range(n):
        p_comp = p_comp + F.partial(C.x_names[mu]) * coord(C.s_names[mu]) + G[mu].partial(C.x_names[mu])
    add(C.p_name, p_comp)
    x_field = MultiVector(chart, 1, x_terms)

    alpha = DiffForm.zero(chart, n - 1)
    for mu in range(n):
        alpha = alpha + C.xmu(mu).scale(-(F * coord(C.s_names[mu]) + G[mu]))
    data = make_conformal_data(C, alpha, x_field, MultiVector.from_scalar(F))
    return x_field, data


# --------------------------------------------------------------------------
# elementary families and their bracket table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One elementary conformal Hamiltonian form with its transformation."""

    family: int  # 1..4
    indices: tuple[int, ...]  # () | (i, mu) | (i,) | (mu,)
    label: str
    data: ConformalData
    factor: Fraction


@dataclass(frozen=True)
class Table2Entry:
    """Definitional bracket of two elementary rows vs. the reference table."""

    row: Table1Row
    column: Table1Row
    computed: DiffForm
    reference: DiffForm
    match: bool
    note: str = ""


def _table1_rows(C: CanonicalStructure) -> list[Table1Row]:
    chart, n, m = C.chart, C.spec.n, C.spec.m
    zero = Coefficient.zero(chart)
    one = Coefficient.one(chart)
    zeros = [zero] * n
    rows: list[Table1Row] = []

    def basis(name):
        return MultiVector.basis_vector(chart, name)

    # family 1: alpha = s^mu d^{n-1}x_mu, factor -1
    _, data = vertical_conformal_from_FG(C, -one, zeros)
    printed = MultiVector.zero(chart, 1)
    for s in C.s_names:
        printed = printed - basis(s).scale(C.coordinate(s))
    for pm in C.momentum_names:
        printed = printed - basis(pm).scale(C.coordinate(pm))
    printed = printed - basis(C.p_name).scale(C.coordinate(C.p_name))
    if data.x_field != printed:
        raise StructuralError("scaling family does not match its closed-form transformation")
    rows.append(Table1Row(1, (), "s^mu d^{n-1}x_mu", data, Fraction(-1)))

    # family 2: alpha = y^i d^{n-1}x_mu, factor 0
    for i in range(m):
        for mu in range(n):
            G = list(zeros)
            G[mu] = -C.coordinate(C.y_names[i])
            _, data = vertical_conformal_from_FG(C, zero, G)
            printed = -basis(C.s_names[mu]).scale(C.coordinate(C.y_names[i])) - basis(C.momentum_name(mu, i))
            if data.x_field != printed:
                raise StructuralError("field-coordinate family does not match its closed-form transformation")
            rows.append(Table1Row(2, (i, mu), f"y^{i} d^{{n-1}}x_{mu}", data, Fraction(0)))

    # family 3: alpha = p^mu_i d^{n-1}x_mu (mu summed), factor 0
    for i in range(m):
        G = [-C.coordinate(C.momentum_name(mu, i)) for mu in range(n)]
        _, data = vertical_conformal_from_FG(C, zero, G)
        printed = basis(C.y_names[i])
        if data.x_field != printed:
            raise StructuralError("momentum-trace family does not match its closed-form transformation")
        rows.append(Table1Row(3, (i,), f"p^mu_{i} d^{{n-1}}x_mu", data, Fraction(0)))

    # family 4: alpha = d^{n-1}x_mu, factor 0
    for mu in range(n):
        G = list(zeros)
        G[mu] = -one
        _, data = vertical_conformal_from_FG(C, zero, G)
        printed = -basis(C.s_names[mu])
        if data.x_field != printed:
            raise StructuralError("volume-slice family does not match its closed-form transformation")
        rows.append(Table1Row(4, (mu,), f"d^{{n-1}}x_{mu}", data, Fraction(0)))

    return rows


def _reference_cell(C: CanonicalStructure, a: Table1Row, b: Table1Row) -> tuple[DiffForm, str]:
    """Bundled reference value for the bracket {a, b} of elementary rows.

    Two cells of the reference table carry the opposite sign from the
    definitional bracket (the mixed field/momentum pairs); they are returned
    as tabulated so the comparison reports them as mismatches.  One cell is
    tabulated with a stray free index and is reproduced here with the index
    that makes it an (n-1)-form of the right family.
    """
    chart, n = C.chart, C.spec.n
    zero = DiffForm.zero(chart, n - 1)
    fam = (a.family, b.family)
    if fam == (1, 2):
        j, nu = b.indices
        return C.xmu(nu).scale(C.coordinate(C.y_names[j])), ""
    if fam == (1, 4):
        (nu,) = b.indices
        return C.xmu(nu), "tabulated with the row index in place of the column index"
    if fam == (2, 1):
        i, mu = a.indices
        return C.xmu(mu).scale(-C.coordinate(C.y_names[i])), ""
    if fam == (2, 3):
        i, mu = a.indices
        (j,) = b.indices
        if i == j:
            return C.xmu(mu), "reference sign is opposite to the definitional bracket"
        return zero, ""
    if fam == (3, 2):
        (i,) = a.indices
        j, nu = b.indices
        if i == j:
            return C.xmu(nu).scale(Coefficient.constant(chart, -1)), (
                "reference sign is opposite to the definitional bracket"
            )
        return zero, ""
    if fam == (4, 1):
        (mu,) = a.indices
        return C.xmu(mu).scale(Coefficient.constant(chart, -1)), ""
    return zero, ""


def elementary_tables(C: CanonicalStructure) -> tuple[list[Table1Row], list[Table2Entry]]:
    """The elementary conformal families and all their pairwise brackets.

    Every bracket is computed from the definitional bracket of conformal
    data and compared against the bundled reference value, with a
    MATCH/MISMATCH flag per pair.
    """
    rows = _table1_rows(C)
    entries: list[Table2Entry] = []
    for a in rows:
        for b in rows:
            computed = jacobi_bracket(a.data, b.data).alpha
            reference, note = _reference_cell(C, a, b)
            entries.append(Table2Entry(a, b, computed, reference, computed == reference, note))
    return rows, entries


# --------------------------------------------------------------------------
# refined Reeb calculus and the dissipation form
# --------------------------------------------------------------------------


def _reeb_kernel_basis(S: NFormStructure) -> list[MultiVector]:
    if isinstance(S, CanonicalStructure):
        return S.reeb_directions
    report = is_multicontact(S)
    if not report.ok:
        raise DomainError(f"structure is not multicontact: {report.details}")
    return S.kernel(1, "dtheta")


@dataclass(frozen=True)
class RefinedReeb:
    """Dual pairs (R_i, u^i) refining the Reeb multivector.

    The R_i span the degree-1 kernel of dTheta; each u^i is an
    (n-1)-multivector with iota_{u^j} iota_{R_i} Theta = delta_i^j.  The
    representative (1/k) sum R_i ^ u^i contracts Theta to 1 and dTheta to 0.
    """

    structure: NFormStructure
    pairs: tuple[tuple[MultiVector, MultiVector], ...]

    @property
    def representative(self) -> MultiVector:
        chart = self.structure.chart
        n = self.structure.degree
        rep = MultiVector.zero(chart, n)
        for R, u in self.pairs:
            rep = rep + wedge(R, u)
        return rep.scale(Fraction(1, len(self.pairs)))


def refined_reeb(S: NFormStructure) -> RefinedReeb:
    """Solve for the dual pairs refining the Reeb multivector of S."""
    chart, n = S.chart, S.degree
    basis = _reeb_kernel_basis(S)
    if not basis:
        raise DomainError("the degree-1 kernel of dTheta is trivial; no Reeb directions exist")
    keys = _index_tuples(chart, n - 1)
    # column J pairs ∂_J with every Reeb direction: ι_{∂_J}ι_{R_i}Θ for each i
    columns = list(zip(*(_contraction_columns(interior_product(R, S.theta), n - 1)[1] for R in basis)))
    pairs = []
    for j, R in enumerate(basis):
        deltas = [DiffForm.from_scalar(Coefficient.constant(chart, 1 if i == j else 0)) for i in range(len(basis))]
        solved = solve_by_contraction(columns, deltas)
        if solved is None:
            raise DomainError("the Reeb directions do not admit dual multivectors")
        pairs.append((R, MultiVector(chart, n - 1, dict(zip(keys, solved[0])))))
    reeb = RefinedReeb(S, tuple(pairs))
    rep = reeb.representative
    if interior_product(rep, S.theta).scalar() != Coefficient.one(chart):
        raise StructuralError("refined Reeb representative does not contract Theta to 1")
    if not interior_product(rep, S.dtheta).is_zero():
        raise StructuralError("refined Reeb representative does not annihilate dTheta")
    return reeb


def _flat_image_rows(S: NFormStructure, basis: Sequence[MultiVector]) -> tuple[list[tuple[int, ...]], list[list[Coefficient]]]:
    chart, n = S.chart, S.degree
    keys = _index_tuples(chart, n - 1)
    rows = []
    for R in basis:
        a = interior_product(R, S.theta)
        rows.append([a.terms.get(I, Coefficient.zero(chart)) for I in keys])
    return keys, rows


def hamiltonian_subbundle_check(S: NFormStructure, h: DiffForm) -> CheckReport:
    """Is every single contraction of h a combination of the forms
    iota_R Theta, R ranging over the degree-1 kernel of dTheta?"""
    chart = S.chart
    if h.chart != chart:
        raise StructuralError("h does not live on the structure chart")
    if h.degree != S.degree:
        raise DegreeError(f"h must be an {S.degree}-form, got degree {h.degree}")
    basis = _reeb_kernel_basis(S)
    keys, rows = _flat_image_rows(S, basis)
    for name in chart.coordinates:
        if isinstance(S, CanonicalStructure) and name in S.parameters:
            continue
        contraction = interior_product(MultiVector.basis_vector(chart, name), h)
        vec = [contraction.terms.get(I, Coefficient.zero(chart)) for I in keys]
        if not is_in_span(vec, rows, chart):
            return CheckReport(False, witness=name, details=f"iota along {name} leaves the image of the flat map")
    return CheckReport(True)


def good_hamiltonian_check(S: NFormStructure, h: DiffForm) -> CheckReport:
    """Does iota_R dh stay inside the Hamiltonian subbundle for every Reeb
    direction R?  Requires h to lie in the subbundle itself."""
    report = hamiltonian_subbundle_check(S, h)
    if not report.ok:
        raise DomainError(f"h is not a Hamiltonian form: {report.details}")
    dh = exterior_derivative(h)
    for R in _reeb_kernel_basis(S):
        inner = hamiltonian_subbundle_check(S, interior_product(R, dh))
        if not inner.ok:
            return CheckReport(
                False,
                witness=(R, inner.witness),
                details=f"iota_R dh escapes the Hamiltonian subbundle along {inner.witness}",
            )
    return CheckReport(True)


@dataclass(frozen=True)
class HamiltonianSection:
    """A Hamiltonian section p = -H of the canonical phase space.

    H may depend on everything except the residual momentum p; the section
    contributes the n-form (p + H) d^n x.
    """

    canonical: CanonicalStructure
    hamiltonian: Coefficient

    @property
    def h_form(self) -> DiffForm:
        C = self.canonical
        return C.volume.scale(C.coordinate(C.p_name) + self.hamiltonian)


def hamiltonian_section(C: CanonicalStructure, H: Coefficient) -> HamiltonianSection:
    if H.chart != C.chart:
        raise StructuralError("H does not live on the canonical chart")
    if H.depends_on(C.p_name):
        raise DomainError(f"a Hamiltonian section may not depend on the residual momentum {C.p_name!r}")
    section = HamiltonianSection(C, H)
    if not hamiltonian_subbundle_check(C, section.h_form).ok:
        raise StructuralError("Hamiltonian section escaped the Hamiltonian subbundle")
    return section


def _as_h_form(h: HamiltonianSection | DiffForm) -> DiffForm:
    return h.h_form if isinstance(h, HamiltonianSection) else h


def dissipation_form(S: NFormStructure | CanonicalStructure, h: HamiltonianSection | DiffForm) -> DiffForm:
    """The dissipation 1-form: the refined-Reeb trace of dh.

    Each dual pair contributes iota_R iota_u dh; for a Hamiltonian section
    the result is (dH/ds^mu) dx^mu.
    """
    h_form = _as_h_form(h)
    if h_form.degree != S.degree:
        raise DegreeError(f"h must be an {S.degree}-form, got degree {h_form.degree}")
    dh = exterior_derivative(h_form)
    sigma = DiffForm.zero(S.chart, 1)
    for R, u in refined_reeb(S).pairs:
        sigma = sigma + interior_product(R, interior_product(u, dh))
    return sigma


# --------------------------------------------------------------------------
# jet sections and the covariant Hamilton equations
# --------------------------------------------------------------------------


def jet_name(coordinate: str, x_coordinate: str) -> str:
    """Name of the first-jet symbol of a field coordinate: ``y_x0`` etc."""
    return f"{coordinate}_{x_coordinate}"


@dataclass(frozen=True)
class JetSection:
    """An unknown section expressed through first-jet symbols.

    ``fields`` are the base coordinates treated as unknown functions of x;
    every field gets one jet symbol per x-coordinate.  Restricted flavors
    (Hamiltonian sections) express eliminated coordinates through the
    remaining ones, with differentials given by total derivatives.
    """

    canonical: CanonicalStructure
    chart: Chart
    fields: tuple[str, ...]
    scalar_images: Mapping[str, Coefficient]
    form_images: Mapping[str, DiffForm]

    @staticmethod
    def _jet_chart(C: CanonicalStructure, fields: tuple[str, ...]) -> Chart:
        names = list(C.x_names) + list(fields)
        for f in fields:
            for x in C.x_names:
                names.append(jet_name(f, x))
        names += list(C.parameters)
        return Chart(tuple(names), nonvanishing=frozenset(set(C.chart.nonvanishing) & set(names)))

    @classmethod
    def _build(cls, C: CanonicalStructure, fields: tuple[str, ...], eliminated: Mapping[str, Coefficient] | None = None):
        base = C.chart
        chart = cls._jet_chart(C, fields)
        coord = lambda name: Coefficient.coordinate(chart, name)
        scalar_images: dict[str, Coefficient] = {}
        form_images: dict[str, DiffForm] = {}
        for x in C.x_names:
            scalar_images[x] = coord(x)
            form_images[x] = DiffForm.differential(chart, x)
        for f in fields:
            scalar_images[f] = coord(f)
            df = DiffForm.zero(chart, 1)
            for x in C.x_names:
                df = df + DiffForm.differential(chart, x).scale(coord(jet_name(f, x)))
            form_images[f] = df
        for prm in C.parameters:
            scalar_images[prm] = coord(prm)
            form_images[prm] = DiffForm.zero(chart, 1)
        for name, image in (eliminated or {}).items():
            if image.chart != chart:
                raise StructuralError(f"image of eliminated coordinate {name!r} must live on the jet chart")
            scalar_images[name] = image
            # total differential of the image through the jet symbols
            d_image = DiffForm.zero(chart, 1)
            for x in C.x_names:
                total = image.partial(x)
                for f in fields:
                    total = total + image.partial(f) * coord(jet_name(f, x))
                d_image = d_image + DiffForm.differential(chart, x).scale(total)
            form_images[name] = d_image
        missing = set(base.coordinates) - set(scalar_images)
        if missing:
            raise StructuralError(f"jet section leaves base coordinates unmapped: {sorted(missing)}")
        return cls(C, chart, fields, scalar_images, form_images)

    @classmethod
    def generic(cls, C: CanonicalStructure) -> "JetSection":
        """All non-x coordinates unknown, including the residual momentum."""
        fields = tuple(
            name for name in C.chart.coordinates if name not in C.x_names and name not in C.parameters
        )
        return cls._build(C, fields)

    @classmethod
    def for_hamiltonian_section(cls, section: HamiltonianSection) -> "JetSection":
        """Fields y, momenta and s unknown; the residual momentum is -H."""
        C = section.canonical
        fields = tuple(
            name
            for name in C.chart.coordinates
            if name not in C.x_names and name != C.p_name and name not in C.parameters
        )
        h_jet = section.hamiltonian.rename_chart(cls._jet_chart(C, fields))
        return cls._build(C, fields, eliminated={C.p_name: -h_jet})

    def jet_symbols(self) -> list[str]:
        return [jet_name(f, x) for f in self.fields for x in self.canonical.x_names]

    def pull_scalar(self, c: Coefficient) -> Coefficient:
        if c.chart != self.canonical.chart:
            raise StructuralError("scalar does not live on the base chart")
        return c.substitute(self.scalar_images, self.chart)

    def pull(self, omega: DiffForm) -> DiffForm:
        if omega.chart != self.canonical.chart:
            raise StructuralError("form does not live on the base chart")
        return pull_form_along(omega, self.scalar_images, self.form_images, self.chart)


def _top_coefficient(J: JetSection, omega: DiffForm) -> Coefficient:
    """Coefficient of the x-volume in a pulled-back n-form."""
    n = J.canonical.spec.n
    if omega.degree != n:
        raise DegreeError(f"expected an {n}-form after pullback, got degree {omega.degree}")
    xkey = tuple(J.chart.index(x) for x in J.canonical.x_names)
    for key in omega.terms:
        if key != xkey:
            raise StructuralError("pulled-back form has legs outside the x-volume")
    return omega.terms.get(xkey, Coefficient.zero(J.chart))


def _jet_degree(expo: tuple[int, ...], jet_positions: set[int]) -> int:
    return sum(k for i, k in enumerate(expo) if i in jet_positions)


def _hdw_system(
    C: CanonicalStructure, h: HamiltonianSection | DiffForm, jet: JetSection | None
) -> tuple[list[Coefficient], dict[str, Coefficient]]:
    """Emit the covariant Hamilton equations and the solved pivot images.

    The raw equations are the pullbacks of (Theta + h) and of
    iota_xi (d + sigma_h ^)(Theta + h) for xi over the coordinate fields.
    Equations affine in the jet symbols are reduced to a canonical echelon
    system whose heads are, in order: the first jet of s^0, the jets of the
    fields y^i, and the first jets of the momenta p^0_i.  Higher-degree
    equations are reduced modulo the solved heads and emitted only if
    anything survives.
    """
    if isinstance(h, HamiltonianSection):
        if jet is None:
            jet = JetSection.for_hamiltonian_section(h)
    elif jet is None:
        raise StructuralError("a jet section is required when h is a bare form")
    h_form = _as_h_form(h)
    sigma = dissipation_form(C, h_form)
    total = C.theta + h_form
    curl = exterior_derivative(total) + wedge(sigma, total)

    raw = [_top_coefficient(jet, jet.pull(total))]
    for name in C.chart.coordinates:
        if name in C.parameters:
            continue
        xi = MultiVector.basis_vector(C.chart, name)
        raw.append(_top_coefficient(jet, jet.pull(interior_product(xi, curl))))

    chart = jet.chart
    jets = jet.jet_symbols()
    jet_positions = {chart.index(j) for j in jets}

    # canonical column order: the echelon heads first
    heads = []
    if C.s_names[0] in jet.fields:
        heads.append(jet_name(C.s_names[0], C.x_names[0]))
    for y in C.y_names:
        if y in jet.fields:
            heads.extend(jet_name(y, x) for x in C.x_names)
    for i in range(C.spec.m):
        pm = C.momentum_name(0, i)
        if pm in jet.fields:
            heads.append(jet_name(pm, C.x_names[0]))
    columns = heads + [j for j in jets if j not in heads]

    affine_rows = []
    leftovers = []
    for eq in raw:
        if eq.is_zero():
            continue
        degree = max(_jet_degree(expo, jet_positions) for expo in eq.terms)
        if degree <= 1:
            row = []
            for col in columns:
                pos = chart.index(col)
                entry = {}
                for expo, value in eq.terms.items():
                    if expo[pos] == 1 and _jet_degree(expo, jet_positions) == 1:
                        reduced = list(expo)
                        reduced[pos] = 0
                        entry[tuple(reduced)] = value
                row.append(Coefficient(chart, entry))
            constant = Coefficient(
                chart,
                {e: v for e, v in eq.terms.items() if _jet_degree(e, jet_positions) == 0},
            )
            affine_rows.append(row + [constant])
        else:
            leftovers.append(eq)

    emitted: list[Coefficient] = []
    solved: dict[str, Coefficient] = {}
    if affine_rows:
        result = rref(affine_rows, chart)
        for r, c in sorted(result.pivots, key=lambda rc: rc[1]):
            entries = [f.to_coefficient() for f in result.rows[r]]
            eq = entries[-1]
            for pos, col in enumerate(columns):
                if not entries[pos].is_zero():
                    eq = eq + entries[pos] * Coefficient.coordinate(chart, col)
            emitted.append(eq)
            if c < len(columns):
                image = -entries[-1]
                for pos, col in enumerate(columns):
                    if pos != c and not entries[pos].is_zero():
                        image = image - entries[pos] * Coefficient.coordinate(chart, col)
                solved[columns[c]] = image

    if leftovers:
        images = {name: Coefficient.coordinate(chart, name) for name in chart.coordinates}
        images.update(solved)
        for eq in leftovers:
            reduced = eq.substitute(images, chart)
            if not reduced.is_zero():
                emitted.append(reduced)
    return emitted, solved


def hdw_residuals(
    C: CanonicalStructure, h: HamiltonianSection | DiffForm, jet: JetSection | None = None
) -> list[Coefficient]:
    """The covariant Hamilton equations of h as exact jet-space residuals.

    For a Hamiltonian section with Hamiltonian H the emitted system is, in
    order:

    * sum_mu ds^mu/dx^mu - p^mu_i dH/dp^mu_i + H,
    * dy^i/dx^mu - dH/dp^mu_i           (one equation per i, mu),
    * sum_mu dp^mu_i/dx^mu + dH/dy^i + (dH/ds^mu) p^mu_i   (one per i).
    """
    emitted, _ = _hdw_system(C, h, jet)
    return emitted


def _hdw_reduce(jet: JetSection, solved: Mapping[str, Coefficient], value: Coefficient) -> Coefficient:
    images = {name: Coefficient.coordinate(jet.chart, name) for name in jet.chart.coordinates}
    images.update(solved)
    return value.substitute(images, jet.chart)


def evolution_residual(
    C: CanonicalStructure,
    h: HamiltonianSection | DiffForm,
    data: ConformalData,
    jet: JetSection | None = None,
) -> Coefficient:
    """Residual of the evolution law of a conformal Hamiltonian form.

    For alpha with vector-type conformal data the on-shell law reads
    psi*(d alpha) = psi*( -r h - iota_X dh - sigma_h ^ alpha
    + sigma_h ^ iota_X h ) with r the Reeb coefficient of d alpha; the
    difference of both sides is pulled back and reduced modulo the solved
    covariant Hamilton system.  A zero return certifies the law.
    """
    if data.structure is not C:
        raise StructuralError("conformal data does not live on the given structure")
    if data.degree != 1:
        raise DomainError("the evolution law applies to data with a vector transformation")
    if isinstance(h, HamiltonianSection) and jet is None:
        jet = JetSection.for_hamiltonian_section(h)
    if jet is None:
        raise StructuralError("a jet section is required when h is a bare form")
    h_form = _as_h_form(h)
    sigma = dissipation_form(C, h_form)
    _, solved = _hdw_system(C, h, jet)

    alpha, X = data.alpha, data.x_field
    reeb_coefficient = -data.v_field.scalar()
    dh = exterior_derivative(h_form)
    rhs = (
        -h_form.scale(reeb_coefficient)
        - interior_product(X, dh)
        - wedge(sigma, alpha)
        + wedge(sigma, interior_product(X, h_form))
    )
    residual = _top_coefficient(jet, jet.pull(exterior_derivative(alpha))) - _top_coefficient(
        jet, jet.pull(rhs)
    )
    return _hdw_reduce(jet, solved, residual)


def dissipated_check(
    C: CanonicalStructure, h: HamiltonianSection | DiffForm, data: ConformalData
) -> bool:
    """Is alpha a dissipated quantity: does psi*(d alpha) = -sigma_h ^ alpha
    hold on every solution?  Checks the pointwise sufficient condition
    -(L_X + r) h + (d + sigma_h ^) iota_X h = 0 exactly."""
    if data.structure is not C:
        raise StructuralError("conformal data does not live on the given structure")
    if data.degree != 1:
        raise DomainError("the dissipated-quantity condition applies to vector-type data")
    h_form = _as_h_form(h)
    sigma = dissipation_form(C, h_form)
    X = data.x_field
    reeb_coefficient = -data.v_field.scalar()
    inner = interior_product(X, h_form)
    residual = (
        -lie_derivative(X, h_form)
        - h_form.scale(reeb_coefficient)
        + exterior_derivative(inner)
        + wedge(sigma, inner)
    )
    return residual.is_zero()


# --------------------------------------------------------------------------
# variational structures, distortion and the goodness obstruction
# --------------------------------------------------------------------------


def variational_check(S: NFormStructure) -> CheckReport:
    """Does Theta vanish on every pair of Reeb directions?"""
    basis = _reeb_kernel_basis(S)
    for i, j in itertools.combinations(range(len(basis)), 2):
        value = interior_product(wedge(basis[i], basis[j]), S.theta, strict=False)
        if not value.is_zero():
            return CheckReport(
                False,
                witness=(basis[i], basis[j]),
                details="Theta does not vanish on a pair of Reeb directions",
            )
    return CheckReport(True)


def _mod_flat_representative(S: NFormStructure, omega: DiffForm, keys, rows) -> DiffForm:
    chart = S.chart
    vec = [omega.terms.get(I, Coefficient.zero(chart)) for I in keys]
    reduced = reduce_mod_span(vec, rows, chart)
    terms = {}
    for I, entry in zip(keys, reduced):
        if not entry.is_zero():
            terms[I] = entry.to_coefficient()
    return DiffForm(chart, S.degree - 1, terms)


def distortion(S: NFormStructure) -> tuple[dict[tuple[int, int], DiffForm], bool]:
    """The distortion table of a variational structure.

    Entry (i, j) is iota_{R_i} d iota_{R_j} Theta reduced modulo the image
    of the flat map; the table is symmetric and its global vanishing is
    exactly the condition making every Hamiltonian form good.
    """
    report = variational_check(S)
    if not report.ok:
        raise DomainError(f"distortion is only defined on variational structures: {report.details}")
    basis = _reeb_kernel_basis(S)
    keys, rows = _flat_image_rows(S, basis)
    table: dict[tuple[int, int], DiffForm] = {}
    for i, R in enumerate(basis):
        for j, Rp in enumerate(basis):
            raw = interior_product(R, exterior_derivative(interior_product(Rp, S.theta)))
            table[(i, j)] = _mod_flat_representative(S, raw, keys, rows)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if table[(i, j)] != table[(j, i)]:
                raise StructuralError("distortion table failed its symmetry identity")
    all_zero = all(form.is_zero() for form in table.values())
    return table, all_zero


def gamma_obstruction(S: NFormStructure, h: DiffForm, R: MultiVector, v: MultiVector) -> DiffForm:
    """Obstruction class L_R iota_v h - iota_v d iota_R h modulo the image
    of the flat map.  A nonzero value exhibits a Hamiltonian form whose
    dynamics depends on the choice of Reeb direction."""
    report = hamiltonian_subbundle_check(S, h)
    if not report.ok:
        raise DomainError(f"h is not a Hamiltonian form: {report.details}")
    for W, label in ((R, "R"), (v, "v")):
        if W.degree != 1:
            raise DegreeError(f"{label} must be a vector field")
        if not interior_product(W, S.dtheta).is_zero():
            raise DomainError(f"{label} is not a Reeb direction (it does not annihilate dTheta)")
    raw = lie_derivative(R, interior_product(v, h)) - interior_product(
        v, exterior_derivative(interior_product(R, h))
    )
    basis = _reeb_kernel_basis(S)
    keys, rows = _flat_image_rows(S, basis)
    return _mod_flat_representative(S, raw, keys, rows)
