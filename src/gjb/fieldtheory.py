"""Covariant phase-space dynamics with dissipation.

This module builds the canonical multicontact phase space of a first-order
field theory (``n`` independent variables, ``m`` field components), the
elementary families of conformal Hamiltonian forms on it, the refined Reeb
calculus that produces the dissipation 1-form, and an exact first-jet
emission of the dissipative covariant Hamilton equations.  A
HamiltonianSection owns what its Hamiltonian determines, each built once on
first read: its jet section (``section.jet``), its dissipation form sigma_h
(``section.sigma``) and its Hamilton system (``section.system``).  Every
reader of the dynamics takes the section alone, and the dissipated-quantity
condition and the evolution law share one core, -r h - iota_X dh +
sigma_h ^ iota_X h.

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
  first partial derivatives of an unknown section;
* the jet chart order is ``x^0..x^{n-1}``, the fields ``y^i, p^mu_i, s^mu``,
  their jets (field-major), then the parameters, so the jet symbols form
  one contiguous block (``JetSection.jets``);
* psi*(c dx^K) = psi*(c) psi*(dx^K), so an n-form pulls back to its
  x-volume coefficient as the sum of psi*(c) w_K over its terms, each jet
  keeping the x-volume coefficient w_K of psi*(dx^K) for every K it meets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .coeffring import Chart, Coefficient, _block
from .errors import DegreeError, DomainError, StructuralError
from .exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    wedge,
)
from .linalg import RrefResult, exact_divide, rref
from .structures import (
    CheckReport,
    ConformalData,
    NFormStructure,
    _contracted_data,
    _contraction_columns,
    is_multicontact,
    jacobi_bracket,
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

    # -- naming rules: the coordinates, in chart order ---------------------

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(f"x{mu}" for mu in range(self.n))

    @property
    def y_names(self) -> tuple[str, ...]:
        return ("y",) if self.m == 1 else tuple(f"y{i}" for i in range(self.m))

    @property
    def momentum_names(self) -> tuple[str, ...]:
        return tuple(f"p{mu}" if self.m == 1 else f"p{mu}_{i}" for mu in range(self.n) for i in range(self.m))

    @property
    def s_names(self) -> tuple[str, ...]:
        return tuple(f"s{mu}" for mu in range(self.n))

    @property
    def coordinates(self) -> tuple[str, ...]:
        """The chart of the parameter-free phase space: x, y, the residual
        momentum p, the momenta and s."""
        return self.x_names + self.y_names + ("p",) + self.momentum_names + self.s_names


class CanonicalStructure(NFormStructure):
    """The canonical multicontact structure of a first-order field theory.

    Extra ``parameters`` are appended to the chart as inert constants (no
    differentials enter the structure form and no dynamics is attached to
    them).  On the parameter-free chart ker_1 dTheta is spanned by the
    s-coordinate fields (``reeb_directions``) and ker_1 Theta by
    ``d/dy^i + p^mu_i d/ds^mu`` and the momentum fields, the residual
    momentum included, so K_1 is zero and the structure is multicontact.
    A parameter's field lies in both kernels, so with parameters K_1 is
    spanned by the parameter fields.  Kernels are eliminated on first
    read, as for any NFormStructure; the tests pin these closed forms.

    Theta is written from its closed-form terms, not summed from wedges.
    The chart puts x first, so d^n x is the key (0, ..., n-1) and
    d^{n-1}x_mu is (-1)^mu times the key rest_mu, that key less mu; a y or
    s differential follows every x, so each other term of Theta sits under
    rest_mu + (field,) with sign (-1)^{mu+n-1}.  ``volume`` (d^n x) and
    each d^{n-1}x_mu (``xmu``) are built once, with the structure; the
    tests pin all three against their wedge and contraction definitions.
    """

    def __init__(self, spec: PhaseSpaceSpec, parameters: tuple[str, ...] = ()):
        self.spec = spec
        self.parameters = tuple(parameters)
        n, m = spec.n, spec.m
        self.x_names, self.y_names, self.p_name = spec.x_names, spec.y_names, "p"
        self.momentum_names, self.s_names = spec.momentum_names, spec.s_names
        coordinates = spec.coordinates
        repeated = tuple(sorted({name for name in self.parameters if self.parameters.count(name) > 1}))
        if repeated:
            raise DomainError(f"parameter names are repeated: {repeated}")
        clashing = tuple(name for name in self.parameters if name in coordinates)
        if clashing:
            raise DomainError(f"parameter names collide with phase-space coordinates: {clashing}")
        try:
            chart = Chart(coordinates + self.parameters)
        except StructuralError as err:  # the names are distinct, so one is misspelled
            raise DomainError(str(err)) from err
        # the closed form of the class docstring, in the order the sum
        # -p d^n x + ds^mu ^ d^{n-1}x_mu - p^mu_i dy^i ^ d^{n-1}x_mu meets it
        one = Coefficient.one(chart)
        top = tuple(range(n))
        self.volume = DiffForm._trusted(chart, n, {top: one})
        terms = {top: -Coefficient.coordinate(chart, self.p_name)}
        xmus = []
        for mu in range(n):
            rest = top[:mu] + top[mu + 1 :]
            xmus.append(DiffForm._trusted(chart, n - 1, {rest: -one if mu % 2 else one}))
            odd = (mu + n - 1) % 2
            terms[rest + (chart.index(self.s_names[mu]),)] = -one if odd else one
            for i in range(m):
                p_coord = Coefficient.coordinate(chart, self.momentum_name(mu, i))
                terms[rest + (chart.index(self.y_names[i]),)] = p_coord if odd else -p_coord
        self._xmus = tuple(xmus)
        super().__init__(chart, DiffForm._trusted(chart, n, terms))

    # -- naming helpers ------------------------------------------------

    def momentum_name(self, mu: int, i: int) -> str:
        return self.momentum_names[mu * self.spec.m + i]

    def coordinate(self, name: str) -> Coefficient:
        return Coefficient.coordinate(self.chart, name)

    def xmu(self, mu: int) -> DiffForm:
        """The (n-1)-form d^{n-1}x_mu, built once with the structure."""
        return self._xmus[mu]

    @property
    def reeb_directions(self) -> list[MultiVector]:
        """The coordinate fields spanning ker_1 dTheta (one per s-coordinate)."""
        return [MultiVector.basis_vector(self.chart, s) for s in self.s_names]


def build_canonical(n: int, m: int, parameters: tuple[str, ...] = ()) -> CanonicalStructure:
    """The canonical phase-space structure of the pair (n, m).  Its kernels
    are eliminated on first read, like those of any NFormStructure."""
    return CanonicalStructure(PhaseSpaceSpec(n, m), parameters)


# --------------------------------------------------------------------------
# vertical conformal transformations from (F, G) data
# --------------------------------------------------------------------------


def _fg_support_error(C: CanonicalStructure, F: Coefficient, G: Sequence[Coefficient]) -> str | None:
    """Why F or a G^mu is refused by its variables alone, or None: F may
    depend on x and y only, each G^mu on x, y and the momenta (parameters
    are allowed everywhere)."""
    allowed_F = set(C.x_names) | set(C.y_names) | set(C.parameters)
    bad = F.support() - allowed_F
    if bad:
        return f"F may depend on x and y only; it involves {sorted(bad)}"
    allowed_G = allowed_F | set(C.momentum_names)
    for mu, g in enumerate(G):
        bad = g.support() - allowed_G
        if bad:
            return f"G^{mu} may depend on x, y and the momenta only; it involves {sorted(bad)}"
    return None


def vertical_conformal_from_FG(
    C: CanonicalStructure, F: Coefficient, G: Sequence[Coefficient]
) -> tuple[MultiVector, ConformalData]:
    """Vertical conformal transformation generated by scalars F and G^mu.

    F may depend on x and y only; each G^mu may depend on x, y and the
    momenta, subject to dG^mu/dp^nu_i = delta^mu_nu * B_i for functions
    B_i(x, y) shared across mu.  The resulting data has alpha = -i_X Theta,
    which equals (-F s^mu - G^mu) d^{n-1}x_mu, with conformal factor F;
    only the conformal equation is checked.
    """
    chart, n, m = C.chart, C.spec.n, C.spec.m
    if F.chart != chart or any(g.chart != chart for g in G):
        raise StructuralError("F and G must live on the canonical chart")
    if len(G) != n:
        raise DomainError(f"expected {n} components for G, got {len(G)}")
    refusal = _fg_support_error(C, F, G)
    if refusal is not None:
        raise DomainError(refusal)
    allowed_F = set(C.x_names) | set(C.y_names) | set(C.parameters)
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
    return x_field, _contracted_data(C, x_field, MultiVector.from_scalar(F))


# --------------------------------------------------------------------------
# elementary families and their bracket table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One elementary conformal Hamiltonian form with its transformation.

    The conformal factor is not stored: ``factor`` reads the constant
    witness V of ``data``, which the conformal equation has checked.
    """

    family: int  # 1..4
    indices: tuple[int, ...]  # () | (i, mu) | (i,) | (mu,)
    label: str
    data: ConformalData

    @property
    def factor(self) -> Fraction:
        return self.data.v_field.scalar().constant_value()


@dataclass(frozen=True)
class Table2Entry:
    """Definitional bracket of two elementary rows vs. the reference table."""

    row: Table1Row
    column: Table1Row
    computed: DiffForm
    reference: DiffForm
    note: str = ""

    @property
    def match(self) -> bool:
        return self.computed == self.reference


def _table1_rows(C: CanonicalStructure) -> list[Table1Row]:
    """The elementary rows, each built from the closed-form field X the
    paper prints and its constant witness V (-1 for the scaling family, 0
    for the others), so alpha = -i_X Theta by construction."""
    chart, n, m = C.chart, C.spec.n, C.spec.m
    coord = C.coordinate
    minus_one = MultiVector.from_scalar(Coefficient.constant(chart, -1))
    zero = MultiVector.zero(chart)

    def basis(name):
        return MultiVector.basis_vector(chart, name)

    def row(family, indices, label, x_field, v_field):
        return Table1Row(family, indices, label, _contracted_data(C, x_field, v_field))

    # family 1: alpha = s^mu d^{n-1}x_mu, factor -1
    scaling = MultiVector.zero(chart, 1)
    for name in (*C.s_names, *C.momentum_names, C.p_name):
        scaling = scaling - basis(name).scale(coord(name))
    rows = [row(1, (), "s^mu d^{n-1}x_mu", scaling, minus_one)]

    # family 2: alpha = y^i d^{n-1}x_mu, factor 0
    for i in range(m):
        for mu in range(n):
            x_field = -basis(C.s_names[mu]).scale(coord(C.y_names[i])) - basis(C.momentum_name(mu, i))
            rows.append(row(2, (i, mu), f"y^{i} d^{{n-1}}x_{mu}", x_field, zero))

    # family 3: alpha = p^mu_i d^{n-1}x_mu (mu summed), factor 0
    for i in range(m):
        rows.append(row(3, (i,), f"p^mu_{i} d^{{n-1}}x_mu", basis(C.y_names[i]), zero))

    # family 4: alpha = d^{n-1}x_mu, factor 0
    for mu in range(n):
        rows.append(row(4, (mu,), f"d^{{n-1}}x_{mu}", -basis(C.s_names[mu]), zero))

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
            entries.append(Table2Entry(a, b, computed, reference, note))
    return rows, entries


# --------------------------------------------------------------------------
# refined Reeb calculus and the dissipation form
# --------------------------------------------------------------------------


def _reeb_kernel_basis(S: NFormStructure) -> list[MultiVector]:
    if isinstance(S, CanonicalStructure):
        return S.reeb_directions
    is_multicontact(S).require(DomainError, "structure is not multicontact")
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


def _flat_map(S: NFormStructure) -> tuple[tuple[MultiVector, ...], tuple[DiffForm, ...], RrefResult]:
    """The Reeb directions R_i of S, their flat images iota_{R_i} Theta and
    one elimination of [F | I], kept on S: row i is iota_{R_i} Theta, keyed
    by its index tuples J, with 1 under the right-hand side i, so solution
    j is the dual u^j (iota_{d_J} dx^J = 1) and ``reduce`` reads F's span."""
    if S._flat_map is None:
        basis = tuple(_reeb_kernel_basis(S))
        flats = tuple(interior_product(R, S.theta) for R in basis)
        rows = [{**flat.terms, i: Coefficient.one(S.chart)} for i, flat in enumerate(flats)]
        S._flat_map = basis, flats, rref(rows, S.chart, sorted(set().union(*(flat.terms for flat in flats))))
    return S._flat_map


def refined_reeb(S: NFormStructure) -> RefinedReeb:
    """The dual pairs refining the Reeb multivector of S, each dual read
    off the structure's one elimination of its flat map (``_flat_map``)."""
    chart, n = S.chart, S.degree
    basis, _, span = _flat_map(S)
    if not basis:
        raise DomainError("the degree-1 kernel of dTheta is trivial; no Reeb directions exist")
    try:
        pairs = [(R, MultiVector(chart, n - 1, span.solution(j))) for j, R in enumerate(basis)]
    except DomainError:
        raise DomainError("the Reeb directions do not admit dual multivectors") from None
    reeb = RefinedReeb(S, tuple(pairs))
    rep = reeb.representative
    if interior_product(rep, S.theta).scalar() != Coefficient.one(chart):
        raise StructuralError("refined Reeb representative does not contract Theta to 1")
    if not interior_product(rep, S.dtheta).is_zero():
        raise StructuralError("refined Reeb representative does not annihilate dTheta")
    return reeb


def hamiltonian_subbundle_check(S: NFormStructure, h: DiffForm) -> CheckReport:
    """Is every single contraction of h in the span of the forms iota_R Theta,
    R ranging over the degree-1 kernel of dTheta (``_flat_map``)?"""
    span, chart = _flat_map(S)[2], S.chart
    if h.chart != chart:
        raise StructuralError("h does not live on the structure chart")
    if h.degree != S.degree:
        raise DegreeError(f"h must be an {S.degree}-form, got degree {h.degree}")
    parameters = S.parameters if isinstance(S, CanonicalStructure) else ()
    # a contraction absent from the columns is zero, in every span; the
    # rest come in chart order, so the witness is the first that escapes
    for (i,), (contraction,) in _contraction_columns([h], 1).items():
        name = chart.coordinates[i]
        if name not in parameters and not span.contains(contraction.terms):
            return CheckReport(False, witness=name, details=f"iota along {name} leaves the image of the flat map")
    return CheckReport(True)


def good_hamiltonian_check(S: NFormStructure, h: DiffForm) -> CheckReport:
    """Does iota_R dh stay inside the Hamiltonian subbundle for every Reeb
    direction R?  Requires h to lie in the subbundle itself."""
    hamiltonian_subbundle_check(S, h).require(DomainError, "h is not a Hamiltonian form")
    dh = exterior_derivative(h)
    for R in _flat_map(S)[0]:
        inner = hamiltonian_subbundle_check(S, interior_product(R, dh))
        if not inner.ok:
            details = f"iota_R dh escapes the Hamiltonian subbundle along {inner.witness}"
            return CheckReport(False, witness=(R, inner.witness), details=details)
    return CheckReport(True)


@dataclass(frozen=True)
class HamiltonianSection:
    """A Hamiltonian section p = -H of the canonical phase space.

    H may depend on everything except the residual momentum p; the section
    contributes the n-form (p + H) d^n x.
    """

    canonical: CanonicalStructure
    hamiltonian: Coefficient

    @functools.cached_property
    def h_form(self) -> DiffForm:
        C = self.canonical
        return C.volume.scale(C.coordinate(C.p_name) + self.hamiltonian)

    @functools.cached_property
    def jet(self) -> "JetSection":
        """The first-jet image of the section, built on first read."""
        return JetSection.for_hamiltonian_section(self)

    @functools.cached_property
    def sigma(self) -> DiffForm:
        """The dissipation form sigma_h of the section, built on first read.
        This is the one place a section's sigma_h is computed."""
        return dissipation_form(self.canonical, self.h_form)

    @functools.cached_property
    def system(self) -> tuple[tuple[Coefficient, ...], Mapping[str, Coefficient]]:
        """The covariant Hamilton system of the section (``_hdw_system``):
        the emitted equations and the solved heads, built with ``sigma``
        on first read and read-only."""
        emitted, solved = _hdw_system(self)
        return tuple(emitted), MappingProxyType(solved)


def hamiltonian_section(C: CanonicalStructure, H: Coefficient) -> HamiltonianSection:
    if H.chart != C.chart:
        raise StructuralError("H does not live on the canonical chart")
    if H.depends_on(C.p_name):
        raise DomainError(f"a Hamiltonian section may not depend on the residual momentum {C.p_name!r}")
    section = HamiltonianSection(C, H)
    hamiltonian_subbundle_check(C, section.h_form).require(
        StructuralError, "Hamiltonian section escaped the Hamiltonian subbundle"
    )
    return section


def dissipation_form(S: NFormStructure, h_form: DiffForm) -> DiffForm:
    """The dissipation 1-form of an n-form h on a multicontact structure:
    the refined-Reeb trace of dh.

    Each dual pair contributes iota_R iota_u dh; for the n-form of a
    Hamiltonian section the result is (dH/ds^mu) dx^mu.  A section reads
    its own as ``HamiltonianSection.sigma``, which reads the refined Reeb
    pairs once per section.
    """
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
    """The first-jet image of a Hamiltonian section.

    ``fields`` (y, the momenta and s) are the base coordinates treated as
    unknown functions of x, and each gets one jet symbol per x-coordinate.
    The jet chart reads x, fields, jets (field-major), parameters, so the
    jet symbols fill the contiguous block ``jets`` of chart positions.  The
    residual momentum is eliminated: its image is -H, and the image of dp
    is the total differential of -H through the jet symbols.

    Its private table ``_monomials``, filled as it is read, holds for each
    n-tuple K of base-chart positions met the x-volume coefficient w_K of
    psi*(dx^K), checked once by ``_top_coefficient``, and for each shorter
    prefix L the wedge psi*(dx^L), formed once for every K that shares it.
    With ``pull_scalar`` it is the package's one pullback: forms are read
    only through their x-volume coefficient (``_pulled_top``).
    """

    canonical: CanonicalStructure
    chart: Chart
    fields: tuple[str, ...]
    jets: range
    scalar_images: Mapping[str, Coefficient]
    form_images: Mapping[str, DiffForm]
    _monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_hamiltonian_section(cls, section: HamiltonianSection) -> "JetSection":
        """Fields y, momenta and s unknown; the residual momentum is -H.  A
        parameter spelled like a jet symbol is refused."""
        C = section.canonical
        fields = C.y_names + C.momentum_names + C.s_names
        symbols = tuple(jet_name(f, x) for f in fields for x in C.x_names)
        start = len(C.x_names) + len(fields)
        for prm in (prm for prm in C.parameters if prm in symbols):
            f, x = divmod(symbols.index(prm), len(C.x_names))
            raise DomainError(f"parameter {prm!r} collides with the jet symbol of {fields[f]} along {C.x_names[x]}")
        chart = Chart(C.x_names + fields + symbols + C.parameters)
        coord = lambda name: Coefficient.coordinate(chart, name)
        dx = {x: DiffForm.differential(chart, x) for x in C.x_names}
        scalar_images: dict[str, Coefficient] = {}
        form_images: dict[str, DiffForm] = {}
        for x in C.x_names:
            scalar_images[x] = coord(x)
            form_images[x] = dx[x]
        for f in fields:
            scalar_images[f] = coord(f)
            df = DiffForm.zero(chart, 1)
            for x in C.x_names:
                df = df + dx[x].scale(coord(jet_name(f, x)))
            form_images[f] = df
        for prm in C.parameters:
            scalar_images[prm] = coord(prm)
            form_images[prm] = DiffForm.zero(chart, 1)
        # p = -H, and dp is the total differential of -H through the jets
        image = -section.hamiltonian.rename_chart(chart)
        slopes = {f: image.partial(f) for f in fields if image.depends_on(f)}
        d_image = DiffForm.zero(chart, 1)
        for x in C.x_names:
            total = image.partial(x)
            for f, slope in slopes.items():
                total = total + slope * coord(jet_name(f, x))
            d_image = d_image + dx[x].scale(total)
        scalar_images[C.p_name] = image
        form_images[C.p_name] = d_image
        return cls(C, chart, fields, range(start, start + len(symbols)), scalar_images, form_images)

    def jet_symbols(self) -> list[str]:
        return [self.chart.coordinates[k] for k in self.jets]

    def pull_scalar(self, c: Coefficient) -> Coefficient:
        if c.chart != self.canonical.chart:
            raise StructuralError("scalar does not live on the base chart")
        return c.substitute(self.scalar_images, self.chart)

    def _monomial(self, K: tuple[int, ...]) -> Coefficient | DiffForm:
        """w_K for an n-tuple K, psi*(dx^K) for a shorter one: the pulled
        prefix K[:-1] wedged with the image of the last differential."""
        table = self._monomials
        if K not in table:
            image = self.form_images[self.canonical.chart.coordinates[K[-1]]]
            pulled = wedge(self._monomial(K[:-1]), image) if len(K) > 1 else image
            table[K] = _top_coefficient(self, pulled) if len(K) == self.canonical.spec.n else pulled
        return table[K]


def _pulled_top(J: JetSection, omega: DiffForm) -> Coefficient:
    """The x-volume coefficient of psi*omega for an n-form omega on the base
    chart: the sum of psi*(c) w_K over its terms c dx^K."""
    if omega.degree != J.canonical.spec.n:
        raise DegreeError(f"expected an {J.canonical.spec.n}-form to pull back, got degree {omega.degree}")
    total = Coefficient.zero(J.chart)
    for K, c in omega.terms.items():
        total = total + J.pull_scalar(c) * J._monomial(K)
    return total


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


def _hdw_system(section: HamiltonianSection) -> tuple[list[Coefficient], dict[str, Coefficient]]:
    """Emit the covariant Hamilton equations and the solved pivot images.

    The raw equations are the pullbacks, along the section's jet, of
    (Theta + h) and of iota_xi (d + sigma_h ^)(Theta + h) for xi over the
    coordinate fields, sigma_h being the section's own ``sigma``; every
    single contraction is read off one pass over the curl's terms, and one
    that is absent is the zero equation.  A term's jet degree is its
    exponent sum over the jet block, and a degree-1 term's column is the
    one jet it carries.  Equations affine in the jet symbols are reduced
    to a canonical echelon system whose heads are, in order: the first jet
    of s^0, the jets of the fields y^i, and the first jets of the momenta
    p^0_i.  Higher-degree equations are reduced modulo the solved heads and
    emitted only if anything survives.  ``HamiltonianSection.system``
    builds it once per section, and every public reader reads that.
    """
    C, jet = section.canonical, section.jet
    total = C.theta + section.h_form
    curl = exterior_derivative(total) + wedge(section.sigma, total)

    raw = [_pulled_top(jet, total)]
    for (i,), (column,) in _contraction_columns([curl], 1).items():
        if C.chart.coordinates[i] not in C.parameters:
            raw.append(_pulled_top(jet, column))

    chart = jet.chart
    lo, hi = jet.jets.start, jet.jets.stop

    # canonical column order: the echelon heads first
    x0 = C.x_names[0]
    heads = [jet_name(C.s_names[0], x0)]
    heads += [jet_name(y, x) for y in C.y_names for x in C.x_names]
    heads += [jet_name(C.momentum_name(0, i), x0) for i in range(C.spec.m)]
    columns = heads + [j for j in jet.jet_symbols() if j not in heads]

    # row keys: the position of a column in ``columns``, and len(columns)
    # for the constant term; a term of jet degree 0 is constant, and one of
    # jet degree 1 goes, its jet factor removed, to the column of that jet
    column_of = {chart.index(col): k for k, col in enumerate(columns)}
    affine_rows = []
    leftovers = []
    for eq in raw:
        if eq.is_zero():
            continue
        # jet symbols are polynomial, so a term's jet degree is above 1
        # exactly when its block holds two jets or one jet squared or more
        split = [_block(chart, expo, lo, hi) for expo in eq.nums]
        if any(len(jets) > 1 or (jets and jets[0][1] > 1) for _, jets in split):
            leftovers.append(eq)
            continue
        # each entry is some of eq's numerators over eq's denominator
        entries: dict[int, dict] = {}
        for (rest, jets), value in zip(split, eq.nums.values()):
            entries.setdefault(column_of[jets[0][0]] if jets else len(columns), {})[rest] = value
        affine_rows.append({k: Coefficient._reduced(chart, entries[k], eq.den) for k in sorted(entries)})

    emitted: list[Coefficient] = []
    solved: dict[str, Coefficient] = {}
    result = rref(affine_rows, chart)
    for r, c in result.pivots:
        entries = {k: exact_divide(entry, result.rows[r][c]) for k, entry in result.rows[r].items()}
        eq = entries.get(len(columns), Coefficient.zero(chart))
        for pos, col in enumerate(columns):
            if pos in entries:
                eq = eq + entries[pos] * Coefficient.coordinate(chart, col)
        emitted.append(eq)
        if c < len(columns):
            # the row divided by its pivot entry (1 for a unit pivot)
            # has 1 at the head, so eq is the head plus the rest
            solved[columns[c]] = Coefficient.coordinate(chart, columns[c]) - eq

    for eq in leftovers:
        reduced = _hdw_reduce(jet, solved, eq)
        if not reduced.is_zero():
            emitted.append(reduced)
    return emitted, solved


def hdw_residuals(section: HamiltonianSection) -> list[Coefficient]:
    """The covariant Hamilton equations of a Hamiltonian section as exact
    jet-space residuals.

    For a Hamiltonian section with Hamiltonian H the emitted system is, in
    order:

    * sum_mu ds^mu/dx^mu - p^mu_i dH/dp^mu_i + H,
    * dy^i/dx^mu - dH/dp^mu_i           (one equation per i, mu),
    * sum_mu dp^mu_i/dx^mu + dH/dy^i + (dH/ds^mu) p^mu_i   (one per i).

    The system is the section's own (``section.system``), built once.
    """
    _check_section(section)
    return list(section.system[0])


def _check_section(section: HamiltonianSection) -> None:
    if not isinstance(section, HamiltonianSection):
        raise StructuralError("the covariant Hamilton equations need a HamiltonianSection")


def _hdw_reduce(jet: JetSection, solved: Mapping[str, Coefficient], value: Coefficient) -> Coefficient:
    """Substitute the solved heads into value; every other coordinate of
    its support stays itself."""
    images = {
        name: solved[name] if name in solved else Coefficient.coordinate(jet.chart, name)
        for name in value.support()
    }
    return value.substitute(images, jet.chart)


def _dissipation_core(section: HamiltonianSection, data: ConformalData) -> DiffForm:
    """-r h - iota_X dh + sigma_h ^ iota_X h for vector-type data, r the
    Reeb coefficient of d alpha: the dissipated-quantity condition, and
    the evolution law's right-hand side but for its alpha term."""
    h_form, X = section.h_form, data.x_field
    reeb_coefficient = -data.v_field.scalar()
    return (
        -h_form.scale(reeb_coefficient)
        - interior_product(X, exterior_derivative(h_form))
        + wedge(section.sigma, interior_product(X, h_form))
    )


def evolution_residual(section: HamiltonianSection, data: ConformalData) -> Coefficient:
    """Residual of the evolution law of a conformal Hamiltonian form.

    For alpha with vector-type conformal data on the section's structure
    the on-shell law reads psi*(d alpha) = psi*( -r h - iota_X dh
    - sigma_h ^ alpha + sigma_h ^ iota_X h ) with r the Reeb coefficient of
    d alpha, the dissipation core less sigma_h ^ alpha; the difference of
    both sides is pulled back along the section's jet and reduced modulo
    the section's solved covariant Hamilton system.  A zero return
    certifies the law.
    """
    _check_section(section)
    if data.structure is not section.canonical:
        raise StructuralError("conformal data does not live on the section's structure")
    if data.degree != 1:
        raise DomainError("the evolution law applies to data with a vector transformation")
    _, solved = section.system
    jet, alpha = section.jet, data.alpha
    rhs = _dissipation_core(section, data) - wedge(section.sigma, alpha)
    residual = _pulled_top(jet, exterior_derivative(alpha)) - _pulled_top(jet, rhs)
    return _hdw_reduce(jet, solved, residual)


def dissipated_check(section: HamiltonianSection, data: ConformalData) -> CheckReport:
    """Is alpha a dissipated quantity: does psi*(d alpha) = -sigma_h ^ alpha
    hold on every solution of the section?  Checks the pointwise sufficient
    condition -(L_X + r) h + (d + sigma_h ^) iota_X h = 0 exactly, with the
    section's own sigma_h.  As L_X h = d iota_X h + iota_X dh, that is the
    dissipation core -r h - iota_X dh + sigma_h ^ iota_X h = 0 (Gaset,
    Lainz, Mas and Rivas 2020, The Herglotz variational principle and
    dissipated quantities)."""
    _check_section(section)
    if data.structure is not section.canonical:
        raise StructuralError("conformal data does not live on the section's structure")
    if data.degree != 1:
        raise DomainError("the dissipated-quantity condition applies to vector-type data")
    return CheckReport(_dissipation_core(section, data).is_zero())


# --------------------------------------------------------------------------
# variational structures, distortion and the goodness obstruction
# --------------------------------------------------------------------------


def variational_check(S: NFormStructure) -> CheckReport:
    """Does Theta vanish on every pair of Reeb directions?"""
    basis = _reeb_kernel_basis(S)
    for i, j in itertools.combinations(range(len(basis)), 2):
        value = interior_product(wedge(basis[i], basis[j]), S.theta)
        if not value.is_zero():
            details = "Theta does not vanish on a pair of Reeb directions"
            return CheckReport(False, witness=(basis[i], basis[j]), details=details)
    return CheckReport(True)


def _mod_flat_representative(S: NFormStructure, omega: DiffForm, span: RrefResult) -> DiffForm:
    reduced, den = span.reduce(omega.terms)
    return DiffForm(S.chart, omega.degree, {key: exact_divide(entry, den) for key, entry in reduced.items()})


def distortion(S: NFormStructure) -> tuple[dict[tuple[int, int], DiffForm], bool]:
    """The distortion table of a variational structure.

    Entry (i, j) is iota_{R_i} d iota_{R_j} Theta reduced modulo the image
    of the flat map; the table is symmetric and its global vanishing is
    exactly the condition making every Hamiltonian form good.  The span
    and the curls read the structure's flat map (``_flat_map``).
    """
    variational_check(S).require(DomainError, "distortion is only defined on variational structures")
    basis, flats, span = _flat_map(S)
    curls = [exterior_derivative(flat) for flat in flats]
    table: dict[tuple[int, int], DiffForm] = {}
    for i, R in enumerate(basis):
        for j, curl in enumerate(curls):
            table[(i, j)] = _mod_flat_representative(S, interior_product(R, curl), span)
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
    hamiltonian_subbundle_check(S, h).require(DomainError, "h is not a Hamiltonian form")
    for W, label in ((R, "R"), (v, "v")):
        if W.degree != 1:
            raise DegreeError(f"{label} must be a vector field")
        if not interior_product(W, S.dtheta).is_zero():
            raise DomainError(f"{label} is not a Reeb direction (it does not annihilate dTheta)")
    raw = lie_derivative(R, interior_product(v, h)) - interior_product(
        v, exterior_derivative(interior_product(R, h))
    )
    return _mod_flat_representative(S, raw, _flat_map(S)[2])
