"""n-form structures, kernels, and conformal Hamiltonian data.

An NFormStructure is a chart with a distinguished n-form Θ.  The layer
computes kernel bases ker_p Θ, ker_p dΘ and K_p = ker_pΘ ∩ ker_p dΘ,
decides the multicontact property (K₁ = 0 and ker₁dΘ ≠ 0), and works
with conformal data (α, X, V) characterized by

    ι_X Θ = −α,    ι_X dΘ = (−1)^{p+1} (dα + ι_V Θ),

equivalently 𝓛_X Θ = ι_V Θ.  CheckReport is the one verdict: is_multicontact,
nondegeneracy_check, hamiltonian_subbundle_check, good_hamiltonian_check,
variational_check and dissipated_check return it, and report.require(Error,
what) raises Error(f"{what}: {details}") if it fails.  Brackets operate on
verified triples: the graded Jacobi bracket of (α, X_α, V_α) and (β, X_β, V_β) is

    {α, β} = −ι_{[X_α, X_β]} Θ

with witnesses [X_α, X_β] and [X_α, V_β] − (−1)^{(p−1)(q−1)} [X_β, V_α];
the cup product is α∨β = −ι_{X_α∧X_β}Θ = ι_{X_β}α.  Every constructor
checks each equation of its output that does not hold by construction, so
identities downstream are checked claims, not assumptions.
make_conformal_data takes α from its caller and checks both equations.
The bracket, the cup product, and fieldtheory's Table 1 rows and
vertical (F, G) data build through the private _contracted_data, and
``conformal make`` and verify_conformal through _witnessed_data, which
solves for the witness; both compute α = −ι_XΘ, so only the conformal
equation is checked.  It is written once (_conformal_residual), from
ι_X dΘ and dα, which the solve reads too, so each is formed once per
call.  A field X with no terms, which most brackets of the elementary
tables give, contracts nothing: _contracted_data takes α, ι_X dΘ and dα
as the empty forms of their degrees, and the conformal residual of an
empty V is then the empty form, so the zero pair (X, V) = (0, 0) is the
empty α of degree n − p, checked through _checked_data like any other.
Each value has one spelling:
make_conformal_data refuses an α whose degree is not n − p, zero or not,
and only where outside input enters (the command-line operands and the
interchange reader of dsl) is an untyped zero α typed at n − p.

Linear problems see a form or multivector in one coordinate format, its
own terms, a map from index tuple to Coefficient: that is a row or vector
of linalg.rref, and its solutions and kernel vectors come back as such
maps.  Every contraction system is built one way: _contraction_columns
reads the contractions ι_{∂_J}ω of every equation form ω off ω's terms,
for the index tuples J some term touches, and _stacked_rows lays them out
as map rows, one per index tuple some column touches, so no row is zero.
Any other J is a free unknown, counted (math.comb) and never listed.
A kernel is computed one way, for every structure: NFormStructure.kernel
reads it off the kernel of that system's elimination on first read,
re-checks each vector by contraction and caches the basis.
solve_by_contraction carries right-hand sides under their own keys and
reads every solution from one elimination, and sharp's membership
solve reads the same system.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .coeffring import Chart, Coefficient
from .errors import DegreeError, DomainError, StructuralError, ValidationError
from .exterior import (
    DiffForm,
    MultiVector,
    _contract_key,
    exterior_derivative,
    interior_product,
    schouten_nijenhuis,
    wedge,
)
from .linalg import rref

__all__ = [
    "CheckReport",
    "NFormStructure",
    "ConformalData",
    "is_multicontact",
    "verify_conformal",
    "make_conformal_data",
    "jacobi_bracket",
    "cup_product",
]


@dataclass(frozen=True)
class CheckReport:
    """The package's one verdict: the outcome of a check, with evidence."""

    ok: bool
    witness: object | None = None
    details: str = ""

    def __bool__(self):
        return self.ok

    def require(self, error: type[Exception], what: str) -> "CheckReport":
        """This report if it holds; else raise ``error(f"{what}: {details}")``."""
        if self.ok:
            return self
        raise error(f"{what}: {self.details}")


@functools.lru_cache(maxsize=64)
def _all_index_tuples(chart: Chart, p: int) -> tuple[tuple[int, ...], ...]:
    """The keys of the degree-p terms on the chart, in lexicographic order
    (none for negative p); cached, since every kernel lists them."""
    return tuple(itertools.combinations(range(chart.dimension), p)) if p >= 0 else ()


def _contraction_columns(forms: Sequence[DiffForm], p: int) -> dict[tuple[int, ...], tuple[DiffForm, ...]]:
    """For every degree-p index tuple J some term of ``forms`` touches, in
    lexicographic order, the forms ι_{∂_J}ω for each ω of ``forms``, read
    off ω's terms: c·dx^I gives ±c·dx^{I∖J} to every J ⊆ I, and J and I∖J
    determine I, so no two add.  Every other ∂_J contracts each ω to zero."""
    chart = forms[0].chart
    columns: dict[tuple[int, ...], list[dict]] = {}
    for e, omega in enumerate(forms):
        for I, c in omega.terms.items():
            for J in itertools.combinations(I, p):
                sign, rest = _contract_key(J, I)
                columns.setdefault(J, [{} for _ in forms])[e][rest] = c if sign > 0 else -c
    # trusted: each key is what _contract_key leaves of a key of ω, each value ±c ≠ 0
    return {J: tuple(DiffForm._trusted(chart, f.degree - p, t) for f, t in zip(forms, columns[J])) for J in sorted(columns)}


def _stacked_rows(columns: Mapping[Hashable, Sequence[DiffForm]], degrees: Sequence[int]) -> list[dict]:
    """The matrix of Σ_k c_k·columns[k][e] as map rows keyed by column key:
    for each equation e in turn, one row per index tuple some column
    touches, in lexicographic order, so no row is zero and elimination is
    reproducible."""
    rows = []
    for e, degree in enumerate(degrees):
        by_tuple: dict[tuple[int, ...], dict[Hashable, Coefficient]] = {}
        for k, column in columns.items():
            f = column[e]
            if f.degree != degree:
                raise DegreeError(f"a degree-{f.degree} form among degree-{degree} columns")
            for I, c in f.terms.items():
                by_tuple.setdefault(I, {})[k] = c
        rows += (by_tuple[I] for I in sorted(by_tuple))
    return rows


def solve_by_contraction(
    columns: Mapping[Hashable, Sequence[DiffForm]], rhs: Sequence[Sequence[DiffForm]], size: int
) -> list[tuple[dict[Hashable, Coefficient], bool] | None]:
    """For each right-hand side b of ``rhs`` (one target form per equation,
    shaped like a column), ring coefficients c with Σ_k c_k·columns[k][e] =
    b[e] for every equation e, as a map from column key (never an int: the
    j-th b is carried under key j) to nonzero value, and whether they are
    unique among all ``size`` unknowns, the ones with no column included;
    None when that system is inconsistent or its solution leaves the
    Laurent ring.  One elimination serves every right-hand side."""
    rows = _stacked_rows({**columns, **dict(enumerate(rhs))}, [t.degree for t in rhs[0]])
    result = rref(rows, rhs[0][0].chart, unknowns=list(columns))
    solved: list[tuple[dict, bool] | None] = []
    for j in range(len(rhs)):
        try:
            solved.append((result.solution(j), result.rank == size))
        except DomainError:
            solved.append(None)
    return solved


class NFormStructure:
    """A chart together with a fixed n-form Θ (and cached dΘ, kernels)."""

    def __init__(self, chart: Chart, theta: DiffForm):
        if theta.chart != chart:
            raise StructuralError("theta does not live on the given chart")
        if theta.degree < 1:
            raise DegreeError("theta must have degree at least 1")
        self.chart = chart
        self.theta = theta
        self.dtheta = exterior_derivative(theta)
        self._kernels: dict[tuple[int, str], list[MultiVector]] = {}
        self._flat_map = None  # fieldtheory's eliminated flat images of the Reeb directions, on first read

    @property
    def degree(self) -> int:
        return self.theta.degree

    def _targets(self, which: str) -> list[DiffForm]:
        """The forms a kernel of the given target must annihilate."""
        targets = {"theta": [self.theta], "dtheta": [self.dtheta], "both": [self.theta, self.dtheta]}
        if which not in targets:
            raise StructuralError(f"unknown kernel target {which!r}")
        return targets[which]

    def kernel(self, p: int, which: str = "theta") -> list[MultiVector]:
        """Generating set of ker_p Θ, ker_p dΘ, or (``"both"``) their intersection."""
        targets = self._targets(which)
        if (p, which) not in self._kernels:
            self._kernels[(p, which)] = self._compute_kernel(p, targets)
        return self._kernels[(p, which)]

    def _compute_kernel(self, p: int, targets: Sequence[DiffForm]) -> list[MultiVector]:
        """A basis of the degree-p multivectors annihilating every target."""
        if p < 1 or p > self.chart.dimension:
            raise DegreeError(f"kernel degree {p} out of range")
        rows = _stacked_rows(_contraction_columns(targets, p), [t.degree - p for t in targets])
        result = rref(rows, self.chart, unknowns=_all_index_tuples(self.chart, p))
        out = [MultiVector(self.chart, p, vec) for vec in result.kernel]
        # kernels must re-verify by contraction; elimination bugs die here
        for u in out:
            for t in targets:
                if not interior_product(u, t).is_zero():
                    raise ValidationError(f"kernel candidate {u} fails to annihilate the target")
        return out

    def __repr__(self):
        return f"NFormStructure(n={self.degree}, theta={self.theta!s})"


def is_multicontact(S: NFormStructure) -> CheckReport:
    """K₁ = ker₁Θ ∩ ker₁dΘ = 0 together with ker₁dΘ ≠ 0."""
    intersection = S.kernel(1, "both")
    if intersection:
        return CheckReport(False, witness=intersection[0], details="ker1(theta) meets ker1(d theta)")
    reeb_directions = S.kernel(1, "dtheta")
    if not reeb_directions:
        return CheckReport(False, witness=None, details="ker1(d theta) is zero")
    return CheckReport(True, witness=reeb_directions[0], details="")


@dataclass(frozen=True)
class ConformalData:
    """A conformal Hamiltonian triple (α, X, V) on a structure.

    alpha has degree n−p (a negative degree, whose only form is zero, when
    p > n), x_field degree p, v_field degree p−1.  Use make_conformal_data
    to construct with validation; ``residuals`` gives both equations'
    residuals, the conformal one by the same function that checks the
    bracket path's results.
    """

    structure: NFormStructure
    alpha: DiffForm
    x_field: MultiVector
    v_field: MultiVector

    @property
    def degree(self) -> int:
        return self.x_field.degree

    def residuals(self) -> dict[str, DiffForm]:
        S, X = self.structure, self.x_field
        eq1 = interior_product(X, S.theta) + self.alpha
        iota_dtheta, dalpha = interior_product(X, S.dtheta), exterior_derivative(self.alpha)
        return {"defining": eq1, "conformal": _conformal_residual(S, X.degree, iota_dtheta, dalpha, self.v_field)}

    def validate(self) -> "ConformalData":
        bad = {k: str(v) for k, v in self.residuals().items() if not v.is_zero()}
        if bad:
            raise ValidationError("conformal data fails its defining equations", residuals=bad)
        return self

    def __add__(self, other: "ConformalData") -> "ConformalData":
        if self.structure is not other.structure:
            raise StructuralError("conformal data on different structures")
        return make_conformal_data(
            self.structure,
            self.alpha + other.alpha,
            self.x_field + other.x_field,
            self.v_field + other.v_field,
        )

    def scale(self, factor) -> "ConformalData":
        return make_conformal_data(
            self.structure,
            self.alpha.scale(factor),
            self.x_field.scale(factor),
            self.v_field.scale(factor),
        )


def _as_witness(chart: Chart, v, degree: int) -> MultiVector:
    if isinstance(v, (int, Fraction)):
        v = Coefficient.constant(chart, v)
    if isinstance(v, MultiVector):
        return v
    if isinstance(v, Coefficient):
        if degree != 0:
            raise DegreeError(f"scalar witness supplied where degree {degree} is needed")
        return MultiVector.from_scalar(v)
    raise StructuralError(f"cannot read {type(v).__name__} as a witness multivector")


def _conformal_residual(S: NFormStructure, p: int, iota_dtheta: DiffForm, dalpha: DiffForm, v_field) -> DiffForm:
    """ι_X dΘ − (−1)^{p+1} (dα + ι_V Θ) for a degree-p X, zero exactly when
    the conformal equation holds; the one spelling of that equation.  When
    V, ι_X dΘ and dα have no terms it is the empty ``iota_dtheta``, and
    nothing is contracted."""
    if not (v_field.terms or iota_dtheta.terms or dalpha.terms):
        return iota_dtheta
    return iota_dtheta - (dalpha + interior_product(v_field, S.theta)).scale((-1) ** (p + 1))


def _checked_data(
    S: NFormStructure, alpha: DiffForm, x_field: MultiVector, v_field: MultiVector, iota_dtheta: DiffForm, dalpha: DiffForm
) -> ConformalData:
    """(α, X, V) with α = −ι_XΘ, checked against the conformal equation
    only; a ValidationError carries its nonzero residual."""
    residual = _conformal_residual(S, x_field.degree, iota_dtheta, dalpha, v_field)
    if not residual.is_zero():
        raise ValidationError("conformal data fails its defining equations", residuals={"conformal": str(residual)})
    return ConformalData(S, alpha, x_field, v_field)


def _contracted_data(S: NFormStructure, x_field: MultiVector, v_field: MultiVector) -> ConformalData:
    """Conformal data of a degree ≥ 1 field X and a degree-(p − 1) witness
    V with α = −ι_XΘ computed here, so the defining equation holds by
    construction and only the conformal equation is checked.  An X with
    no terms contracts nothing: α, ι_X dΘ and dα are the empty forms of
    their degrees, so the zero pair (X and V both empty) has the empty α
    of degree n − p and forms no product at all."""
    if x_field.terms:
        alpha = -interior_product(x_field, S.theta)
        iota_dtheta, dalpha = interior_product(x_field, S.dtheta), exterior_derivative(alpha)
    else:
        alpha = DiffForm.zero(S.chart, S.degree - x_field.degree)
        iota_dtheta = dalpha = DiffForm.zero(S.chart, alpha.degree + 1)
    return _checked_data(S, alpha, x_field, v_field, iota_dtheta, dalpha)


def _witnessed_data(S: NFormStructure, x_field: MultiVector) -> ConformalData | None:
    """Conformal data of a degree ≥ 1 field X with α = −ι_XΘ and the
    witness V solved from 𝓛_XΘ = −dα − (−1)^p ι_X dΘ = ι_VΘ; None when X
    is not an infinitesimal conformal transformation."""
    p = x_field.degree
    if p < 1:
        raise DegreeError("conformal candidates must have degree at least 1")
    alpha = -interior_product(x_field, S.theta)
    iota_dtheta, dalpha = interior_product(x_field, S.dtheta), exterior_derivative(alpha)
    lie = -(dalpha + iota_dtheta.scale((-1) ** p))
    columns = _contraction_columns([S.theta], p - 1)
    (solved,) = solve_by_contraction(columns, [[lie]], math.comb(S.chart.dimension, p - 1))
    if solved is None:
        return None
    return _checked_data(S, alpha, x_field, MultiVector(S.chart, p - 1, solved[0]), iota_dtheta, dalpha)


def make_conformal_data(S: NFormStructure, alpha: DiffForm, x_field: MultiVector, v_field) -> ConformalData:
    """Package and validate a conformal triple whose α comes from outside:
    both the defining and the conformal equation are checked, and a
    ValidationError carries each nonzero residual.  Alpha must have degree
    n − p, a zero alpha too."""
    if x_field.degree < 1:
        raise DegreeError("the conformal multivector must have degree at least 1")
    v = _as_witness(S.chart, v_field, x_field.degree - 1)
    degree = S.degree - x_field.degree
    if alpha.degree != degree:
        raise DegreeError(f"alpha must have degree n - p = {degree}, got degree {alpha.degree}")
    data = ConformalData(S, alpha, x_field, v)
    return data.validate()


def verify_conformal(S: NFormStructure, X: MultiVector) -> MultiVector | None:
    """Solve 𝓛_X Θ = ι_V Θ for a witness V of degree p−1; None when X is
    not an infinitesimal conformal transformation."""
    data = _witnessed_data(S, X)
    return None if data is None else data.v_field


def jacobi_bracket(a: ConformalData, b: ConformalData) -> ConformalData:
    """Graded Jacobi bracket of two conformal triples; the result's α is
    −ι_XΘ of its field X, and the result is checked against the conformal
    equation."""
    if a.structure is not b.structure:
        raise StructuralError("conformal data on different structures")
    S = a.structure
    p, q = a.degree, b.degree
    x = schouten_nijenhuis(a.x_field, b.x_field)
    sign = (-1) ** ((p - 1) * (q - 1))
    v = schouten_nijenhuis(a.x_field, b.v_field) - schouten_nijenhuis(b.x_field, a.v_field).scale(sign)
    return _contracted_data(S, x, v)


def cup_product(a: ConformalData, b: ConformalData) -> ConformalData:
    """Cup product α∨β = −ι_{X_α∧X_β}Θ with a constructed witness.

    The closed-form witness is checked against the conformal equation, so
    a wrong formula raises ValidationError, and the three equivalent
    contraction expressions of α∨β are asserted against each other.
    """
    if a.structure is not b.structure:
        raise StructuralError("conformal data on different structures")
    S = a.structure
    p, q = a.degree, b.degree
    x = wedge(a.x_field, b.x_field)
    v = (
        (schouten_nijenhuis(b.x_field, a.x_field) + wedge(b.v_field, a.x_field)).scale(
            (-1) ** (p * (q - 1))
        )
        + wedge(a.v_field, b.x_field).scale((-1) ** q)
    )
    data = _contracted_data(S, x, v)
    form = data.alpha
    via_b = interior_product(b.x_field, a.alpha)
    via_a = interior_product(a.x_field, b.alpha).scale((-1) ** (p * q))
    if not (form == via_b == via_a):
        raise ValidationError(
            "cup product contraction expressions disagree",
            residuals={"minus_pair_contraction": str(form), "via_b": str(via_b), "via_a": str(via_a)},
        )
    return data

