"""n-form structures, kernels, and conformal Hamiltonian data.

An NFormStructure is a chart with a distinguished n-form Θ.  The layer
computes kernel bases ker_p Θ, ker_p dΘ and K_p = ker_pΘ ∩ ker_p dΘ by
exact elimination, decides the multicontact property (K₁ = 0 and
ker₁dΘ ≠ 0), and works with conformal data (α, X, V) characterized by

    ι_X Θ = −α,    ι_X dΘ = (−1)^{p+1} (dα + ι_V Θ),

equivalently 𝓛_X Θ = ι_V Θ.  Brackets operate on verified triples: the
graded Jacobi bracket of (α, X_α, V_α) and (β, X_β, V_β) is

    {α, β} = −ι_{[X_α, X_β]} Θ

with witnesses [X_α, X_β] and [X_α, V_β] − (−1)^{(p−1)(q−1)} [X_β, V_α];
the cup product is α∨β = −ι_{X_α∧X_β}Θ = ι_{X_β}α.  Every constructor
re-validates its output, so identities downstream are checked claims, not
assumptions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coeffring import Chart, Coefficient
from .errors import DegreeError, DomainError, StructuralError, ValidationError
from .exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    schouten_nijenhuis,
    wedge,
)
from .linalg import nullspace, solve_affine

__all__ = [
    "CheckReport",
    "NFormStructure",
    "ConformalData",
    "kernel_basis",
    "is_multicontact",
    "verify_conformal",
    "make_conformal_data",
    "jacobi_bracket",
    "cup_product",
    "ms_hamiltonian_pair",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural check, with evidence."""

    ok: bool
    witness: object | None = None
    details: str = ""

    def __bool__(self):
        return self.ok


def _index_tuples(chart: Chart, p: int) -> list[tuple[int, ...]]:
    if p < 0:
        return []
    return list(itertools.combinations(range(chart.dimension), p))


def _basis_multivector(chart: Chart, key: tuple[int, ...]) -> MultiVector:
    return MultiVector(chart, len(key), {key: Coefficient.one(chart)})


def _contraction_columns(omega: DiffForm, p: int) -> tuple[list[tuple[int, ...]], list[DiffForm]]:
    """For every degree-p basis multivector ∂_J, the form ι_{∂_J}ω."""
    keys = _index_tuples(omega.chart, p)
    return keys, [interior_product(_basis_multivector(omega.chart, J), omega, strict=False) for J in keys]


def _forms_to_matrix(forms: Sequence[DiffForm], degree: int, chart: Chart) -> list[list[Coefficient]]:
    """Rows = coefficients of each degree-`degree` index tuple, columns =
    the given forms; fixed row order makes elimination reproducible."""
    for f in forms:
        if f.degree != degree:
            raise DegreeError(f"a degree-{f.degree} form among degree-{degree} columns")
    rows = []
    for I in _index_tuples(chart, degree):
        rows.append([f.terms.get(I, Coefficient.zero(chart)) for f in forms])
    return rows


def solve_by_contraction(
    columns: Sequence[Sequence[DiffForm]], targets: Sequence[DiffForm]
) -> tuple[list[Coefficient], bool] | None:
    """Ring coefficients c with Σ_k c_k·columns[k][e] = targets[e] for every
    equation e, and whether they are unique; None when the stacked system
    is inconsistent or its solution leaves the Laurent ring."""
    chart = targets[0].chart
    zero = Coefficient.zero(chart)
    rows: list[list[Coefficient]] = []
    rhs: list[Coefficient] = []
    for e, target in enumerate(targets):
        rows += _forms_to_matrix([column[e] for column in columns], target.degree, chart)
        rhs += [target.terms.get(I, zero) for I in _index_tuples(chart, target.degree)]
    if not rows:
        # every equation sits in a zero space: one zero row keeps the
        # column count, so every unknown stays free
        rows, rhs = [[zero] * len(columns)], [zero]
    solution = solve_affine(rows, rhs, chart)
    if solution.particular is None:
        return None
    try:
        values = solution.coefficient_solution()
    except DomainError:
        return None
    return values, not solution.homogeneous


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

    @property
    def degree(self) -> int:
        return self.theta.degree

    def kernel(self, p: int, which: str = "theta") -> list[MultiVector]:
        if which not in {"theta", "dtheta", "both"}:
            raise StructuralError(f"unknown kernel target {which!r}")
        if (p, which) not in self._kernels:
            self._kernels[(p, which)] = self._compute_kernel(p, which)
        return self._kernels[(p, which)]

    def _compute_kernel(self, p: int, which: str) -> list[MultiVector]:
        if p < 1 or p > self.chart.dimension:
            raise DegreeError(f"kernel degree {p} out of range")
        keys = _index_tuples(self.chart, p)
        rows: list[list[Coefficient]] = []
        if which in {"theta", "both"}:
            _, cols = _contraction_columns(self.theta, p)
            rows += _forms_to_matrix(cols, self.degree - p, self.chart)
        if which in {"dtheta", "both"}:
            _, cols = _contraction_columns(self.dtheta, p)
            rows += _forms_to_matrix(cols, self.degree + 1 - p, self.chart)
        # above the top degree there are no rows; one zero row keeps the
        # column count, so every key is free
        vectors = nullspace(rows or [[Coefficient.zero(self.chart)] * len(keys)], self.chart)
        out = []
        for vec in vectors:
            terms = {J: c for J, c in zip(keys, vec) if not c.is_zero()}
            out.append(MultiVector(self.chart, p, terms))
        # kernels must re-verify by contraction; elimination bugs die here
        target = {"theta": [self.theta], "dtheta": [self.dtheta], "both": [self.theta, self.dtheta]}
        for u in out:
            for t in target[which]:
                if not interior_product(u, t, strict=False).is_zero():
                    raise ValidationError(f"kernel candidate {u} fails to annihilate the target")
        return out

    def __repr__(self):
        return f"NFormStructure(n={self.degree}, theta={self.theta!s})"


def kernel_basis(S: NFormStructure, p: int, which: str = "theta") -> list[MultiVector]:
    """Generating set of ker_p Θ, ker_p dΘ, or their intersection."""
    return S.kernel(p, which)


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
    to construct with validation.
    """

    structure: NFormStructure
    alpha: DiffForm
    x_field: MultiVector
    v_field: MultiVector

    @property
    def degree(self) -> int:
        return self.x_field.degree

    def residuals(self) -> dict[str, DiffForm]:
        S, p = self.structure, self.degree
        eq1 = interior_product(self.x_field, S.theta, strict=False) + self.alpha
        dalpha = exterior_derivative(self.alpha)
        rhs = (dalpha + interior_product(self.v_field, S.theta, strict=False)).scale((-1) ** (p + 1))
        eq2 = interior_product(self.x_field, S.dtheta, strict=False) - rhs
        return {"defining": eq1, "conformal": eq2}

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
    if isinstance(v, MultiVector):
        return v
    if isinstance(v, Coefficient):
        if degree != 0:
            raise DegreeError(f"scalar witness supplied where degree {degree} is needed")
        return MultiVector.from_scalar(v)
    if isinstance(v, (int, Fraction)):
        return MultiVector.from_scalar(Coefficient.constant(chart, v))
    raise StructuralError(f"cannot read {type(v).__name__} as a witness multivector")


def _as_alpha(chart: Chart, alpha: DiffForm, degree: int) -> DiffForm:
    if alpha.degree == degree:
        return alpha
    if not alpha.is_zero():
        raise DegreeError(f"alpha must have degree n - p = {degree}, got degree {alpha.degree}")
    return DiffForm.zero(chart, degree)


def make_conformal_data(S: NFormStructure, alpha: DiffForm, x_field: MultiVector, v_field) -> ConformalData:
    """Package and validate a conformal triple; raises ValidationError with
    the nonzero residual when either defining equation fails.  A zero alpha
    of any degree is read as the zero (n−p)-form."""
    if x_field.degree < 1:
        raise DegreeError("the conformal multivector must have degree at least 1")
    v = _as_witness(S.chart, v_field, x_field.degree - 1)
    alpha = _as_alpha(S.chart, alpha, S.degree - x_field.degree)
    data = ConformalData(S, alpha, x_field, v)
    return data.validate()


def verify_conformal(S: NFormStructure, X: MultiVector) -> MultiVector | None:
    """Solve 𝓛_X Θ = ι_V Θ for a witness V of degree p−1; None when X is
    not an infinitesimal conformal transformation."""
    p = X.degree
    if p < 1:
        raise DegreeError("conformal candidates must have degree at least 1")
    keys, cols = _contraction_columns(S.theta, p - 1)
    solved = solve_by_contraction([(c,) for c in cols], [lie_derivative(X, S.theta)])
    if solved is None:
        return None
    return MultiVector(S.chart, p - 1, dict(zip(keys, solved[0])))


def jacobi_bracket(a: ConformalData, b: ConformalData) -> ConformalData:
    """Graded Jacobi bracket of two conformal triples; the result is again
    validated conformal data."""
    if a.structure is not b.structure:
        raise StructuralError("conformal data on different structures")
    S = a.structure
    p, q = a.degree, b.degree
    x = schouten_nijenhuis(a.x_field, b.x_field)
    form = -interior_product(x, S.theta, strict=False)
    sign = (-1) ** ((p - 1) * (q - 1))
    v = schouten_nijenhuis(a.x_field, b.v_field) - schouten_nijenhuis(b.x_field, a.v_field).scale(sign)
    return make_conformal_data(S, form, x, v)


def cup_product(a: ConformalData, b: ConformalData) -> ConformalData:
    """Cup product α∨β = −ι_{X_α∧X_β}Θ with a constructed witness.

    The three equivalent contraction expressions are asserted against each
    other, and the closed-form witness is validated like any conformal
    data, so a wrong formula raises ValidationError.
    """
    if a.structure is not b.structure:
        raise StructuralError("conformal data on different structures")
    S = a.structure
    p, q = a.degree, b.degree
    x = wedge(a.x_field, b.x_field)
    form = -interior_product(x, S.theta, strict=False)
    via_b = interior_product(b.x_field, a.alpha, strict=False)
    via_a = interior_product(a.x_field, b.alpha, strict=False).scale((-1) ** (p * q))
    if not (form == via_b == via_a):
        raise ValidationError(
            "cup product contraction expressions disagree",
            residuals={"minus_pair_contraction": str(form), "via_b": str(via_b), "via_a": str(via_a)},
        )
    v = (
        (schouten_nijenhuis(b.x_field, a.x_field) + wedge(b.v_field, a.x_field)).scale(
            (-1) ** (p * (q - 1))
        )
        + wedge(a.v_field, b.x_field).scale((-1) ** q)
    )
    return make_conformal_data(S, form, x, v)


def ms_hamiltonian_pair(omega: DiffForm, alpha: DiffForm) -> MultiVector | None:
    """Solve ι_X Ω = dα for X on a closed form Ω; None when inconsistent."""
    if not exterior_derivative(omega).is_zero():
        raise ValidationError(
            "the ambient form is not closed", residuals={"domega": str(exterior_derivative(omega))}
        )
    if alpha.chart != omega.chart:
        raise StructuralError("operands live on different charts")
    target = exterior_derivative(alpha)
    p = omega.degree - target.degree
    if p < 0:
        raise DegreeError(
            f"no multivector degree matches: form degree {alpha.degree} against ambient degree {omega.degree}"
        )
    keys, cols = _contraction_columns(omega, p)
    solved = solve_by_contraction([(c,) for c in cols], [target])
    if solved is None:
        return None
    return MultiVector(omega.chart, p, dict(zip(keys, solved[0])))
