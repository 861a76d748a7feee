"""Sharp/Reeb calculus: decomposing forms against Θ and dΘ.

On a structure with n-form Θ, the membership space 𝒵ⁿ collects the n-forms
α admitting a decomposition

    α = ι_X dΘ + γ·Θ,        ι_X Θ = 0,

with a 1-vector X and a scalar γ; on multicontact structures the pair is
unique, and ♯(α) := X, ℛ(α) := γ, so that ι_{♯(α)}dΘ = α − ℛ(α)·Θ.  Lower
spaces arise by contracting: α ∈ 𝒵^a iff α = ι_u α_n for some α_n ∈ 𝒵ⁿ and
u of degree n−a.  The graded sharp ♯_a(ι_u α_n) = ♯(α_n) ∧ u is well
defined only as a class modulo K_{n+1−a} = ker Θ ∩ ker dΘ, which is what
QuotientMultiVector represents.  (Solving ι_W dΘ ≡ α directly for a
degree-(n+1−a) W would not cut it: W can absorb non-kernel ambiguity, e.g.
a wedge A with ι_A dΘ = −ι_B Θ for some B, so only representatives built
from an explicit decomposition carry a well-defined class.)

The payoff is a bracket formula that consumes forms instead of their
witness fields: for conformal data of degrees (p, q) on a degree-n
structure,

    {α, β} = (−1)^q d(α∨β) + (−1)^{(p−1)q} ι_{♯_{n+1−p}(dα)} dβ
             + (−1)^{q+1} ι_{V_β} α − (−1)^{(p−1)q} ι_{V_α} β,

where V_α = −γ·u is read off a decomposition dα = ι_u(ι_X dΘ + γ·Θ).  Both
the sharp term and the V terms are insensitive to every choice involved
(K contractions annihilate membership forms, and kerΘ contractions
annihilate the Hamiltonian forms −ι_XΘ), so bracket_via_sharp evaluates
the right-hand side and asserts exact agreement with the definitional
bracket −ι_{[X_α,X_β]}Θ before returning it.

Membership search is one exact linear solve per candidate u: the constant
basis multivectors are tried in index order, after an optional
caller-supplied hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coeffring import Coefficient
from .errors import DegreeError, DomainError, StructuralError, ValidationError
from .exterior import DiffForm, MultiVector, exterior_derivative, interior_product, wedge
from .linalg import reduce_mod_span
from .structures import (
    ConformalData,
    NFormStructure,
    _basis_multivector,
    _index_tuples,
    jacobi_bracket,
    solve_by_contraction,
)

__all__ = [
    "ZDecomposition",
    "QuotientMultiVector",
    "z_membership",
    "sharp_and_reeb",
    "sharp_graded",
    "bracket_via_sharp",
]


@dataclass(frozen=True)
class ZDecomposition:
    """A witnessed membership α = ι_u(ι_X dΘ + γ·Θ) with ι_X Θ = 0.

    For degree-n input, u is the constant 1 and the decomposition is
    α = ι_X dΘ + γ·Θ itself; `unique` records whether the linear system
    pinning (X, γ) had a trivial nullspace.
    """

    structure: NFormStructure
    source: DiffForm
    u_part: MultiVector
    x_part: MultiVector
    gamma: Coefficient
    unique: bool

    @property
    def n_form(self) -> DiffForm:
        """The degree-n member ι_{x_part}dΘ + γ·Θ the source contracts from."""
        S = self.structure
        return interior_product(self.x_part, S.dtheta) + S.theta.scale(self.gamma)

    def verify(self) -> "ZDecomposition":
        side = interior_product(self.x_part, self.structure.theta)
        if not side.is_zero():
            raise ValidationError(
                "decomposition vector fails to annihilate theta", residuals={"iota_x_theta": str(side)}
            )
        residual = interior_product(self.u_part, self.n_form) - self.source
        if not residual.is_zero():
            raise ValidationError(
                "decomposition does not reproduce the source form", residuals={"difference": str(residual)}
            )
        return self


class QuotientMultiVector:
    """A multivector considered modulo the span of a fixed K_p basis.

    Equality is a normal-form comparison: the coordinate vector of the
    representative is reduced against the modulus by exact elimination
    (with the fixed pivot order of the basis), so two classes agree iff
    their reductions match entry for entry.  The stored representative
    keeps its original ring coefficients for use in contractions.
    """

    def __init__(self, representative: MultiVector, modulus: Sequence[MultiVector]):
        for u in modulus:
            if u.chart != representative.chart or u.degree != representative.degree:
                raise StructuralError("modulus entries must match the representative's chart and degree")
        self.representative = representative
        self.modulus = tuple(modulus)
        chart = representative.chart
        keys = _index_tuples(chart, representative.degree)
        zero = Coefficient.zero(chart)
        basis_rows = [[u.terms.get(J, zero) for J in keys] for u in self.modulus]
        vector = [representative.terms.get(J, zero) for J in keys]
        self._normal = reduce_mod_span(vector, basis_rows, chart)

    @property
    def chart(self):
        return self.representative.chart

    @property
    def degree(self) -> int:
        return self.representative.degree

    def is_zero(self) -> bool:
        return all(entry.is_zero() for entry in self._normal)

    def __eq__(self, other):
        if not isinstance(other, QuotientMultiVector):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.modulus == other.modulus
            and self._normal == other._normal
        )

    __hash__ = None

    def __str__(self):
        return f"{self.representative} (mod K_{self.degree})"

    def __repr__(self):
        return f"QuotientMultiVector({self.representative!r}, modulus of {len(self.modulus)})"


def _decomposition_solution(S: NFormStructure, alpha: DiffForm, u: MultiVector):
    """Solve α = ι_u(ι_X dΘ + γ·Θ), ι_X Θ = 0 for the unknowns (X, γ):
    the components of X in coordinate order, then γ."""
    columns = []
    for j in range(S.chart.dimension):
        ej = _basis_multivector(S.chart, (j,))
        columns.append((interior_product(u, interior_product(ej, S.dtheta)), interior_product(ej, S.theta)))
    side = DiffForm.zero(S.chart, S.degree - 1)
    columns.append((interior_product(u, S.theta), side))
    return solve_by_contraction(columns, [alpha, side])


def _decompositions(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None, limit: int) -> list[ZDecomposition]:
    a = alpha.degree
    n = S.degree
    if not 1 <= a <= n:
        raise DegreeError(f"membership is defined for degrees 1..{n}, got {a}")
    candidates: list[MultiVector] = []
    if hint is not None:
        if hint.degree != n - a:
            raise DegreeError(f"a degree-{a} form needs a degree-{n - a} contraction hint, got {hint.degree}")
        candidates.append(hint)
    for J in _index_tuples(S.chart, n - a):
        u = _basis_multivector(S.chart, J)
        if not any(u == c for c in candidates):
            candidates.append(u)
    found: list[ZDecomposition] = []
    for u in candidates:
        solved = _decomposition_solution(S, alpha, u)
        if solved is None:
            continue
        values, unique = solved
        x = MultiVector(S.chart, 1, {(j,): values[j] for j in range(S.chart.dimension)})
        dec = ZDecomposition(S, alpha, u, x, values[-1], unique=unique)
        found.append(dec.verify())
        if len(found) >= limit:
            break
    return found


def z_membership(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None = None) -> ZDecomposition | None:
    """First decomposition witnessing membership of α, or None.

    Degree-n forms need no contraction (u = 1); lower degrees search the
    constant basis multivectors for u, trying `hint` first.
    """
    found = _decompositions(S, alpha, hint, limit=1)
    return found[0] if found else None


def sharp_and_reeb(S: NFormStructure, alpha: DiffForm) -> tuple[MultiVector, Coefficient]:
    """The unique (X, γ) with α = ι_X dΘ + γ·Θ and ι_X Θ = 0."""
    if alpha.degree != S.degree:
        raise DegreeError(f"sharp acts on degree-{S.degree} forms here, got degree {alpha.degree}")
    dec = z_membership(S, alpha)
    if dec is None:
        raise DomainError("the form does not decompose against d theta and theta")
    if not dec.unique:
        raise DomainError("the decomposition is not unique; the structure is too degenerate for sharp")
    return dec.x_part, dec.gamma


def _graded_class(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None) -> tuple[QuotientMultiVector, ZDecomposition]:
    decs = _decompositions(S, alpha, hint, limit=2)
    if not decs:
        raise DomainError(f"the degree-{alpha.degree} form is not a contraction of a decomposable member")
    modulus = S.kernel(S.degree + 1 - alpha.degree, "both")
    classes = [QuotientMultiVector(wedge(d.x_part, d.u_part), modulus) for d in decs]
    if len(classes) == 2 and classes[0] != classes[1]:
        raise ValidationError(
            "graded sharp depends on the decomposition",
            residuals={"first": str(classes[0]), "second": str(classes[1])},
        )
    return classes[0], decs[0]


def sharp_graded(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None = None) -> QuotientMultiVector:
    """Class of ♯(α_n) ∧ u modulo K for any decomposition α = ι_u α_n.

    When a second decomposition exists, it is recomputed and the two
    classes are asserted equal, so representative independence is a
    checked claim on every call that can check it.
    """
    return _graded_class(S, alpha, hint)[0]


def bracket_via_sharp(
    a: ConformalData,
    b: ConformalData,
    *,
    hint_a: MultiVector | None = None,
    hint_b: MultiVector | None = None,
) -> DiffForm:
    """The bracket evaluated through sharp/Reeb decompositions of dα, dβ,
    asserted exactly equal to the definitional bracket −ι_{[X_α,X_β]}Θ.

    For degree-1 data the differentials sit at top degree and decompose
    directly; for higher degrees the decomposition search may need a
    contraction hint (any u with dα = ι_u α_n works — the formula is
    insensitive to the choice).
    """
    if a.structure is not b.structure:
        raise StructuralError("conformal data on different structures")
    S = a.structure
    p, q = a.degree, b.degree
    sharp_da, dec_a = _graded_class(S, exterior_derivative(a.alpha), hint_a)
    dec_b = z_membership(S, exterior_derivative(b.alpha), hint_b)
    if dec_b is None:
        raise DomainError("the second form's differential lies outside the membership space")
    v_alpha = dec_a.u_part.scale(-dec_a.gamma)
    v_beta = dec_b.u_part.scale(-dec_b.gamma)
    vee = -interior_product(wedge(a.x_field, b.x_field), S.theta, strict=False)
    dbeta = exterior_derivative(b.alpha)
    total = (
        exterior_derivative(vee).scale((-1) ** q)
        + interior_product(sharp_da.representative, dbeta, strict=False).scale((-1) ** ((p - 1) * q))
        + interior_product(v_beta, a.alpha, strict=False).scale((-1) ** (q + 1))
        - interior_product(v_alpha, b.alpha, strict=False).scale((-1) ** ((p - 1) * q))
    )
    definitional = jacobi_bracket(a, b).alpha
    residual = total - definitional
    if not residual.is_zero():
        raise ValidationError(
            "sharp-form bracket disagrees with the definitional bracket",
            residuals={"difference": str(residual)},
        )
    return definitional
