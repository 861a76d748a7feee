"""Sharp/Reeb calculus: decomposing top-degree forms against Θ and dΘ.

On a structure with n-form Θ, the membership space 𝒵ⁿ collects the n-forms
α admitting a decomposition

    α = ι_X dΘ + γ·Θ,        ι_X Θ = 0,

with a 1-vector X and a scalar γ; on multicontact structures the pair is
unique, and ♯(α) := X, ℛ(α) := γ, so that ι_{♯(α)}dΘ = α − ℛ(α)·Θ.

Membership is one exact linear solve for the unknowns (X, γ): the
columns ι_{∂_j} of dΘ and Θ, read off their terms, carry the components
of X, and the column (Θ, 0) carries γ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import Coefficient
from .errors import DegreeError, DomainError, ValidationError
from .exterior import DiffForm, MultiVector, interior_product
from .structures import NFormStructure, _contraction_columns, solve_by_contraction

__all__ = [
    "ZDecomposition",
    "z_membership",
    "sharp_and_reeb",
]


@dataclass(frozen=True)
class ZDecomposition:
    """A witnessed membership α = ι_X dΘ + γ·Θ with ι_X Θ = 0; `unique`
    records whether the linear system pinning (X, γ) had a trivial kernel.
    """

    structure: NFormStructure
    source: DiffForm
    x_part: MultiVector
    gamma: Coefficient
    unique: bool

    def verify(self) -> "ZDecomposition":
        S = self.structure
        side = interior_product(self.x_part, S.theta)
        if not side.is_zero():
            raise ValidationError(
                "decomposition vector fails to annihilate theta", residuals={"iota_x_theta": str(side)}
            )
        residual = interior_product(self.x_part, S.dtheta) + S.theta.scale(self.gamma) - self.source
        if not residual.is_zero():
            raise ValidationError(
                "decomposition does not reproduce the source form", residuals={"difference": str(residual)}
            )
        return self


def z_membership(S: NFormStructure, alpha: DiffForm) -> ZDecomposition | None:
    """The decomposition witnessing membership of the degree-n form α, or None.

    One solve: the unknowns are the components of X in coordinate order,
    keyed by index tuple, with the columns ``_contraction_columns([dΘ, Θ], 1)``,
    then γ, keyed "gamma", with the column (Θ, 0).
    """
    if alpha.degree != S.degree:
        raise DegreeError(f"membership is defined for degree-{S.degree} forms here, got degree {alpha.degree}")
    columns = _contraction_columns([S.dtheta, S.theta], 1)
    side = DiffForm.zero(S.chart, S.degree - 1)
    columns["gamma"] = (S.theta, side)
    solved = solve_by_contraction(columns, [[alpha, side]], S.chart.dimension + 1)[0]
    if solved is None:
        return None
    values, unique = solved
    gamma = values.pop("gamma", Coefficient.zero(S.chart))
    return ZDecomposition(S, alpha, MultiVector(S.chart, 1, values), gamma, unique=unique).verify()


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
