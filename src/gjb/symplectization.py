"""Homogeneous one-fiber extension of an n-form structure.

Appending an invertible fiber coordinate z to the chart of (M, Θ) and
setting Υ = z·Θ, Ω = −dΥ produces a homogeneous structure: the Liouville
field Δ = z∂_z satisfies ι_ΔΩ = −Υ and Δ(z) = z, both re-verified exactly
at construction time.

Conformal pairs (X, V) with 𝓛_XΘ = ι_VΘ lift to the extension as

    X̃ = X^h + (−1)^p Δ∧V^h,

the degree-p multivector with 𝓛_{X̃}Υ = 0 projecting onto X, unique up to
ker_p dΥ.  The horizontal inclusion ^h keeps every coefficient and adds
no ∂_z leg (the flat connection annihilating dz).

Hamiltonian data (α, X, V) maps across through

    Ψ(α) = (−1)^{p+1} z·α,

which is a Hamiltonian form for Ω: ι_W Ω = dΨ(α) holds exactly for
W = −X̃.  (The lift itself contracts to the opposite sign,
ι_{X̃}Ω = −dΨ(α); since witnesses enter the Poisson bracket pairwise the
distinction cancels there, but the per-form Hamiltonian witness is the
negated lift, and that is what ``psi_map`` returns.)

The Poisson bracket of Hamiltonian pairs is
{α̃, β̃}_P = (−1)^{q−1} ι_{X_α̃∧X_β̃}Ω, and the bracket correspondence

    {Ψ(α), Ψ(β)}_P − Ψ({α, β}) − (−1)^q dΨ(α∨β) = 0

holds identically; ``check_correspondence`` returns that residual for
inspection rather than asserting it.
"""

from dataclasses import dataclass

from .coeffring import Chart, Coefficient
from .errors import StructuralError, ValidationError
from .exterior import (
    DiffForm,
    MultiVector,
    exterior_derivative,
    interior_product,
    lie_derivative,
    reindex,
    wedge,
)
from .structures import CheckReport, ConformalData, NFormStructure, cup_product, jacobi_bracket

__all__ = [
    "Symplectization",
    "build",
    "nondegeneracy_check",
    "lift_conformal",
    "project_to_base",
    "poisson_bracket",
    "psi_map",
    "check_correspondence",
]


def _fiber_name(chart: Chart) -> str:
    if "z" not in chart.coordinates:
        return "z"
    k = 1
    while f"z{k}" in chart.coordinates:
        k += 1
    return f"z{k}"


@dataclass(frozen=True)
class Symplectization:
    """The extended chart with its homogeneous data; build with ``build``."""

    base: NFormStructure
    extended_chart: Chart
    fiber: str
    upsilon: DiffForm
    omega: DiffForm
    liouville: MultiVector
    conformal_factor: Coefficient

    def __post_init__(self):
        if not (interior_product(self.liouville, self.omega) + self.upsilon).is_zero():
            raise StructuralError("Liouville contraction does not recover -upsilon")
        applied = interior_product(
            self.liouville, exterior_derivative(DiffForm.from_scalar(self.conformal_factor))
        )
        if applied.scalar() != self.conformal_factor:
            raise StructuralError("Liouville field does not rescale the conformal factor")

    def horizontal(self, obj):
        """Inclusion into the extended chart: same coefficients, no fiber leg."""
        return reindex(obj, self.extended_chart)


def build(S: NFormStructure) -> Symplectization:
    """Extend the chart by one invertible fiber coordinate and assemble
    Υ = z·Θ, Ω = −dΥ, Δ = z∂_z.  The homogeneity equations are re-checked
    on construction."""
    fiber = _fiber_name(S.chart)
    ext = S.chart.extend(fiber, nonvanishing=True)
    z = Coefficient.coordinate(ext, fiber)
    upsilon = reindex(S.theta, ext).scale(z)
    omega = -exterior_derivative(upsilon)
    liouville = MultiVector.basis_vector(ext, fiber).scale(z)
    return Symplectization(S, ext, fiber, upsilon, omega, liouville, z)


def nondegeneracy_check(sym: Symplectization) -> CheckReport:
    """Whether v ↦ ι_v Ω has trivial kernel, by exact elimination."""
    extended = NFormStructure(sym.extended_chart, sym.omega)
    kernel = extended.kernel(1, "theta")
    if kernel:
        return CheckReport(False, witness=kernel[0], details="ker1(omega) is nonzero")
    return CheckReport(True, witness=None, details="")


def project_to_base(sym: Symplectization, U: MultiVector) -> MultiVector:
    """Push a multivector on the extension down to the base chart: terms
    carrying the fiber direction die, the rest keep their coefficients
    (which must not involve the fiber)."""
    fiber_index = sym.extended_chart.index(sym.fiber)
    kept = {key: c for key, c in U.terms.items() if fiber_index not in key}
    for c in kept.values():
        if c.depends_on(sym.fiber):
            raise StructuralError("projection of a fiber-dependent coefficient is undefined")
    flat = MultiVector(sym.extended_chart, U.degree, kept)
    return reindex(flat, sym.base.chart)


def lift_conformal(sym: Symplectization, x_field: MultiVector, v_field) -> MultiVector:
    """Homogeneous lift X̃ = X^h + (−1)^p Δ∧V^h of a conformal pair.

    The pair is re-verified (𝓛_XΘ = ι_VΘ) before lifting; the result is
    checked to annihilate Υ under the Lie derivative and to project back
    onto ``x_field``.
    """
    from .structures import _as_witness

    S = sym.base
    if x_field.chart != S.chart:
        raise StructuralError("the conformal field must live on the base chart")
    p = x_field.degree
    if p < 1:
        raise StructuralError("conformal fields have degree at least 1")
    v = _as_witness(S.chart, v_field, p - 1)
    residual = lie_derivative(x_field, S.theta) - interior_product(v, S.theta, strict=False)
    if not residual.is_zero():
        raise ValidationError(
            "not a conformal pair on the base", residuals={"lie_vs_witness": str(residual)}
        )
    lifted = sym.horizontal(x_field) + wedge(sym.liouville, sym.horizontal(v)).scale((-1) ** p)
    if not lie_derivative(lifted, sym.upsilon).is_zero():
        raise StructuralError("lift fails to preserve upsilon")
    if project_to_base(sym, lifted) != x_field:
        raise StructuralError("lift fails to project onto its base field")
    return lifted


def _verify_hamiltonian_pair(sym: Symplectization, alpha: DiffForm, x: MultiVector, label: str):
    if alpha.chart != sym.extended_chart or x.chart != sym.extended_chart:
        raise StructuralError("Hamiltonian pairs must live on the extended chart")
    residual = interior_product(x, sym.omega, strict=False) - exterior_derivative(alpha)
    if not residual.is_zero():
        raise ValidationError(
            f"{label} is not a Hamiltonian pair for omega", residuals={label: str(residual)}
        )


def poisson_bracket(sym: Symplectization, pair_a, pair_b) -> DiffForm:
    """{α, β}_P = (−1)^{q−1} ι_{X_α∧X_β}Ω for Hamiltonian pairs (form,
    field) on the extension; both defining contractions are re-verified."""
    alpha, x_a = pair_a
    beta, x_b = pair_b
    _verify_hamiltonian_pair(sym, alpha, x_a, "first pair")
    _verify_hamiltonian_pair(sym, beta, x_b, "second pair")
    q = x_b.degree
    return interior_product(wedge(x_a, x_b), sym.omega, strict=False).scale((-1) ** (q - 1))


def psi_map(sym: Symplectization, data: ConformalData) -> tuple[DiffForm, MultiVector]:
    """Carry conformal data across: returns (Ψ(α), W) with
    Ψ(α) = (−1)^{p+1} z·α and W the Hamiltonian witness ι_W Ω = dΨ(α),
    namely the negated homogeneous lift of (X, V).  The contraction
    identity is asserted exactly."""
    if data.structure is not sym.base:
        raise StructuralError("conformal data does not live on this base structure")
    p = data.degree
    psi = sym.horizontal(data.alpha).scale(sym.conformal_factor).scale((-1) ** (p + 1))
    witness = -lift_conformal(sym, data.x_field, data.v_field)
    residual = interior_product(witness, sym.omega, strict=False) - exterior_derivative(psi)
    if not residual.is_zero():
        raise StructuralError("psi image failed its Hamiltonian contraction")
    return psi, witness


def check_correspondence(sym: Symplectization, a: ConformalData, b: ConformalData) -> DiffForm:
    """Residual of the bracket correspondence,
    {Ψ(α), Ψ(β)}_P − Ψ({α, β}) − (−1)^q dΨ(α∨β); identically zero."""
    q = b.degree
    pair_a = psi_map(sym, a)
    pair_b = psi_map(sym, b)
    poisson = poisson_bracket(sym, pair_a, pair_b)
    psi_bracket = psi_map(sym, jacobi_bracket(a, b))[0]
    psi_cup = psi_map(sym, cup_product(a, b))[0]
    exact_term = exterior_derivative(psi_cup).scale((-1) ** q)
    return poisson - psi_bracket - exact_term
