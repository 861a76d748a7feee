"""Homogeneous one-fiber extension of an n-form structure.

Appending an invertible fiber coordinate z to the chart of (M, Θ) and
setting Υ = z·Θ, Ω = −dΥ produces a homogeneous structure: the Liouville
field Δ = z∂_z satisfies ι_ΔΩ = −Υ and Δ(z) = z, both re-verified exactly
at construction time.

The extended chart is the base chart with z appended as its last
coordinate, so a value crosses between the two by a layout relation, not
by coordinate names: each packed exponent key moves by one whole slot
(``coeffring._slot_shifted``), with the zero exponent in z's slot going
up, and index tuples keep their positions.  ``horizontal`` and
``project_to_base`` transport this way; ``exterior.reindex`` stays the
general transport by name.

Conformal pairs (X, V) with 𝓛_XΘ = ι_VΘ lift to the extension as

    X̃ = X^h + (−1)^p Δ∧V^h,

the degree-p multivector with 𝓛_{X̃}Υ = 0 projecting onto X, unique up to
ker_p dΥ.  The horizontal inclusion ^h keeps every coefficient and adds
no ∂_z leg (the flat connection annihilating dz).  Since
𝓛_{X̃}Υ = z·(𝓛_XΘ − ι_VΘ)^h with z nonvanishing, the Υ check of
``lift_conformal`` is a check of the conformal equation.  It is computed
as d ι_{X̃}Υ + (−1)^p ι_{X̃}Ω, which is 𝓛_{X̃}Υ exactly since Ω = −dΥ
by construction.  ``psi_map`` does not run it: its Hamiltonian check
covers it (below).

Hamiltonian data (α, X, V) maps across through

    Ψ(α) = (−1)^{p+1} z·α,

which is a Hamiltonian form for Ω: ι_W Ω = dΨ(α) holds exactly for
W = −X̃.  (The lift itself contracts to the opposite sign,
ι_{X̃}Ω = −dΨ(α); since witnesses enter the Poisson bracket pairwise the
distinction cancels there, but the per-form Hamiltonian witness is the
negated lift, and that is what ``psi_map`` returns.)  That contraction
is ``psi_map``'s one check.  As Δ contracts Θ^h to zero, for any α, X
and V its residual is, with β = α + ι_XΘ,

    ι_WΩ − dΨ(α) = (−1)^p (dz∧β^h + z·(dβ)^h − 𝓛_{X̃}Υ).

𝓛_{X̃}Υ has no dz leg, so the check refuses a wrong α, and at
α = −ι_XΘ the residual is (−1)^{p+1} 𝓛_{X̃}Υ: it refuses every datum
the Υ check refuses.  ``poisson_bracket`` checks the contraction on its
caller's pairs.

The Poisson bracket of Hamiltonian pairs is
{α̃, β̃}_P = (−1)^{q−1} ι_{X_α̃∧X_β̃}Ω, and the bracket correspondence

    {Ψ(α), Ψ(β)}_P − Ψ({α, β}) − (−1)^q dΨ(α∨β) = 0

holds identically; ``check_correspondence`` returns that residual for
inspection rather than asserting it, bracketing the witnesses
``psi_map`` has just checked.
"""

from dataclasses import dataclass

from .coeffring import Chart, Coefficient, _slot_shifted
from .errors import StructuralError, ValidationError
from .exterior import DiffForm, MultiVector, exterior_derivative, interior_product, wedge
from .structures import CheckReport, ConformalData, NFormStructure, _as_witness, cup_product, jacobi_bracket

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


def _slot_moved(obj, chart: Chart):
    """``obj`` on ``chart``, its chart with the fiber appended or dropped:
    the same index tuples, each coefficient moved by one slot."""
    return obj._trusted(chart, obj.degree, {key: _slot_shifted(c, chart) for key, c in obj.terms.items()})


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
        base, ext = self.base.chart, self.extended_chart
        if ext.coordinates != base.coordinates + (self.fiber,) or ext.nonvanishing != base.nonvanishing | {self.fiber}:
            raise StructuralError("the extended chart must be the base chart with the fiber appended")
        if not (interior_product(self.liouville, self.omega) + self.upsilon).is_zero():
            raise StructuralError("Liouville contraction does not recover -upsilon")
        applied = interior_product(
            self.liouville, exterior_derivative(DiffForm.from_scalar(self.conformal_factor))
        )
        if applied.scalar() != self.conformal_factor:
            raise StructuralError("Liouville field does not rescale the conformal factor")

    def horizontal(self, obj):
        """Inclusion of a base-chart object into the extended chart: same
        coefficients, no fiber leg."""
        if obj.chart != self.base.chart:
            raise StructuralError("the horizontal inclusion takes an object on the base chart")
        return _slot_moved(obj, self.extended_chart)


def build(S: NFormStructure) -> Symplectization:
    """Extend the chart by one invertible fiber coordinate and assemble
    Υ = z·Θ, Ω = −dΥ, Δ = z∂_z.  The homogeneity equations are re-checked
    on construction."""
    fiber = _fiber_name(S.chart)
    ext = Chart(S.chart.coordinates + (fiber,), S.chart.nonvanishing | {fiber})
    z = Coefficient.coordinate(ext, fiber)
    upsilon = _slot_moved(S.theta, ext).scale(z)
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
    if U.chart != sym.extended_chart:
        raise StructuralError("projection takes a multivector on the extended chart")
    fiber_index = sym.extended_chart.index(sym.fiber)
    kept = {key: c for key, c in U.terms.items() if fiber_index not in key}
    for c in kept.values():
        if c.depends_on(sym.fiber):
            raise StructuralError("projection of a fiber-dependent coefficient is undefined")
    return _slot_moved(MultiVector._trusted(U.chart, U.degree, kept), sym.base.chart)


def _homogeneous_lift(sym: Symplectization, x_field: MultiVector, v_field) -> MultiVector:
    """X̃ = X^h + (−1)^p Δ∧V^h for a pair on the base chart, unchecked."""
    S, p = sym.base, x_field.degree
    if p < 1:
        raise StructuralError("conformal fields have degree at least 1")
    v = _as_witness(S.chart, v_field, p - 1)
    if x_field.chart != S.chart or v.chart != S.chart:
        raise StructuralError("a conformal pair must live on the base chart")
    return sym.horizontal(x_field) + wedge(sym.liouville, sym.horizontal(v)).scale((-1) ** p)


def lift_conformal(sym: Symplectization, x_field: MultiVector, v_field) -> MultiVector:
    """Homogeneous lift X̃ = X^h + (−1)^p Δ∧V^h of a conformal pair.

    The result is checked to annihilate Υ under the Lie derivative (the
    Υ check), which refuses a pair with 𝓛_XΘ ≠ ι_VΘ by a ValidationError,
    and to project back onto ``x_field``.
    """
    lifted = _homogeneous_lift(sym, x_field, v_field)
    contracted = interior_product(lifted, sym.omega).scale((-1) ** x_field.degree)
    residual = exterior_derivative(interior_product(lifted, sym.upsilon)) + contracted
    if not residual.is_zero():
        raise ValidationError("not a conformal pair on the base", residuals={"lie_upsilon": str(residual)})
    if project_to_base(sym, lifted) != x_field:
        raise StructuralError("lift fails to project onto its base field")
    return lifted


def _verify_hamiltonian_pair(sym: Symplectization, alpha: DiffForm, x: MultiVector, label: str):
    """ι_xΩ = dα."""
    if alpha.chart != sym.extended_chart or x.chart != sym.extended_chart:
        raise StructuralError("Hamiltonian pairs must live on the extended chart")
    residual = interior_product(x, sym.omega) - exterior_derivative(alpha)
    if not residual.is_zero():
        raise ValidationError(f"{label} is not a Hamiltonian pair for omega", residuals={label: str(residual)})


def _poisson(sym: Symplectization, x_a: MultiVector, x_b: MultiVector) -> DiffForm:
    return interior_product(wedge(x_a, x_b), sym.omega).scale((-1) ** (x_b.degree - 1))


def poisson_bracket(sym: Symplectization, pair_a, pair_b) -> DiffForm:
    """{α, β}_P = (−1)^{q−1} ι_{X_α∧X_β}Ω for Hamiltonian pairs (form,
    field) on the extension; both defining contractions are verified."""
    _verify_hamiltonian_pair(sym, *pair_a, "first pair")
    _verify_hamiltonian_pair(sym, *pair_b, "second pair")
    return _poisson(sym, pair_a[1], pair_b[1])


def psi_map(sym: Symplectization, data: ConformalData) -> tuple[DiffForm, MultiVector]:
    """Carry conformal data across: returns (Ψ(α), W) with
    Ψ(α) = (−1)^{p+1} z·α and W the negated homogeneous lift of (X, V).
    The one check, ι_WΩ = dΨ(α), holds exactly when α = −ι_XΘ and
    𝓛_{X̃}Υ = 0 (module docstring); failing data is a ValidationError."""
    if data.structure is not sym.base:
        raise StructuralError("conformal data does not live on this base structure")
    p = data.degree
    psi = sym.horizontal(data.alpha).scale(sym.conformal_factor).scale((-1) ** (p + 1))
    witness = -_homogeneous_lift(sym, data.x_field, data.v_field)
    _verify_hamiltonian_pair(sym, psi, witness, "psi image")
    return psi, witness


def check_correspondence(sym: Symplectization, a: ConformalData, b: ConformalData) -> DiffForm:
    """Residual of the bracket correspondence,
    {Ψ(α), Ψ(β)}_P − Ψ({α, β}) − (−1)^q dΨ(α∨β); identically zero.  Each
    Ψ image is checked once, by ``psi_map``."""
    q = b.degree
    poisson = _poisson(sym, psi_map(sym, a)[1], psi_map(sym, b)[1])
    psi_bracket = psi_map(sym, jacobi_bracket(a, b))[0]
    psi_cup = psi_map(sym, cup_product(a, b))[0]
    exact_term = exterior_derivative(psi_cup).scale((-1) ** q)
    return poisson - psi_bracket - exact_term
