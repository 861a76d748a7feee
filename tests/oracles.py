"""Oracles the tests read and no command does: the paper's form-level
bracket formula through the graded sharp, the solve of ι_X Ω = dα on a
closed form, the transport of a value to another chart by coordinate
name, the value of a coefficient at a rational point, the tuple view of
its packed keys, volume forms built by wedging differentials, and a
plain-``Fraction`` reference for the ring operations and the graded
products.

On a structure with n-form Θ, ``gjb.sharp`` decomposes the members
α = ι_X dΘ + γ·Θ (ι_X Θ = 0) of the degree-n membership space 𝒵ⁿ, with
♯(α) := X and ℛ(α) := γ.

Lower spaces arise by contracting: α ∈ 𝒵^a iff α = ι_u α_n for some α_n ∈
𝒵ⁿ and u of degree n−a.  The graded sharp ♯_a(ι_u α_n) = ♯(α_n) ∧ u is
well defined only as a class modulo K_{n+1−a} = ker Θ ∩ ker dΘ, which is
what QuotientMultiVector represents.  (Solving ι_W dΘ ≡ α directly for a
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
caller-supplied hint; the columns ι_{∂_j} of dΘ and Θ are read once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from gjb.coeffring import Chart, Coefficient, _accumulate, _as_rational, _exponents
from gjb.errors import DegreeError, DomainError, StructuralError, ValidationError
from gjb.exterior import DiffForm, MultiVector, _Graded, exterior_derivative, interior_product, wedge
from gjb.linalg import rref
from gjb.structures import (
    ConformalData,
    NFormStructure,
    _all_index_tuples,
    _contraction_columns,
    jacobi_bracket,
    solve_by_contraction,
)


# --- the graded sharp and the bracket through it ----------------------------


@dataclass(frozen=True)
class GradedDecomposition:
    """A witnessed membership α = ι_u(ι_X dΘ + γ·Θ) with ι_X Θ = 0.

    For degree-n input, u is the constant 1 and the decomposition is
    α = ι_X dΘ + γ·Θ itself; `unique` records whether the linear system
    pinning (X, γ) had a trivial kernel.
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

    def verify(self) -> "GradedDecomposition":
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

    Equality is a normal-form comparison: the terms of the representative
    are reduced against the terms of the modulus by exact elimination
    (with the fixed pivot order of the basis), so two classes agree iff
    their reductions agree in value.  Each reduction carries one common
    denominator, so entries are compared by cross-multiplication.  The
    stored representative keeps its original ring coefficients for use in
    contractions.
    """

    def __init__(self, representative: MultiVector, modulus: Sequence[MultiVector]):
        for u in modulus:
            if u.chart != representative.chart or u.degree != representative.degree:
                raise StructuralError("modulus entries must match the representative's chart and degree")
        self.representative = representative
        self.modulus = tuple(modulus)
        span = rref([u.terms for u in self.modulus], representative.chart)
        self._normal = span.reduce(representative.terms)

    @property
    def chart(self):
        return self.representative.chart

    @property
    def degree(self) -> int:
        return self.representative.degree

    def is_zero(self) -> bool:
        return not self._normal[0]

    def __eq__(self, other):
        if not isinstance(other, QuotientMultiVector):
            return NotImplemented
        (mine, my_den), (theirs, their_den) = self._normal, other._normal
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.modulus == other.modulus
            and mine.keys() == theirs.keys()
            and all(mine[key] * their_den == theirs[key] * my_den for key in mine)
        )

    __hash__ = None

    def __str__(self):
        return f"{self.representative} (mod K_{self.degree})"

    def __repr__(self):
        return f"QuotientMultiVector({self.representative!r}, modulus of {len(self.modulus)})"


def _decomposition_solution(S: NFormStructure, alpha: DiffForm, u: MultiVector, vector_columns: dict):
    """Solve α = ι_u(ι_X dΘ + γ·Θ), ι_X Θ = 0 for the unknowns (X, γ):
    the components of X in coordinate order, keyed by index tuple, then γ,
    keyed "gamma", from ``_contraction_columns([dΘ, Θ], 1)``."""
    columns = {J: (interior_product(u, a), b) for J, (a, b) in vector_columns.items()}
    side = DiffForm.zero(S.chart, S.degree - 1)
    columns["gamma"] = (interior_product(u, S.theta), side)
    return solve_by_contraction(columns, [[alpha, side]], S.chart.dimension + 1)[0]


def _decompositions(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None, limit: int) -> list[GradedDecomposition]:
    """Up to ``limit`` decompositions witnessing membership of α.

    Degree-n forms need no contraction (u = 1); lower degrees search the
    constant basis multivectors for u, trying `hint` first.
    """
    a = alpha.degree
    n = S.degree
    if not 1 <= a <= n:
        raise DegreeError(f"membership is defined for degrees 1..{n}, got {a}")
    candidates: list[MultiVector] = []
    if hint is not None:
        if hint.degree != n - a:
            raise DegreeError(f"a degree-{a} form needs a degree-{n - a} contraction hint, got {hint.degree}")
        candidates.append(hint)
    one = Coefficient.one(S.chart)
    for J in _all_index_tuples(S.chart, n - a):
        u = MultiVector(S.chart, n - a, {J: one})
        if not any(u == c for c in candidates):
            candidates.append(u)
    found: list[GradedDecomposition] = []
    vector_columns = _contraction_columns([S.dtheta, S.theta], 1)
    for u in candidates:
        solved = _decomposition_solution(S, alpha, u, vector_columns)
        if solved is None:
            continue
        values, unique = solved
        gamma = values.pop("gamma", Coefficient.zero(S.chart))
        dec = GradedDecomposition(S, alpha, u, MultiVector(S.chart, 1, values), gamma, unique=unique)
        found.append(dec.verify())
        if len(found) >= limit:
            break
    return found


def _graded_class(S: NFormStructure, alpha: DiffForm, hint: MultiVector | None) -> tuple[QuotientMultiVector, GradedDecomposition]:
    decs = _decompositions(S, alpha, hint, limit=2)
    if not decs:
        tried = "the hint or " if hint is not None else ""
        raise DomainError(
            f"no decomposition i_u(i_X d theta + gamma theta) of the degree-{alpha.degree} form"
            f" with u {tried}a constant degree-{S.degree - alpha.degree} basis multivector"
        )
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
    dbeta = exterior_derivative(b.alpha)
    sharp_da, dec_a = _graded_class(S, exterior_derivative(a.alpha), hint_a)
    found_b = _decompositions(S, dbeta, hint_b, limit=1)
    if not found_b:
        raise DomainError("the second form's differential lies outside the membership space")
    dec_b = found_b[0]
    v_alpha = dec_a.u_part.scale(-dec_a.gamma)
    v_beta = dec_b.u_part.scale(-dec_b.gamma)
    vee = -interior_product(wedge(a.x_field, b.x_field), S.theta)
    total = (
        exterior_derivative(vee).scale((-1) ** q)
        + interior_product(sharp_da.representative, dbeta).scale((-1) ** ((p - 1) * q))
        + interior_product(v_beta, a.alpha).scale((-1) ** (q + 1))
        - interior_product(v_alpha, b.alpha).scale((-1) ** ((p - 1) * q))
    )
    definitional = jacobi_bracket(a, b).alpha
    residual = total - definitional
    if not residual.is_zero():
        raise ValidationError(
            "sharp-form bracket disagrees with the definitional bracket",
            residuals={"difference": str(residual)},
        )
    return definitional


# --- the Hamiltonian pair of a closed form ----------------------------------


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
    (solved,) = solve_by_contraction(_contraction_columns([omega], p), [[target]], math.comb(omega.chart.dimension, p))
    if solved is None:
        return None
    return MultiVector(omega.chart, p, solved[0])


# --- transport by coordinate name -------------------------------------------


def reindex(obj: _Graded, target: Chart) -> _Graded:
    """Transport an object to another chart by coordinate name;
    coefficients are reinterpreted on the target chart."""
    positions: dict[int, int] = {}

    def position(i: int) -> int:
        if i not in positions:
            positions[i] = target.index(obj.chart.coordinates[i])
        return positions[i]

    def moved():
        for key, coeff in obj.terms.items():
            mapped = [position(i) for i in key]
            order = sorted(range(len(mapped)), key=lambda k: mapped[k])
            inversions = sum(
                1 for a in range(len(order)) for b in range(a + 1, len(order)) if order[a] > order[b]
            )
            yield tuple(mapped[k] for k in order), coeff.rename_chart(target).scale((-1) ** inversions)

    return type(obj)(target, obj.degree, _accumulate(moved()))


# --- a coefficient at a point, and its terms under exponent vectors ----------


def evaluate(c: Coefficient, point: Mapping[str, Fraction | int]) -> Fraction:
    """``c`` at a rational point; every chart coordinate must be assigned,
    and nonvanishing coordinates must be nonzero.  The point's values are
    taken as Fractions, so a negative power stays exact."""
    values = []
    for name in c.chart.coordinates:
        if name not in point:
            raise StructuralError(f"no value supplied for coordinate {name!r}")
        v = Fraction(_as_rational(point[name]))
        if v == 0 and name in c.chart.nonvanishing:
            raise DomainError(f"coordinate {name!r} is nonvanishing but got 0")
        values.append(v)
    unknown = set(point) - set(c.chart.coordinates)
    if unknown:
        raise StructuralError(f"values supplied for unknown coordinates {sorted(unknown)}")
    total = Fraction(0)
    for key, coeff in c.terms.items():
        acc = coeff
        for i, k in _exponents(c.chart, key):
            v = values[i]
            if v == 0 and k < 0:
                raise DomainError("division by zero while evaluating a Laurent term")
            acc *= v**k
        total += acc
    return total


def exponent_terms(c: Coefficient) -> dict[tuple[int, ...], int | Fraction]:
    """The terms of ``c`` under their exponent vectors: the tuple view of
    the packed keys, in the same order."""
    unpack = c.chart.unpack
    return {unpack(key): value for key, value in c.terms.items()}


# --- volume forms -------------------------------------------------------------


def volume(chart: Chart, names: Sequence[str] | None = None) -> DiffForm:
    """The wedge of the differentials of ``names`` taken in chart order
    (every coordinate by default); no names give the constant 1."""
    names = chart.coordinates if names is None else sorted(names, key=chart.index)
    one = DiffForm.from_scalar(Coefficient.one(chart))
    return functools.reduce(wedge, (DiffForm.differential(chart, name) for name in names), one)


# --- a plain-Fraction reference for the ring and the graded products ---------
#
# A value is a dict from exponent vector to nonzero Fraction, read off an
# operand's ``terms`` (the boundary view); a graded value is a dict from
# (index tuple, exponent vector) to nonzero Fraction.  The reference reads
# nothing else of a Coefficient, shares no code with ``gjb`` beyond
# ``Chart.unpack``, and takes its index signs from inversion counts.


def fraction_terms(c: Coefficient) -> dict[tuple[int, ...], Fraction]:
    unpack = c.chart.unpack
    return {unpack(key): Fraction(value) for key, value in c.terms.items()}


def _collected(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out[key] = out.get(key, Fraction(0)) + value
    return {key: value for key, value in out.items() if value}


def _added(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(e1, e2))


def fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    return _collected([*a.items(), *((e, sign * v) for e, v in b.items())])


def fraction_product(a: dict, b: dict) -> dict:
    return _collected((_added(e1, e2), v1 * v2) for e1, v1 in a.items() for e2, v2 in b.items())


def fraction_scale(a: dict, r) -> dict:
    return _collected((e, v * r) for e, v in a.items())


def fraction_partial(a: dict, i: int) -> dict:
    return _collected((e[:i] + (e[i] - 1,) + e[i + 1 :], v * e[i]) for e, v in a.items() if e[i])


def fraction_power(a: dict, n: int, dimension: int) -> dict:
    """``a`` to the power ``n``; a negative power inverts a one-term ``a``."""
    if n < 0:
        ((e, v),) = a.items()
        a, n = {tuple(-k for k in e): 1 / v}, -n
    out = {(0,) * dimension: Fraction(1)}
    for _ in range(n):
        out = fraction_product(out, a)
    return out


def fraction_substitute(a: dict, images: Sequence[dict], dimension: int) -> dict:
    """Σ v·Πᵢ images[i]^eᵢ over the terms v·x^e of ``a``, ``images`` one
    per coordinate and ``dimension`` the target chart's."""
    out: dict = {}
    for e, v in a.items():
        term = {(0,) * dimension: v}
        for image, k in zip(images, e):
            if k:
                term = fraction_product(term, fraction_power(image, k, dimension))
        out = fraction_sum(out, term)
    return out


def fraction_renamed(a: dict, source: Chart, target: Chart) -> dict:
    """Each exponent moved to its coordinate's position on ``target``."""
    where = [target.coordinates.index(name) for name in source.coordinates]

    def moved(e):
        out = [0] * target.dimension
        for i, k in zip(where, e):
            out[i] = k
        return tuple(out)

    return _collected((moved(e), v) for e, v in a.items())


def fraction_graded(obj: _Graded) -> dict:
    return {(I, e): v for I, c in obj.terms.items() for e, v in fraction_terms(c).items()}


def _merged(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """dx^I ∧ dx^J = sign·dx^K, K sorted: the sign counts the pairs of I
    and J out of order; None when they share an index."""
    if set(I) & set(J):
        return None
    inversions = sum(1 for a in I for b in J if a > b)
    return (-1) ** inversions, tuple(sorted(I + J))


def fraction_wedge(a: _Graded, b: _Graded) -> dict:
    def pairs():
        for (I, e1), v1 in fraction_graded(a).items():
            for (J, e2), v2 in fraction_graded(b).items():
                merged = _merged(I, J)
                if merged is not None:
                    yield (merged[1], _added(e1, e2)), merged[0] * v1 * v2

    return _collected(pairs())


def fraction_derivative(omega: DiffForm) -> dict:
    """d(v·x^e dx^I) = Σⱼ eⱼ·v·x^(e − 1ⱼ) dx^j ∧ dx^I."""

    def pairs():
        for (I, e), v in fraction_graded(omega).items():
            for j, k in enumerate(e):
                merged = _merged((j,), I)
                if k and merged is not None:
                    yield (merged[1], e[:j] + (k - 1,) + e[j + 1 :]), merged[0] * k * v

    return _collected(pairs())


def fraction_contraction(U: MultiVector, omega: DiffForm) -> dict:
    """ι_U ω: ∂_J eats the slots of J leftmost first, each ι_{∂_j} taking
    dx^I to (−1)^{k−1} dx^{I∖j} when j is the k-th index of I."""

    def contracted(J, I):
        sign, rest = 1, list(I)
        for j in J:
            if j not in rest:
                return None
            sign *= (-1) ** rest.index(j)
            rest.remove(j)
        return sign, tuple(rest)

    def pairs():
        for (J, e1), v1 in fraction_graded(U).items():
            for (I, e2), v2 in fraction_graded(omega).items():
                hit = contracted(J, I)
                if hit is not None:
                    yield (hit[1], _added(e1, e2)), hit[0] * v1 * v2

    return _collected(pairs())


def fraction_schouten(U: MultiVector, V: MultiVector) -> dict:
    """[U, V] = Σᵢ ∂ᴿU/∂ξᵢ ∧ ∂V/∂xⁱ − (−1)^{(p−1)(q−1)} ∂ᴿV/∂ξᵢ ∧ ∂U/∂xⁱ,
    where ∂ᴿ/∂ξᵢ takes v·ξ_J to (−1)^{|J|−1−k} v·ξ_{J∖i} for i at 0-based
    position k of J."""

    def half(P, Q, sign):
        for (J, e1), v1 in fraction_graded(P).items():
            for k, i in enumerate(J):
                odd = (-1) ** (len(J) - 1 - k)
                rest = J[:k] + J[k + 1 :]
                for (K, e2), v2 in fraction_graded(Q).items():
                    merged = _merged(rest, K)
                    if e2[i] and merged is not None:
                        lowered = e2[:i] + (e2[i] - 1,) + e2[i + 1 :]
                        yield (merged[1], _added(e1, lowered)), sign * odd * merged[0] * e2[i] * v1 * v2

    swap = -1 if (U.degree - 1) * (V.degree - 1) % 2 else 1
    return _collected([*half(U, V, 1), *half(V, U, -swap)])
