"""Sparse exterior calculus on a chart.

Differential forms and multivector fields are sparse maps from strictly
increasing tuples of coordinate positions to scalar Coefficients; degree
zero is the single empty tuple.  The sign conventions every higher layer
leans on are fixed here:

* wedge signs come from counting inversions while merging index tuples;
* a single contraction slot is ι_{∂_j} dx^I = (−1)^{k−1} dx^{I∖j} when j
  is the k-th index of I (and the mirror rule for a differential eating a
  multivector);
* contracting a decomposable contracts the LEFTMOST factor first, so
  ι_{X₁∧⋯∧X_p} = ι_{X_p}∘⋯∘ι_{X₁};
* degree-zero contraction is plain multiplication;
* spaces of negative degree are zero, so contracting past the bottom
  degree gives a zero of the (negative) degree the operands call for;
* 𝓛_U ω = d ι_U ω − (−1)^p ι_U dω for a degree-p multivector U;
* the graded bracket of decomposables is
  [U, V] = Σ_{i,j} (−1)^{i+j} [X_i, Y_j] ∧ X₁⋯X̂_i⋯∧X_p ∧ Y₁⋯Ŷ_j⋯∧Y_q,
  extended to degree zero by [U, g] = (−1)^{p+1} ι_{dg} U and
  [g, U] = −ι_{dg} U.

The characterizing identity (and the regression test pinning the global
sign) is ι_{[U,V]} ω = (−1)^{(p−1)q} 𝓛_U ι_V ω − ι_V 𝓛_U ω.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .coeffring import Chart, Coefficient, format_coefficient
from .errors import DegreeError, StructuralError

__all__ = [
    "DiffForm",
    "MultiVector",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "form_contraction",
    "lie_derivative",
    "vector_bracket",
    "schouten_nijenhuis",
    "reindex",
    "PolyMap",
    "pull_form_along",
]


def _merge_indices(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Interleave two strictly increasing tuples; None on a repeat."""
    out: list[int] = []
    i = j = 0
    sign = 1
    while i < len(I) and j < len(J):
        if I[i] == J[j]:
            return None
        if I[i] < J[j]:
            out.append(I[i])
            i += 1
        else:
            if (len(I) - i) % 2:
                sign = -sign
            out.append(J[j])
            j += 1
    out.extend(I[i:])
    out.extend(J[j:])
    return sign, tuple(out)


class _Graded:
    """Shared sparse machinery for forms and multivectors."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple[int, ...], Coefficient] | None = None):
        # negative degrees and degrees above the chart dimension are
        # allowed: those spaces are zero, and index-tuple validation below
        # keeps them empty
        clean: dict[tuple[int, ...], Coefficient] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DegreeError(f"index tuple {key} does not match degree {degree}")
            if any(b <= a for a, b in zip(key, key[1:])):
                raise StructuralError(f"index tuple {key} is not strictly increasing")
            if key and not (0 <= key[0] and key[-1] < chart.dimension):
                raise StructuralError(f"index tuple {key} escapes the chart")
            if not isinstance(coeff, Coefficient):
                coeff = Coefficient.constant(chart, coeff)
            if coeff.chart != chart:
                raise StructuralError("term coefficient lives on a different chart")
            if not coeff.is_zero():
                clean[key] = coeff
        self.chart = chart
        self.degree = degree
        self.terms = clean

    # -- building blocks ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0):
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, coeff: Coefficient):
        return cls(coeff.chart, 0, {(): coeff})

    def scalar(self) -> Coefficient:
        if self.degree != 0:
            raise DegreeError(f"degree {self.degree} object is not a scalar")
        return self.terms.get((), Coefficient.zero(self.chart))

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ----------------------------------------------------

    def _mate(self, other):
        if type(self) is not type(other):
            raise StructuralError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.chart != other.chart:
            raise StructuralError("operands live on different charts")
        if self.degree != other.degree:
            raise DegreeError(f"degrees {self.degree} and {other.degree} do not match")

    def __add__(self, other):
        self._mate(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, Coefficient.zero(self.chart)) + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return type(self)(self.chart, self.degree, terms)

    def __neg__(self):
        return type(self)(self.chart, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "_Graded":
        if not isinstance(factor, Coefficient):
            factor = Coefficient.constant(self.chart, factor)
        return type(self)(
            self.chart, self.degree, {k: factor * c for k, c in self.terms.items()}
        )

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, Coefficient)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other):
        return wedge(self, other)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.degree, frozenset(self.terms.items())))

    # -- display -------------------------------------------------------------

    def _factor_name(self, position: int) -> str:
        raise NotImplementedError

    def __str__(self):
        if self.degree == 0:
            return format_coefficient(self.scalar())
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            factors = "^".join(self._factor_name(i) for i in key)
            if len(coeff.terms) == 1:
                expo, value = next(iter(coeff.terms.items()))
                negative = value < 0
                magnitude = Coefficient(self.chart, {expo: abs(value)})
                scalar_text = format_coefficient(magnitude, elide_unit=True)
                body = factors if scalar_text == "1" else f"{scalar_text}*{factors}"
            else:
                negative = False
                body = f"({format_coefficient(coeff, elide_unit=True)})*{factors}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class DiffForm(_Graded):
    """Differential form with exact scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def differential(chart: Chart, name: str) -> "DiffForm":
        return DiffForm(chart, 1, {(chart.index(name),): Coefficient.one(chart)})

    @staticmethod
    def volume(chart: Chart, names: Iterable[str] | None = None) -> "DiffForm":
        positions = tuple(sorted(chart.index(n) for n in names)) if names is not None else tuple(
            range(chart.dimension)
        )
        return DiffForm(chart, len(positions), {positions: Coefficient.one(chart)})

    def d(self) -> "DiffForm":
        return exterior_derivative(self)

    def _factor_name(self, position: int) -> str:
        return f"d{self.chart.coordinates[position]}"


class MultiVector(_Graded):
    """Alternating multivector field with exact scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def basis_vector(chart: Chart, name: str) -> "MultiVector":
        return MultiVector(chart, 1, {(chart.index(name),): Coefficient.one(chart)})

    def _factor_name(self, position: int) -> str:
        return f"e_{self.chart.coordinates[position]}"


def wedge(a: _Graded, b: _Graded) -> _Graded:
    """Graded exterior product of two forms or two multivectors."""
    if type(a) is not type(b):
        raise StructuralError(f"cannot wedge {type(a).__name__} with {type(b).__name__}")
    if a.chart != b.chart:
        raise StructuralError("operands live on different charts")
    terms: dict[tuple[int, ...], Coefficient] = {}
    for I, c in a.terms.items():
        for J, e in b.terms.items():
            merged = _merge_indices(I, J)
            if merged is None:
                continue
            sign, key = merged
            acc = terms.get(key, Coefficient.zero(a.chart)) + (c * e).scale(sign)
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
    return type(a)(a.chart, a.degree + b.degree, terms)


def exterior_derivative(omega: DiffForm) -> DiffForm:
    """d(c·dx^I) = Σ_j (∂c/∂x_j) dx^j ∧ dx^I, exactly."""
    if not isinstance(omega, DiffForm):
        raise StructuralError("exterior derivative applies to differential forms")
    chart = omega.chart
    terms: dict[tuple[int, ...], Coefficient] = {}
    for I, c in omega.terms.items():
        for j, name in enumerate(chart.coordinates):
            dc = c.partial(name)
            if dc.is_zero():
                continue
            merged = _merge_indices((j,), I)
            if merged is None:
                continue
            sign, key = merged
            acc = terms.get(key, Coefficient.zero(chart)) + dc.scale(sign)
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
    return DiffForm(chart, omega.degree + 1, terms)


def _contract_key(eaten: tuple[int, ...], target: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Contract the slots ``eaten`` (leftmost first) out of ``target``,
    returning the accumulated sign and what is left."""
    remaining = list(target)
    sign = 1
    for j in eaten:
        try:
            pos = remaining.index(j)
        except ValueError:
            return None
        if pos % 2:
            sign = -sign
        del remaining[pos]
    return sign, tuple(remaining)


def interior_product(U: MultiVector, omega: DiffForm, strict: bool = True) -> DiffForm:
    """ι_U ω, of degree ω.degree − U.degree.  Degree-zero U multiplies; U
    too long raises DegreeError unless ``strict`` is off, in which case the
    result is the zero form of that (negative) degree."""
    if not isinstance(U, MultiVector) or not isinstance(omega, DiffForm):
        raise StructuralError("interior product takes a multivector and a form")
    if U.chart != omega.chart:
        raise StructuralError("operands live on different charts")
    if U.degree == 0:
        return omega.scale(U.scalar())
    if U.degree > omega.degree:
        if strict:
            raise DegreeError(
                f"cannot contract a degree-{U.degree} multivector into a degree-{omega.degree} form"
            )
        return DiffForm.zero(omega.chart, omega.degree - U.degree)
    terms: dict[tuple[int, ...], Coefficient] = {}
    for J, c in U.terms.items():
        for I, k in omega.terms.items():
            hit = _contract_key(J, I)
            if hit is None:
                continue
            sign, key = hit
            acc = terms.get(key, Coefficient.zero(U.chart)) + (c * k).scale(sign)
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
    return DiffForm(omega.chart, omega.degree - U.degree, terms)


def form_contraction(xi: DiffForm, U: MultiVector, strict: bool = True) -> MultiVector:
    """ι_ξ U, the mirror contraction of a form into a multivector, of
    degree U.degree − ξ.degree; ``strict`` as for interior_product."""
    if not isinstance(xi, DiffForm) or not isinstance(U, MultiVector):
        raise StructuralError("form contraction takes a form and a multivector")
    if xi.chart != U.chart:
        raise StructuralError("operands live on different charts")
    if xi.degree == 0:
        return U.scale(xi.scalar())
    if xi.degree > U.degree:
        if strict:
            raise DegreeError(
                f"cannot contract a degree-{xi.degree} form into a degree-{U.degree} multivector"
            )
        return MultiVector.zero(U.chart, U.degree - xi.degree)
    terms: dict[tuple[int, ...], Coefficient] = {}
    for I, k in xi.terms.items():
        for J, c in U.terms.items():
            hit = _contract_key(I, J)
            if hit is None:
                continue
            sign, key = hit
            acc = terms.get(key, Coefficient.zero(U.chart)) + (k * c).scale(sign)
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
    return MultiVector(U.chart, U.degree - xi.degree, terms)


def lie_derivative(U: MultiVector, omega: DiffForm) -> DiffForm:
    """𝓛_U ω = d ι_U ω − (−1)^p ι_U dω, of degree ω.degree − p + 1; a
    contraction past the bottom degree is the zero of its negative degree."""
    p = U.degree
    first = exterior_derivative(interior_product(U, omega, strict=False))
    second = interior_product(U, exterior_derivative(omega), strict=False)
    return first + second.scale((-1) ** (p + 1))


def vector_bracket(X: MultiVector, Y: MultiVector) -> MultiVector:
    """Lie bracket of two vector fields, componentwise and exact."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError(f"vector bracket needs two vector fields, got degrees {X.degree} and {Y.degree}")
    if X.chart != Y.chart:
        raise StructuralError("operands live on different charts")
    chart = X.chart
    terms: dict[tuple[int, ...], Coefficient] = {}

    def bump(position: int, coeff: Coefficient):
        if coeff.is_zero():
            return
        key = (position,)
        acc = terms.get(key, Coefficient.zero(chart)) + coeff
        if acc.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = acc

    for (m,), a in X.terms.items():
        name_m = chart.coordinates[m]
        for (n,), b in Y.terms.items():
            name_n = chart.coordinates[n]
            bump(n, a * b.partial(name_m))
            bump(m, -(b * a.partial(name_n)))
    return MultiVector(chart, 1, terms)


def schouten_nijenhuis(U: MultiVector, V: MultiVector) -> MultiVector:
    """Graded bracket of multivector fields (see the module docstring for
    the decomposable formula and degree-zero cases)."""
    p, q = U.degree, V.degree
    if p == 0 and q == 0:
        raise DegreeError("the graded bracket of two scalars is not defined")
    chart = U.chart
    if chart != V.chart:
        raise StructuralError("operands live on different charts")
    if p == 0:
        dg = exterior_derivative(DiffForm.from_scalar(U.scalar()))
        return -form_contraction(dg, V)
    if q == 0:
        dg = exterior_derivative(DiffForm.from_scalar(V.scalar()))
        return form_contraction(dg, U).scale((-1) ** (p + 1))

    one = Coefficient.one(chart)
    out = MultiVector.zero(chart, p + q - 1)
    for J, c in U.terms.items():
        factors_u = [
            MultiVector(chart, 1, {(idx,): c if k == 0 else one}) for k, idx in enumerate(J)
        ]
        for K, e in V.terms.items():
            factors_v = [
                MultiVector(chart, 1, {(idx,): e if k == 0 else one}) for k, idx in enumerate(K)
            ]
            for i in range(p):
                for j in range(q):
                    w = vector_bracket(factors_u[i], factors_v[j])
                    if w.is_zero():
                        continue
                    piece = w
                    for k in range(p):
                        if k != i:
                            piece = wedge(piece, factors_u[k])
                    for k in range(q):
                        if k != j:
                            piece = wedge(piece, factors_v[k])
                    if (i + j) % 2:
                        piece = -piece
                    out = out + piece
    return out


def reindex(obj: _Graded, target: Chart, rename: Mapping[str, str] | None = None) -> _Graded:
    """Transport an object to another chart by coordinate name (identity on
    names unless ``rename`` maps them); coefficients are reinterpreted on
    the target chart."""
    rename = rename or {}
    positions: dict[int, int] = {}

    def position(i: int) -> int:
        if i not in positions:
            name = obj.chart.coordinates[i]
            positions[i] = target.index(rename.get(name, name))
        return positions[i]

    terms: dict[tuple[int, ...], Coefficient] = {}
    for key, coeff in obj.terms.items():
        mapped = [position(i) for i in key]
        order = sorted(range(len(mapped)), key=lambda k: mapped[k])
        inversions = sum(
            1 for a in range(len(order)) for b in range(a + 1, len(order)) if order[a] > order[b]
        )
        new_key = tuple(mapped[k] for k in order)
        if len(set(new_key)) != len(new_key):
            raise StructuralError("rename collapses two factor directions")
        moved = coeff.rename_chart(target, rename)
        if inversions % 2:
            moved = -moved
        acc = terms.get(new_key, Coefficient.zero(target)) + moved
        if acc.is_zero():
            terms.pop(new_key, None)
        else:
            terms[new_key] = acc
    return type(obj)(target, obj.degree, terms)


def pull_form_along(
    omega: DiffForm,
    scalar_images: Mapping[str, Coefficient],
    form_images: Mapping[str, DiffForm],
    source: Chart,
) -> DiffForm:
    """Pull a form back along a map described by coordinate images: each
    coefficient goes through the scalar substitution, each differential
    dx^i is replaced by ``form_images[x^i]`` (a 1-form on ``source``)."""
    for name, image in form_images.items():
        if image.degree != 1:
            raise DegreeError(f"image of d{name} must be a 1-form, got degree {image.degree}")
    out = DiffForm.zero(source, omega.degree)
    for I, c in omega.terms.items():
        piece = DiffForm.from_scalar(c.substitute(scalar_images, source))
        for idx in I:
            name = omega.chart.coordinates[idx]
            if name not in form_images:
                raise StructuralError(f"no differential image for coordinate {name!r}")
            piece = wedge(piece, form_images[name])
        if piece.degree != omega.degree:
            piece = DiffForm(source, omega.degree, piece.terms)
        out = out + piece
    return out


@dataclass(frozen=True)
class PolyMap:
    """Map between charts, given by scalar images of target coordinates."""

    source: Chart
    target: Chart
    images: Mapping[str, Coefficient]

    def __post_init__(self):
        missing = set(self.target.coordinates) - set(self.images)
        if missing:
            raise StructuralError(f"missing images for target coordinates {sorted(missing)}")
        for name, image in self.images.items():
            if image.chart != self.source:
                raise StructuralError(f"image of {name!r} does not live on the source chart")

    def pull_scalar(self, c: Coefficient) -> Coefficient:
        if c.chart != self.target:
            raise StructuralError("scalar does not live on the target chart")
        return c.substitute(self.images, self.source)

    def pull_form(self, omega: DiffForm) -> DiffForm:
        if omega.chart != self.target:
            raise StructuralError("form does not live on the target chart")
        differentials = {
            name: exterior_derivative(DiffForm.from_scalar(image))
            for name, image in self.images.items()
        }
        return pull_form_along(omega, self.images, differentials, self.source)
