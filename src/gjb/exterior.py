"""Sparse exterior calculus on a chart.

Differential forms and multivector fields are sparse maps from strictly
increasing tuples of coordinate positions to scalar Coefficients; degree
zero is the single empty tuple.  The sign conventions every higher layer
leans on are fixed here:

* wedge signs come from counting inversions while merging index tuples;
* a single contraction slot is ι_{∂_j} dx^I = (−1)^{k−1} dx^{I∖j} when j
  is the k-th index of I;
* contracting a decomposable contracts the LEFTMOST factor first, so
  ι_{X₁∧⋯∧X_p} = ι_{X_p}∘⋯∘ι_{X₁};
* degree-zero contraction is plain multiplication;
* spaces of negative degree are zero, so contracting past the bottom
  degree gives a zero of the (negative) degree the operands call for;
* 𝓛_U ω = d ι_U ω − (−1)^p ι_U dω for a degree-p multivector U;
* the graded bracket is the odd-variable formula: read c·e_J as c·ξ_J
  with one odd variable ξᵢ per coordinate, then
  [P, Q] = Σᵢ ∂ᴿP/∂ξᵢ ∧ ∂Q/∂xⁱ − (−1)^{(p−1)(q−1)} ∂ᴿQ/∂ξᵢ ∧ ∂P/∂xⁱ,
  where the right derivative ∂ᴿ/∂ξᵢ takes c·ξ_J to (−1)^{|J|−1−k} c·ξ_{J∖i}
  when i sits at 0-based position k of J, and ∂/∂xⁱ differentiates the
  coefficients.  On a scalar g it gives [U, g] = (−1)^{p+1} ι_{dg} U and
  [g, U] = −ι_{dg} U.

The characterizing identity (and the regression test pinning the global
sign) is ι_{[U,V]} ω = (−1)^{(p−1)q} 𝓛_U ι_V ω − ι_V 𝓛_U ω.

As in ``coeffring``, construction has a validating boundary and a
trusted interior.  The constructors of DiffForm and MultiVector check
every term (``_index_tuples``, the one index-tuple rule: an ``int``
degree, and index tuples of ``int`` positions, strictly increasing, of
that degree and inside the chart; coefficients on the chart) and drop
zeros; the parser goes through them.  The JSON loader applies
``_index_tuples`` in its shape pass, then builds by ``_trusted`` from
the checked keys and the coefficients it parses on the chart.  The named
builders (``zero``, ``from_scalar``, ``differential``, ``volume``,
``basis_vector``) check their arguments and are then trusted:
``Chart.index`` refuses an unknown name, ``volume`` refuses a repeated
one, so its sorted key is strictly increasing, and ``from_scalar``
writes no term for a zero scalar.  The results of ``+``, ``-``,
``scale``, ``wedge``, ``exterior_derivative``, ``interior_product`` and
``schouten_nijenhuis`` are built by ``_Graded._trusted``, which checks
nothing: their operands are checked to share one chart, every key is a
merge of strictly increasing tuples (``_merge_indices``) or what a
contraction leaves of one (``_contract_key``), so it is strictly
increasing, inside the chart and of the result's degree, and every
coefficient comes out of ``_accumulate``, which keeps no zero, or out of
the product kernel.

The index algebra is read from tables.  ``_merge_indices``,
``_contract_key`` and ``_odd_parts`` (the right derivatives of ξ_J that
the graded bracket takes) are pure functions of index tuples, so each is
a bounded ``functools.lru_cache`` of ``_TABLE_SIZE`` entries.  A
benchmark workload fills a table with a few hundred entries, and
``hdw``, ``tables`` and ``distortion`` on (16, 2) with 3 254 at most.
Every reader shares one result per key, so each result is an immutable
tuple.  A table keys by tuple equality, under which ``(1.0,)`` and
``(True,)`` equal ``(1,)``; the validating boundary admits ``int``
positions only, so no other entry reaches a table.

``wedge`` and ``schouten_nijenhuis`` multiply through the product kernel
(``_cleared``, ``coeffring._partial_terms``, ``_products``), which works
fraction-free on the ring's packed exponent keys (``coeffring``): each
side's coefficients are multiplied by the lcm of their value
denominators once (a bracket operand once in its lifetime, see the
support-only Schouten derivative below), the right side's keys are
taken less the chart's origin once per operand, so every term product
is one int addition of keys and one int product of values, summed per
(index tuple, key), and each sum is divided once by the product of the
two lcms.  Its results
are closed like the ring's: an exponent vector is a sum of two valid
vectors (or a derivative's, which lowers an exponent only where it was
nonzero, as ``Coefficient.partial`` does), so it is negative only where
an operand's was, on a nonvanishing coordinate; every key formed is ORed
into one guard-bit test, so an exponent that leaves its slot raises
``DomainError``; a zero sum is dropped, and so is an index tuple left
with no term; and the one exact division gives an int whenever the value
is integral and a reduced Fraction otherwise, so no kernel result holds
a whole number as a Fraction.

Five operations skip work whose result would be thrown away, and each
skip is exact:

* empty Schouten operand: ``schouten_nijenhuis`` returns the empty
  multivector of degree p + q − 1 when either operand has no terms,
  after its two refusals and before clearing either operand, since every
  term of the bracket is a product of a term of each;

* prefilter: the one contraction loop (``_contracted``, behind
  ``interior_product``) tries ``_contract_key`` on a pair of keys only
  when the first eaten slot is in the target key, since the contraction
  of a slot not in it is zero;
* support-only d: ``exterior_derivative`` differentiates a coefficient
  only along the coordinates where some term has a nonzero exponent,
  negative ones included, in ascending order, since ∂c/∂xʲ is zero
  exactly off that support and the pieces keep the order of a loop over
  every coordinate;
* support-only Schouten derivative: ``schouten_nijenhuis`` takes
  ∂B/∂xⁱ of a term of B only when its coefficient depends on xⁱ, as one
  support mask per term says (``coeffring._support_mask``), since every
  other term's derivative along xⁱ is zero.  These inputs are kept on
  the operand (``_SchoutenInputs``, in the ``_schouten`` slot of a
  MultiVector, filled on its first bracket): its lcm and cleared terms,
  its masks, and each ∂B/∂xⁱ table once i is met, so an operand is
  cleared, masked and differentiated once in its lifetime, not once per
  bracket.  That is exact because they are functions of the terms alone
  and nothing writes to the terms of a built Coefficient or graded object
  (an AST guard in ``tests/test_public_names.py``);
* rational scaling: ``scale`` by an int, a Fraction, or a Coefficient
  that is zero or a one-term constant (after the chart check) multiplies
  each coefficient's values by it (``Coefficient.scale``), with the
  empty object for 0, since a product with a constant coefficient
  multiplies every value by that constant and keeps every exponent key
  and its order.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Hashable, Iterable, Mapping

from .coeffring import (
    _PLAIN,
    Chart,
    Coefficient,
    _Spelling,
    _accumulate,
    _as_rational,
    _check_range,
    _coefficient_text,
    _partial_terms,
    _positions,
    _signed_sum,
    _support_mask,
    _term_text,
)
from .errors import DegreeError, StructuralError

__all__ = [
    "DiffForm",
    "MultiVector",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "lie_derivative",
    "schouten_nijenhuis",
]


# -- index tables (see the module docstring) ----------------------------------

_TABLE_SIZE = 1 << 14


@lru_cache(maxsize=_TABLE_SIZE)
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


@lru_cache(maxsize=_TABLE_SIZE)
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


@lru_cache(maxsize=_TABLE_SIZE)
def _odd_parts(J: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The right derivatives of ξ_J: ``(i, J∖i, (−1)^{|J|−1−k})`` for the
    index i at each 0-based position k of J, in order."""
    last = len(J) - 1
    return tuple((i, J[:k] + J[k + 1 :], -1 if (last - k) % 2 else 1) for k, i in enumerate(J))


# -- the product kernel (see the module docstring) ---------------------------


def _cleared(terms: Mapping[Hashable, Coefficient], offset: int = 0) -> tuple[int, dict[Hashable, dict[int, int]]]:
    """The lcm L of the value denominators of the coefficients in
    ``terms`` and, under the same keys, each one's terms times L: every
    value an int, every packed exponent key less ``offset`` (the chart's
    origin for a right operand of ``_products``, none for a left one)."""
    L, integral = 1, True
    for c in terms.values():
        for v in c.terms.values():
            if type(v) is not int:
                integral = False
                if L % v.denominator:
                    L = math.lcm(L, v.denominator)
    if integral:
        if not offset:
            return 1, {key: c.terms for key, c in terms.items()}
        return 1, {key: {e - offset: v for e, v in c.terms.items()} for key, c in terms.items()}
    return L, {
        key: {e - offset: v * L if type(v) is int else v.numerator * (L // v.denominator) for e, v in c.terms.items()}
        for key, c in terms.items()
    }


def _products(
    chart: Chart, items: Iterable[tuple[int, tuple[int, ...], dict, dict]], denominator: int
) -> dict[tuple[int, ...], Coefficient]:
    """Σ sign·left·right per key, divided by ``denominator``: ``left`` and
    ``right`` are integer terms of coefficients that were multiplied by
    factors whose product is ``denominator``, ``left`` under packed keys
    and ``right`` under packed keys less the chart's origin, so a monomial
    product is one int addition.  The sums run in ints, one dict of
    exponent keys per key; every key formed, cancelled or not, is ORed
    into one guard test, a zero sum is dropped, and each other sum is
    divided once, giving an int when the quotient is integral and a
    reduced Fraction otherwise."""
    sums: dict[tuple[int, ...], dict[int, int]] = {}
    for sign, key, left, right in items:
        bucket = sums.get(key)
        if bucket is None:
            bucket = sums[key] = {}
        get = bucket.get
        for e1, n1 in left.items():
            n1 *= sign
            for e2, n2 in right.items():
                expo = e1 + e2
                bucket[expo] = get(expo, 0) + n1 * n2
    seen = 0
    out: dict[tuple[int, ...], Coefficient] = {}
    for key, bucket in sums.items():
        seen = reduce(operator.or_, bucket, seen)
        terms = {
            expo: total // denominator if total % denominator == 0 else Fraction(total, denominator)
            for expo, total in bucket.items()
            if total
        }
        if terms:
            out[key] = Coefficient._trusted(chart, terms)
    _check_range(chart, seen)
    return out


def _index_tuples(keys: Iterable, degree: int, dimension: int) -> list[tuple[int, ...]]:
    """``keys`` as tuples, held to the index-tuple rule (module docstring)
    on a chart of ``dimension`` coordinates; a bool or ``1.0`` is no int.
    One loop over its positions accepts a key; a refused key is named by
    the first rule it breaks, in the order below."""
    if type(degree) is not int:
        raise StructuralError(f"degree {degree!r} is not an int")
    out = []
    for key in keys:
        key = tuple(key)
        last = -1
        for i in key:
            if type(i) is not int or i <= last:
                break
            last = i
        else:
            if last < dimension and len(key) == degree:
                out.append(key)
                continue
        for i in key:
            if type(i) is not int:
                raise StructuralError(f"index tuple {key} holds a position that is not an int")
        if len(key) != degree:
            raise StructuralError(f"index tuple {key} does not match degree {degree}")
        if sorted(set(key)) != list(key):
            raise StructuralError(f"index tuple {key} is not strictly increasing")
        raise StructuralError(f"index tuple {key} escapes the chart")
    return out


class _Graded:
    """Shared sparse machinery for forms and multivectors."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[tuple[int, ...], Coefficient] | None = None):
        # negative degrees and degrees above the chart dimension are
        # allowed: those spaces are zero, and the index-tuple rule keeps
        # them empty
        terms = terms or {}
        clean: dict[tuple[int, ...], Coefficient] = {}
        for key, coeff in zip(_index_tuples(terms, degree, chart.dimension), terms.values()):
            if not isinstance(coeff, Coefficient):
                coeff = Coefficient.constant(chart, coeff)
            if coeff.chart != chart:
                raise StructuralError("term coefficient lives on a different chart")
            if not coeff.is_zero():
                clean[key] = coeff
        self.chart = chart
        self.degree = degree
        self.terms = clean

    @classmethod
    def _trusted(cls, chart: Chart, degree: int, terms: dict[tuple[int, ...], Coefficient]):
        """An object over ``terms`` as they are, with no check and no copy:
        only for results built from checked operands (module docstring).
        The object owns the dict from here on: the caller must not mutate
        it, since the object's terms, and what a bracket keeps derived from
        them, rest on it staying as handed over."""
        new = object.__new__(cls)
        new.chart = chart
        new.degree = degree
        new.terms = terms
        return new

    # -- building blocks ---------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0):
        return cls._trusted(chart, degree, {})

    @classmethod
    def from_scalar(cls, coeff: Coefficient):
        return cls._trusted(coeff.chart, 0, {(): coeff} if coeff.terms else {})

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
        if self.chart is not other.chart and self.chart != other.chart:
            raise StructuralError("operands live on different charts")
        if self.degree != other.degree:
            raise DegreeError(f"degrees {self.degree} and {other.degree} do not match")

    def __add__(self, other):
        self._mate(other)
        return self._trusted(self.chart, self.degree, _accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self._trusted(self.chart, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        self._mate(other)
        negated = ((k, -c) for k, c in other.terms.items())
        return self._trusted(self.chart, self.degree, _accumulate(negated, dict(self.terms)))

    def scale(self, factor) -> "_Graded":
        if isinstance(factor, Coefficient):
            if factor.chart is not self.chart and factor.chart != self.chart:
                raise StructuralError("coefficients live on different charts")
            values = factor.terms
            origin = self.chart.origin
            if len(values) > 1 or (values and origin not in values):
                products = ((k, factor * c) for k, c in self.terms.items())
                return self._trusted(self.chart, self.degree, _accumulate(products))
            # zero or a one-term constant: a rational factor
            factor = values.get(origin, 0)
        factor = _as_rational(factor)
        if factor == 0:
            return self._trusted(self.chart, self.degree, {})
        return self._trusted(self.chart, self.degree, {k: c.scale(factor) for k, c in self.terms.items()})

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, Coefficient)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

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

    def _text(self, spelling: _Spelling) -> str:
        """The object in one output format: a degree-0 object is its scalar
        (with its unit prefix, where the format writes one); otherwise each
        coefficient sits before its wedge of coordinate factors."""
        if self.degree == 0:
            return _coefficient_text(self.scalar(), spelling)
        factor = spelling.form_factor if isinstance(self, DiffForm) else spelling.vector_factor
        names = self.chart.coordinates

        def terms():
            for key in sorted(self.terms):
                coeff = self.terms[key]
                factors = spelling.wedge.join(factor(names[i]) for i in key)
                if len(coeff.terms) > 1:
                    yield False, spelling.grouped.format(_coefficient_text(coeff, spelling, elide_unit=True)) + factors
                    continue
                ((expo, value),) = coeff.terms.items()
                if abs(value) == 1 and expo == self.chart.origin:
                    yield value < 0, factors
                else:
                    body = _term_text(self.chart, expo, abs(value), spelling, elide_unit=True)
                    yield value < 0, f"{body}{spelling.scaled}{factors}"

        return _signed_sum(terms())

    def __str__(self):
        return self._text(_PLAIN)

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class DiffForm(_Graded):
    """Differential form with exact scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def differential(chart: Chart, name: str) -> "DiffForm":
        return DiffForm._trusted(chart, 1, {(chart.index(name),): Coefficient.one(chart)})

    @staticmethod
    def volume(chart: Chart, names: Iterable[str] | None = None) -> "DiffForm":
        positions = tuple(sorted(chart.index(n) for n in names)) if names is not None else tuple(
            range(chart.dimension)
        )
        _index_tuples([positions], len(positions), chart.dimension)  # refuses a repeated name
        return DiffForm._trusted(chart, len(positions), {positions: Coefficient.one(chart)})


class MultiVector(_Graded):
    """Alternating multivector field with exact scalar coefficients."""

    # what schouten_nijenhuis derives from the field alone, filled by
    # _schouten_inputs on the first bracket (module docstring)
    __slots__ = ("_schouten",)

    @staticmethod
    def basis_vector(chart: Chart, name: str) -> "MultiVector":
        return MultiVector._trusted(chart, 1, {(chart.index(name),): Coefficient.one(chart)})


def wedge(a: _Graded, b: _Graded) -> _Graded:
    """Graded exterior product of two forms or two multivectors."""
    if type(a) is not type(b):
        raise StructuralError(f"cannot wedge {type(a).__name__} with {type(b).__name__}")
    if a.chart != b.chart:
        raise StructuralError("operands live on different charts")
    pairs = [(merged, I, J) for I in a.terms for J in b.terms if (merged := _merge_indices(I, J)) is not None]
    # each side clears only the coefficients that take part: all of them
    # when every pair of keys meets
    origin = a.chart.origin
    if len(pairs) == len(a.terms) * len(b.terms):
        (La, A), (Lb, B) = _cleared(a.terms), _cleared(b.terms, origin)
    else:
        La, A = _cleared({I: a.terms[I] for _, I, _ in pairs})
        Lb, B = _cleared({J: b.terms[J] for _, _, J in pairs}, origin)
    items = ((sign, key, A[I], B[J]) for (sign, key), I, J in pairs)
    return a._trusted(a.chart, a.degree + b.degree, _products(a.chart, items, La * Lb))


def exterior_derivative(omega: DiffForm) -> DiffForm:
    """d(c·dx^I) = Σ_j (∂c/∂x_j) dx^j ∧ dx^I, exactly."""
    if not isinstance(omega, DiffForm):
        raise StructuralError("exterior derivative applies to differential forms")
    chart = omega.chart
    pieces = (
        (merged[1], c.partial(chart.coordinates[j]).scale(merged[0]))
        for I, c in omega.terms.items()
        for j in _positions(chart, c.terms)
        if (merged := _merge_indices((j,), I)) is not None
    )
    return DiffForm._trusted(chart, omega.degree + 1, _accumulate(pieces))


def _contracted(U: MultiVector, omega: DiffForm) -> DiffForm:
    """ι_U ω for U of degree ≥ 1: U coefficient × ω coefficient for every
    pair of keys that meets, of degree ω.degree − U.degree.  A key of U
    longer than ω's meets none, so past the bottom degree this is the zero
    of that negative degree."""
    products = (
        (hit[1], (c * k).scale(hit[0]))
        for J, c in U.terms.items()
        for I, k in omega.terms.items()
        if J[0] in I and (hit := _contract_key(J, I)) is not None
    )
    return DiffForm._trusted(omega.chart, omega.degree - U.degree, _accumulate(products))


def interior_product(U: MultiVector, omega: DiffForm, strict: bool = False) -> DiffForm:
    """ι_U ω, of degree ω.degree − U.degree.  Degree-zero U multiplies; U
    too long gives the zero form of that (negative) degree, or raises
    DegreeError when ``strict`` is on, as for outside input."""
    if not isinstance(U, MultiVector) or not isinstance(omega, DiffForm):
        raise StructuralError("interior product takes a multivector and a form")
    if U.chart != omega.chart:
        raise StructuralError("operands live on different charts")
    if U.degree == 0:
        return omega.scale(U.scalar())
    if strict and U.degree > omega.degree:
        raise DegreeError(f"cannot contract a degree-{U.degree} multivector into a degree-{omega.degree} form")
    return _contracted(U, omega)


def lie_derivative(U: MultiVector, omega: DiffForm) -> DiffForm:
    """𝓛_U ω = d ι_U ω − (−1)^p ι_U dω, of degree ω.degree − p + 1; a
    contraction past the bottom degree is the zero of its negative degree."""
    p = U.degree
    first = exterior_derivative(interior_product(U, omega))
    second = interior_product(U, exterior_derivative(omega))
    return first + second.scale((-1) ** (p + 1))


class _SchoutenInputs:
    """What ``schouten_nijenhuis`` derives from one multivector alone: the
    lcm of its value denominators and its cleared terms (``_cleared``),
    the support mask of each term (``coeffring._support_mask``), made when
    the first i is met, and ∂/∂xⁱ of the terms whose coefficient depends
    on xⁱ, keyed less the origin, for each coordinate i met so far."""

    __slots__ = ("lcm", "cleared", "supports", "partials")

    def __init__(self, U: MultiVector):
        self.lcm, self.cleared = _cleared(U.terms)
        self.supports: list[tuple[tuple[int, ...], dict, int]] | None = None
        self.partials: dict[int, list[tuple[tuple[int, ...], dict]]] = {}


def _schouten_inputs(U: MultiVector) -> _SchoutenInputs:
    """The Schouten inputs of ``U``, made on its first bracket and kept on
    it; exact, since nothing writes to the terms of a built object."""
    inputs = getattr(U, "_schouten", None)
    if inputs is None:
        inputs = U._schouten = _SchoutenInputs(U)
    return inputs


def schouten_nijenhuis(U: MultiVector, V: MultiVector) -> MultiVector:
    """Graded bracket of multivector fields, of degree p + q − 1, by the
    odd-variable formula of the module docstring; one double loop over the
    term pairs of each ordering, with no special case for a scalar operand.
    Two scalars and operands on different charts are refused first; then
    an operand with no terms gives the empty multivector of degree
    p + q − 1 at once, since every term of the bracket is a product of a
    U term with a V term."""
    p, q = U.degree, V.degree
    if p == 0 and q == 0:
        raise DegreeError("the graded bracket of two scalars is not defined")
    if U.chart != V.chart:
        raise StructuralError("operands live on different charts")
    chart, origin = U.chart, U.chart.origin
    if not U.terms or not V.terms:
        return MultiVector._trusted(chart, p + q - 1, {})
    # every term of each operand can take part, so each is cleared whole,
    # once in its lifetime
    U_in, V_in = _schouten_inputs(U), _schouten_inputs(V)

    def half(A: _SchoutenInputs, B: _SchoutenInputs, sign: int):
        # sign · Σᵢ ∂ᴿA/∂ξᵢ · ∂B/∂xⁱ as kernel items; ∂B/∂xⁱ is taken once
        # per i in B's lifetime, keyed less the origin as a right operand,
        # and only of the terms whose coefficient depends on xⁱ (read off
        # one support mask per term, made when the first i is met)
        derivatives = B.partials
        for J, c in A.cleared.items():
            for i, rest, odd in _odd_parts(J):
                if i not in derivatives:
                    if B.supports is None:
                        B.supports = [(K, e, _support_mask(chart, e)) for K, e in B.cleared.items()]
                    derivatives[i] = [(K, _partial_terms(chart, e, i, origin)) for K, e, m in B.supports if m >> i & 1]
                right = sign * odd
                for K, de in derivatives[i]:
                    merged = _merge_indices(rest, K)
                    if merged is not None:
                        yield right * merged[0], merged[1], c, de

    # (p − 1)(q − 1) is negative when an operand is a scalar; both halves
    # are products of a U term with a V term, so they share one denominator
    swap = -1 if (p - 1) * (q - 1) % 2 else 1
    items = itertools.chain(half(U_in, V_in, 1), half(V_in, U_in, -swap))
    return MultiVector._trusted(chart, p + q - 1, _products(chart, items, U_in.lcm * V_in.lcm))
