"""Exact linear algebra over the scalar ring and its fraction field.

Matrices have Coefficient entries (or Frac entries, pairs of Coefficients
read as num/den).  Elimination runs over the fraction field with a fixed
left-to-right column order so results are deterministic.  Pivots that are
invertible in the ring keep every conclusion valid at every chart point;
when elimination is forced onto a non-invertible pivot the result is
tagged ``generic_only`` — rank and membership claims then hold off the
pivot's zero locus only.  All the structures this package builds pivot on
units, so the tag mostly exists to keep us honest.

Only the work a caller reads is done.  Row operations skip the zero
entries of the pivot row, which is most of them in kernel and contraction
matrices.  ``solve_affine`` reports the kernel's dimension (``nullity``)
at once but builds the denominator-cleared kernel basis only when its
``homogeneous`` attribute is first read.  An ``RrefResult`` reduces any
number of vectors against one elimination of its span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .coeffring import Chart, Coefficient, _accumulate
from .errors import DomainError, StructuralError

__all__ = [
    "Frac",
    "exact_divide",
    "rref",
    "RrefResult",
    "nullspace",
    "solve_affine",
    "AffineSolution",
    "reduce_mod_span",
    "is_in_span",
]


# ---------------------------------------------------------------------------
# content / primitive-part bookkeeping
# ---------------------------------------------------------------------------


def _content(c: Coefficient) -> tuple[Fraction, tuple[int, ...]]:
    """Rational content and componentwise minimal exponent vector."""
    if c.is_zero():
        raise StructuralError("zero has no content")
    nums = [abs(v.numerator) for v in c.terms.values()]
    dens = [v.denominator for v in c.terms.values()]
    rational = Fraction(math.gcd(*nums), math.lcm(*dens))
    mono = tuple(min(e[i] for e in c.terms) for i in range(c.chart.dimension))
    return rational, mono


def _strip(c: Coefficient) -> tuple[Fraction, tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Write c = content * monomial * P with P a primitive ordinary
    polynomial whose leading coefficient is positive."""
    content, mono = _content(c)
    raw = {
        tuple(k - m for k, m in zip(expo, mono)): coeff / content
        for expo, coeff in c.terms.items()
    }
    lead = max(raw)
    if raw[lead] < 0:
        content = -content
        raw = {e: -v for e, v in raw.items()}
    return content, mono, raw


def _poly_divide(F: dict, G: dict) -> dict | None:
    """Exact quotient of ordinary polynomial dicts, or None.  Greedy
    leading-term division in lex order; exact divisibility guarantees the
    leading term always divides."""
    quotient: dict[tuple[int, ...], Fraction] = {}
    remainder = dict(F)
    g_lead = max(G)
    g_coeff = G[g_lead]
    while remainder:
        r_lead = max(remainder)
        step = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(k < 0 for k in step):
            return None
        factor = remainder[r_lead] / g_coeff
        quotient[step] = factor
        _accumulate(
            ((tuple(a + b for a, b in zip(expo, step)), -factor * coeff) for expo, coeff in G.items()),
            remainder,
        )
    return quotient


def exact_divide(f: Coefficient, g: Coefficient) -> Coefficient:
    """f / g when g divides f in the Laurent ring; DomainError otherwise."""
    if g.is_zero():
        raise DomainError("division by zero")
    if f.is_zero():
        return Coefficient.zero(f.chart)
    if f.chart != g.chart:
        raise StructuralError("operands live on different charts")
    cf, mf, F = _strip(f)
    cg, mg, G = _strip(g)
    Q = _poly_divide(F, G)
    if Q is None:
        raise DomainError(f"({f}) is not divisible by ({g})")
    shift = tuple(a - b for a, b in zip(mf, mg))
    scale = cf / cg
    try:
        return Coefficient(
            f.chart,
            {tuple(a + b for a, b in zip(expo, shift)): coeff * scale for expo, coeff in Q.items()},
        )
    except DomainError:
        raise DomainError(
            f"({f}) / ({g}) leaves the ring: a coordinate not flagged nonvanishing "
            "would need a negative exponent"
        ) from None


# ---------------------------------------------------------------------------
# fraction field
# ---------------------------------------------------------------------------


class Frac:
    """num/den over the scalar ring, kept lightly normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num: Coefficient, den: Coefficient | None = None, _normalize: bool = True):
        if den is None:
            den = Coefficient.one(num.chart)
        if den.is_zero():
            raise DomainError("fraction with zero denominator")
        if num.chart != den.chart:
            raise StructuralError("numerator and denominator on different charts")
        if _normalize and not num.is_zero():
            num, den = _normalize_pair(num, den)
        elif num.is_zero():
            den = Coefficient.one(num.chart)
        self.num = num
        self.den = den

    @property
    def chart(self) -> Chart:
        return self.num.chart

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_ring(self) -> bool:
        if self.den.is_unit():
            return True
        try:
            exact_divide(self.num, self.den)
            return True
        except DomainError:
            return False

    def to_coefficient(self) -> Coefficient:
        if self.den.is_unit():
            return self.num * self.den.unit_inverse()
        return exact_divide(self.num, self.den)

    def honest_unit(self) -> bool:
        """Invertible at every chart point: both parts are ring units."""
        return self.num.is_unit() and self.den.is_unit()

    def __add__(self, other: "Frac") -> "Frac":
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Frac") -> "Frac":
        return self + (-other)

    def __neg__(self) -> "Frac":
        return Frac(-self.num, self.den, _normalize=False)

    def __mul__(self, other: "Frac") -> "Frac":
        return Frac(self.num * other.num, self.den * other.den)

    def inverse(self) -> "Frac":
        if self.is_zero():
            raise DomainError("inverting zero")
        return Frac(self.den, self.num)

    def __truediv__(self, other: "Frac") -> "Frac":
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equal values need not share a representation: (x+1)(y+1)/((x+1)(z+1))
    # equals (y+1)/(z+1) but keeps the common factor, so no hash of the
    # parts can agree with ==
    __hash__ = None

    def __repr__(self):
        if self.den == Coefficient.one(self.chart):
            return f"Frac({self.num})"
        return f"Frac(({self.num}) / ({self.den}))"


def _normalize_pair(num: Coefficient, den: Coefficient) -> tuple[Coefficient, Coefficient]:
    chart = num.chart
    cn, mn, N = _strip(num)
    cd, md, D = _strip(den)
    scale = cn / cd
    shift = tuple(a - b for a, b in zip(mn, md))
    # split the monomial quotient into what the numerator may legally carry
    # and a leftover monomial that stays below the line
    carry = tuple(
        k if (k >= 0 or name in chart.nonvanishing) else 0
        for k, name in zip(shift, chart.coordinates)
    )
    leftover = tuple(c - k for c, k in zip(carry, shift))
    if len(D) == 1 and max(D) == (0,) * chart.dimension:
        quotient = N
    else:
        quotient = _poly_divide(N, D)
    if quotient is not None:
        return (
            Coefficient(chart, {_shift(e, carry, chart): v * scale for e, v in quotient.items()}),
            Coefficient(chart, {leftover: Fraction(1)}),
        )
    return (
        Coefficient(chart, {_shift(e, carry, chart): v * scale for e, v in N.items()}),
        Coefficient(chart, {_shift(e, leftover, chart): v for e, v in D.items()}),
    )


def _shift(expo: tuple[int, ...], by: tuple[int, ...], chart: Chart) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(expo, by))


def _to_frac(entry, chart: Chart | None) -> Frac:
    """A matrix entry as a Frac; plain rationals need the chart."""
    if isinstance(entry, Frac):
        return entry
    if isinstance(entry, (int, Fraction)) and chart is not None:
        entry = Coefficient.constant(chart, entry)
    if isinstance(entry, Coefficient):
        # a ring element over 1 is already in normal form
        return Frac(entry, _normalize=False)
    raise StructuralError(f"matrix entries must be Coefficient or Frac, got {type(entry).__name__}")


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RrefResult:
    rows: list[list[Frac]]
    pivots: list[tuple[int, int]]  # (row, column)
    generic_only: bool

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivot_columns(self) -> list[int]:
        return [c for _, c in self.pivots]

    def reduce(self, vector: Sequence[Coefficient | Frac]) -> list[Frac]:
        """Canonical representative of ``vector`` modulo the row span:
        pivot columns of the span are zeroed out, everything else is
        untouched.  Reduce many vectors against one elimination this way."""
        if self.rows and len(vector) != len(self.rows[0]):
            raise StructuralError("vector and span have different lengths")
        vec = [_to_frac(entry, None) for entry in vector]
        for r, c in self.pivots:
            factor = vec[c]
            if factor.is_zero():
                continue
            for j, b in enumerate(self.rows[r]):
                if not b.is_zero():
                    vec[j] = vec[j] - factor * b
        return vec


def _matrix(rows: Sequence[Sequence], chart: Chart) -> list[list[Frac]]:
    zero = Frac(Coefficient.zero(chart))  # shared: most cells of a kernel matrix are zero
    return [
        [
            zero if isinstance(entry, Coefficient) and entry.is_zero() else _to_frac(entry, chart)
            for entry in row
        ]
        for row in rows
    ]


def _eliminate(mat: list[list[Frac]], ncols: int) -> tuple[list[tuple[int, int]], bool]:
    """In-place Gauss–Jordan elimination on the first ``ncols`` columns.

    Honest-unit pivots (invertible at every chart point) are taken first,
    scanning columns left to right; only when none remain anywhere does
    elimination pivot on a non-unit entry, flagging the result as valid
    at generic points only.  Deterministic throughout.  Row operations
    touch only the columns where the pivot row is nonzero: a − f·0 = a
    and 0·inv = 0.
    """
    pivots: list[tuple[int, int]] = []
    generic = False
    used_rows: set[int] = set()
    used_cols: set[int] = set()

    def run_pass(honest_only: bool) -> bool:
        nonlocal generic
        progressed = False
        for col in range(ncols):
            if col in used_cols:
                continue
            candidates = [
                r for r in range(len(mat)) if r not in used_rows and not mat[r][col].is_zero()
            ]
            if honest_only:
                candidates = [r for r in candidates if mat[r][col].honest_unit()]
            if not candidates:
                continue
            row = candidates[0]
            if not honest_only:
                generic = True
            pivot_row = mat[row]
            live = [j for j, entry in enumerate(pivot_row) if not entry.is_zero()]
            inv = pivot_row[col].inverse()
            for j in live:
                pivot_row[j] = pivot_row[j] * inv
            for r, target in enumerate(mat):
                if r != row and not target[col].is_zero():
                    factor = target[col]
                    for j in live:
                        target[j] = target[j] - factor * pivot_row[j]
            used_rows.add(row)
            used_cols.add(col)
            pivots.append((row, col))
            progressed = True
        return progressed

    while run_pass(honest_only=True):
        pass
    while run_pass(honest_only=False):
        while run_pass(honest_only=True):
            pass
    pivots.sort(key=lambda rc: rc[1])
    return pivots, generic


def rref(rows: Sequence[Sequence], chart: Chart) -> RrefResult:
    """Reduced row echelon form over the fraction field (up to row order),
    with honest-unit pivots preferred over the whole matrix."""
    mat = _matrix(rows, chart)
    if not mat:
        return RrefResult([], [], False)
    ncols = len(mat[0])
    if any(len(row) != ncols for row in mat):
        raise StructuralError("ragged matrix")
    pivots, generic = _eliminate(mat, ncols)
    return RrefResult(mat, pivots, generic)


def _clear_denominators(vector: list[Frac], chart: Chart) -> list[Coefficient]:
    # a common multiple of the non-unit denominators: taken largest first,
    # a denominator that already divides the multiplier adds nothing
    dens = [entry.den for entry in vector if not entry.den.is_unit()]
    multiplier = Coefficient.one(chart)
    for d in sorted(dens, key=Coefficient.max_degree, reverse=True):
        try:
            exact_divide(multiplier, d)
        except DomainError:
            multiplier = multiplier * d
    cleared = [(entry * Frac(multiplier)).to_coefficient() for entry in vector]
    live = [c for c in cleared if not c.is_zero()]
    if not live:
        return cleared
    # strip common content and fix the overall sign deterministically
    contents = [_strip(c) for c in live]
    rational = contents[0][0]
    for c, _, _ in contents[1:]:
        rational = Fraction(
            math.gcd(abs(rational.numerator), abs(c.numerator)),
            math.lcm(rational.denominator, c.denominator),
        )
    mono = [min(ms) for ms in zip(*(m for _, m, _ in contents))]
    legal = tuple(
        m if (m >= 0 or name in chart.nonvanishing) else 0
        for m, name in zip(mono, chart.coordinates)
    )
    divisor = Coefficient(chart, {legal: rational})
    out = [exact_divide(c, divisor) if not c.is_zero() else c for c in cleared]
    first = next(c for c in out if not c.is_zero())
    if _strip(first)[0] < 0:
        out = [-c for c in out]
    return out


def _kernel_basis(
    rows: list[list[Frac]], pivots: list[tuple[int, int]], ncols: int, chart: Chart
) -> list[list[Coefficient]]:
    """One denominator-cleared kernel vector per free column among the
    first ``ncols`` columns of a reduced matrix."""
    pivot_cols = {c for _, c in pivots}
    zero = Frac(Coefficient.zero(chart))
    one = Frac(Coefficient.one(chart))
    basis = []
    for col in range(ncols):
        if col in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[col] = one
        for r, c in pivots:
            vec[c] = -rows[r][col]
        basis.append(_clear_denominators(vec, chart))
    return basis


def nullspace(rows: Sequence[Sequence], chart: Chart) -> list[list[Coefficient]]:
    """Right-nullspace basis with denominators cleared, one vector per free
    column, deterministic up to the fixed column order."""
    result = rref(rows, chart)
    if not result.rows:
        return []
    return _kernel_basis(result.rows, result.pivots, len(result.rows[0]), chart)


@dataclass(frozen=True)
class AffineSolution:
    """Solution of A x = b.  ``particular`` is None when the system is
    inconsistent.  ``nullity``, the kernel dimension of A, is known at
    once; the denominator-cleared ``homogeneous`` basis of that kernel is
    built from the kept reduced matrix on first read."""

    particular: list[Frac] | None
    nullity: int
    generic_only: bool
    _rows: list[list[Frac]] = field(repr=False, compare=False)
    _pivots: list[tuple[int, int]] = field(repr=False, compare=False)
    _chart: Chart = field(repr=False, compare=False)

    @cached_property
    def homogeneous(self) -> list[list[Coefficient]]:
        ncols = self.nullity + len(self._pivots)
        return _kernel_basis(self._rows, self._pivots, ncols, self._chart)

    def coefficient_solution(self) -> list[Coefficient]:
        if self.particular is None:
            raise DomainError("the linear system is inconsistent")
        return [entry.to_coefficient() for entry in self.particular]


def solve_affine(rows: Sequence[Sequence], rhs: Sequence, chart: Chart) -> AffineSolution:
    """Solve A x = b over the fraction field.  ``particular`` is None when
    inconsistent; ``nullity`` is the kernel dimension of A, and
    ``homogeneous``, a basis of that kernel, is built on first read."""
    mat = _matrix(rows, chart)
    b = [_to_frac(entry, chart) for entry in rhs]
    if len(mat) != len(b):
        raise StructuralError("matrix and right-hand side have different heights")
    ncols = len(mat[0]) if mat else 0
    augmented = [row + [bi] for row, bi in zip(mat, b)]
    zero = Frac(Coefficient.zero(chart))

    pivots, generic = _eliminate(augmented, ncols)

    consistent = all(
        row[-1].is_zero() or any(not entry.is_zero() for entry in row[:-1]) for row in augmented
    )
    particular = None
    if consistent:
        particular = [zero] * ncols
        for r, c in pivots:
            particular[c] = augmented[r][-1]
    return AffineSolution(particular, ncols - len(pivots), generic, augmented, pivots, chart)


def reduce_mod_span(vector: Sequence, basis: Sequence[Sequence], chart: Chart) -> list[Frac]:
    """Canonical representative of ``vector`` modulo the row span of
    ``basis`` over the fraction field: pivot columns of the span are
    zeroed out, everything else is untouched."""
    vec = [_to_frac(entry, chart) for entry in vector]
    if not basis:
        return vec
    return rref(basis, chart).reduce(vec)


def is_in_span(vector: Sequence, basis: Sequence[Sequence], chart: Chart) -> bool:
    return all(entry.is_zero() for entry in reduce_mod_span(vector, basis, chart))
