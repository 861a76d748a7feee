"""Exact linear algebra over the scalar ring.

Matrices have Coefficient entries and elimination never leaves the Laurent
ring; there is no fraction field.  Columns are scanned left to right, so
results are deterministic.  A pivot that is a unit of the ring (invertible
at every chart point) is scaled to 1 by its inverse and cleared from the
other rows with ring operations.  Only when no unit pivot remains anywhere
does elimination pivot on a non-unit entry p.  It clears p's column from
another row by cross-multiplying, row <- p*row - a*pivot_row, the
fraction-free step of Bareiss 1968 without its division by the previous
pivot, and tags the result ``generic_only``: rank and membership claims
then hold off the pivot's zero locus only.  All the structures this
package builds pivot on units, so the tag mostly exists to keep us honest.

``rref`` is the one way into elimination and ``RrefResult`` its one
result.  Its ``unknowns`` argument limits pivots to the leading columns;
the trailing columns are right-hand sides, carried through every row
operation but never pivoted on, so one elimination of [A | b_0 ... b_k]
solves A x = b_j for every j (``solution(j)``).  The same result gives
the kernel of A (``nullity`` and ``kernel``), and reduces vectors modulo
the row span (``reduce`` and ``contains``).

A result is read by one rule.  A pivot row stands for its entries divided
by its pivot entry, which is 1 for a unit pivot, and a reduced vector
stands for its entries divided by one common denominator, the product of
the non-unit pivot entries it was reduced by (1 when there are none).

Only the work a caller reads is done.  Row operations by a unit pivot skip
the zero entries of the pivot row, which is most of them in kernel and
contraction matrices.  ``nullity`` is known at once, but the cleared
kernel basis is built only when ``kernel`` is first read.

One question needs no elimination at all: a lower bound on the rank of a
sparse matrix that some rows already make plain.  ``_unit_triangular_minor``
peels, one at a time, a row left with a single nonzero entry among the
columns not yet peeled, when that entry is a unit; the peeled rows and
columns form a minor that is lower-triangular with unit diagonal, so its
determinant is a unit and the rank is at least its size.  It compares
entries with zero and asks whether they are units, and does no arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .coeffring import Chart, Coefficient, _accumulate
from .errors import DomainError, StructuralError

__all__ = ["exact_divide", "rref", "RrefResult"]


# ---------------------------------------------------------------------------
# content / primitive-part bookkeeping
# ---------------------------------------------------------------------------


def _content(c: Coefficient) -> tuple[Fraction, tuple[int, ...]]:
    """Rational content, always a Fraction (so a stored value divided by
    it stays exact, even an int), and componentwise minimal exponent
    vector."""
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
    leading term always divides.  F and G come from ``_strip``, whose
    values are Fractions, so every quotient stays exact."""
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
    if g.is_unit():
        return f * g.unit_inverse()
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
# elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RrefResult:
    """A reduced matrix.  Its first ``nullity + rank`` columns are the
    unknowns, and every pivot lies among them; any later columns are
    right-hand sides, carried through every row operation.  The row of a
    pivot (r, c) stands for rows[r] / rows[r][c], and rows[r][c] is 1 when
    the pivot is a unit; every other row is zero on the unknowns.
    ``pivots`` are sorted by column."""

    rows: list[list[Coefficient]]
    pivots: list[tuple[int, int]]  # (row, column)
    generic_only: bool
    nullity: int  # free unknowns, the dimension of the kernel
    _chart: Chart = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivot_columns(self) -> list[int]:
        return [c for _, c in self.pivots]

    @cached_property
    def kernel(self) -> list[list[Coefficient]]:
        """Kernel basis of the unknowns with denominators cleared, one
        vector per free column, built on first read."""
        return _kernel_basis(self.rows, self.pivots, self.nullity + self.rank, self._chart)

    def solution(self, j: int) -> list[Coefficient]:
        """The solution of A x = b_j, b_j the j-th right-hand side, in ring
        coefficients: x_c = rows[r][k + j] / rows[r][c] at each pivot
        (r, c), k the number of unknowns, and 0 at free columns.
        DomainError when b_j is inconsistent or the solution leaves the
        ring."""
        unknowns = self.nullity + self.rank
        col = unknowns + j
        if j < 0 or not self.rows or col >= len(self.rows[0]):
            raise StructuralError(f"there is no right-hand side {j}")
        if any(not row[col].is_zero() and all(a.is_zero() for a in row[:unknowns]) for row in self.rows):
            raise DomainError("the linear system is inconsistent")
        values = [Coefficient.zero(self._chart)] * unknowns
        for r, c in self.pivots:
            values[c] = exact_divide(self.rows[r][col], self.rows[r][c])
        return values

    def reduce(self, vector: Sequence[Coefficient]) -> tuple[list[Coefficient], Coefficient]:
        """Canonical representative of ``vector`` modulo the row span, as
        entries and one common denominator; its value is the entries
        divided by the denominator.  Pivot columns of the span are zeroed
        out and every other column keeps its value.  The denominator is the
        product of the non-unit pivot entries the reduction used, 1 when it
        used none.  Reduce many vectors against one elimination this way."""
        if self.rows and len(vector) != len(self.rows[0]):
            raise StructuralError("vector and span have different lengths")
        vec = list(vector)
        one = Coefficient.one(self._chart)
        den = one
        for r, c in self.pivots:
            factor = vec[c]
            if factor.is_zero():
                continue
            row, pivot = self.rows[r], self.rows[r][c]
            if pivot == one:
                for j, b in enumerate(row):
                    if not b.is_zero():
                        vec[j] = vec[j] - factor * b
            else:
                vec = _cross_multiply(vec, row, pivot, factor)
                den = den * pivot
        return vec, den

    def contains(self, vector: Sequence[Coefficient]) -> bool:
        """Does ``vector`` lie in the row span?"""
        reduced, _ = self.reduce(vector)
        return all(entry.is_zero() for entry in reduced)


def _entry(entry, chart: Chart) -> Coefficient:
    """A matrix entry as a Coefficient; plain rationals are constants."""
    if isinstance(entry, Coefficient):
        return entry
    if isinstance(entry, (int, Fraction)):
        return Coefficient.constant(chart, entry)
    raise StructuralError(f"matrix entries must be Coefficient, got {type(entry).__name__}")


def _matrix(rows: Sequence[Sequence], chart: Chart) -> list[list[Coefficient]]:
    return [[_entry(entry, chart) for entry in row] for row in rows]


def _cross_multiply(
    target: list[Coefficient], pivot_row: list[Coefficient], pivot: Coefficient, factor: Coefficient
) -> list[Coefficient]:
    """pivot * target - factor * pivot_row, entries zero in both skipped."""
    return [pivot * a - factor * b if a or b else a for a, b in zip(target, pivot_row)]


def _eliminate(mat: list[list[Coefficient]], ncols: int) -> tuple[list[tuple[int, int]], bool]:
    """In-place Gauss–Jordan elimination on the first ``ncols`` columns.

    Honest-unit pivots (invertible at every chart point) are taken first,
    scanning columns left to right; only when none remain anywhere does
    elimination pivot on a non-unit entry, flagging the result as valid
    at generic points only.  Deterministic throughout.  Row operations by
    a unit pivot touch only the columns where the pivot row is nonzero:
    a - f*0 = a and 0*inv = 0.
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
                candidates = [r for r in candidates if mat[r][col].is_unit()]
            if not candidates:
                continue
            row = candidates[0]
            if not honest_only:
                generic = True
            pivot_row = mat[row]
            pivot = pivot_row[col]
            if pivot.is_unit():
                live = [j for j, entry in enumerate(pivot_row) if not entry.is_zero()]
                inv = pivot.unit_inverse()
                for j in live:
                    pivot_row[j] = pivot_row[j] * inv
                for r, target in enumerate(mat):
                    if r != row and not target[col].is_zero():
                        factor = target[col]
                        for j in live:
                            target[j] = target[j] - factor * pivot_row[j]
            else:
                for r, target in enumerate(mat):
                    if r != row and not target[col].is_zero():
                        mat[r] = _cross_multiply(target, pivot_row, pivot, target[col])
            used_rows.add(row)
            used_cols.add(col)
            pivots.append((row, col))
            progressed = True
        return progressed

    # Every honest pass runs before the first cross-multiplication, so each
    # row still stands for itself and an entry is an honest unit exactly
    # when it is a unit.  One non-honest pass then finishes: it pivots on
    # every column with a nonzero entry in an unused row, and its row
    # operations combine unused rows only, so no such entry is left behind.
    while run_pass(honest_only=True):
        pass
    run_pass(honest_only=False)
    pivots.sort(key=lambda rc: rc[1])
    return pivots, generic


def rref(rows: Sequence[Sequence], chart: Chart, unknowns: int | None = None) -> RrefResult:
    """Reduced row echelon form over the Laurent ring (up to row order),
    with honest-unit pivots preferred over the whole matrix.  Pivots are
    taken in the first ``unknowns`` columns (all of them by default); the
    columns after those are right-hand sides."""
    mat = _matrix(rows, chart)
    ncols = len(mat[0]) if mat else 0
    if any(len(row) != ncols for row in mat):
        raise StructuralError("ragged matrix")
    unknowns = ncols if unknowns is None else unknowns
    if not 0 <= unknowns <= ncols:
        raise StructuralError(f"{unknowns} unknowns in a matrix of {ncols} columns")
    pivots, generic = _eliminate(mat, unknowns)
    return RrefResult(mat, pivots, generic, unknowns - len(pivots), chart)


def _unit_triangular_minor(rows: Sequence[Mapping[Hashable, Coefficient]]) -> list[tuple[int, Hashable]]:
    """A unit lower-triangular minor of the sparse matrix ``rows`` (each
    row a map from column key to entry), as (row index, column key) pairs
    in peeling order.  A row is peeled when exactly one of its nonzero
    entries lies in a column not yet peeled and that entry is a unit; its
    column is then peeled with it.  So the i-th row is zero in the columns
    of every later pair, and the minor has unit diagonal: the rank of the
    matrix is at least its length.  Which columns end up peeled does not
    depend on the order rows are taken in, since peeling a column only
    makes other rows easier to peel."""
    live = [{c for c, entry in row.items() if not entry.is_zero()} for row in rows]
    rows_of: dict[Hashable, list[int]] = {}
    for r, cols in enumerate(live):
        for c in cols:
            rows_of.setdefault(c, []).append(r)
    ready = [r for r, cols in enumerate(live) if len(cols) == 1]
    minor: list[tuple[int, Hashable]] = []
    for r in ready:  # grows while it is read
        if len(live[r]) != 1:
            continue  # its last column was peeled by another row
        (c,) = live[r]
        if not rows[r][c].is_unit():
            continue  # it can only lose that column now, never gain another
        minor.append((r, c))
        for other in rows_of[c]:
            live[other].discard(c)
            if len(live[other]) == 1:
                ready.append(other)
    return minor


def _divides(d: Coefficient, f: Coefficient) -> bool:
    try:
        exact_divide(f, d)
    except DomainError:
        return False
    return True


def _cleared_vector(
    col: int, ratios: list[tuple[int, Coefficient, Coefficient]], ncols: int, chart: Chart
) -> list[Coefficient]:
    """The kernel vector with x_col = 1 and x_c = a / p for each (c, a, p)
    in ``ratios``, multiplied through by a common multiple of the p that do
    not divide their a, then stripped of common content."""
    # taken largest first, a denominator that already divides the
    # multiplier adds nothing
    dens = [p for _, a, p in ratios if not p.is_unit() and not _divides(p, a)]
    multiplier = Coefficient.one(chart)
    for d in sorted(dens, key=Coefficient.max_degree, reverse=True):
        if not _divides(d, multiplier):
            multiplier = multiplier * d
    cleared = [Coefficient.zero(chart)] * ncols
    cleared[col] = multiplier
    for c, a, p in ratios:
        cleared[c] = exact_divide(a * multiplier, p)
    # strip common content and fix the overall sign deterministically
    contents = [_strip(c) for c in cleared if not c.is_zero()]
    rational = contents[0][0]
    for c, _, _ in contents[1:]:
        rational = Fraction(
            math.gcd(abs(rational.numerator), abs(c.numerator)),
            math.lcm(rational.denominator, c.denominator),
        )
    mono = tuple(min(ms) for ms in zip(*(m for _, m, _ in contents)))
    divisor = Coefficient(chart, {mono: abs(rational)})
    out = [exact_divide(c, divisor) for c in cleared]
    if contents[0][0] < 0:
        out = [-c for c in out]
    return out


def _kernel_basis(
    rows: list[list[Coefficient]], pivots: list[tuple[int, int]], ncols: int, chart: Chart
) -> list[list[Coefficient]]:
    """One cleared kernel vector per free column among the first ``ncols``
    columns of a reduced matrix: x_col = 1 and x_c = -rows[r][col] /
    rows[r][c] at each pivot (r, c)."""
    pivot_cols = {c for _, c in pivots}
    return [
        _cleared_vector(
            col,
            [(c, -rows[r][col], rows[r][c]) for r, c in pivots if not rows[r][col].is_zero()],
            ncols,
            chart,
        )
        for col in range(ncols)
        if col not in pivot_cols
    ]
