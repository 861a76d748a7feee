"""Exact linear algebra over the scalar ring.

A matrix is a list of rows, each a map from column key to Coefficient
entry, the format of the terms of a form or multivector: a key a row does
not hold is a zero entry.  Elimination never leaves the Laurent ring;
there is no fraction field.  The unknowns are scanned in one given order,
so results are deterministic.  A pivot that is a unit of the ring (invertible
at every chart point) is scaled to 1 by its inverse, unless it is 1
already, and cleared from the other rows with ring operations.  Only when no unit pivot remains anywhere
does elimination pivot on a non-unit entry p.  It clears p's column from
another row by cross-multiplying, row <- p*row - a*pivot_row, the
fraction-free step of Bareiss 1968 without its division by the previous
pivot, and tags the result ``generic_only``: rank and membership claims
then hold off the pivot's zero locus only.  All the structures this
package builds pivot on units, so the tag mostly exists to keep us honest.

``rref`` is the one way into elimination and ``RrefResult`` its one
result.  Its ``unknowns`` are the keys pivots may lie on, in order (by
default every key the rows hold, sorted); an unknown no row holds is free.
Any other key is a right-hand side, carried through every row operation
but never pivoted on, so one elimination of [A | b_0 ... b_k] solves
A x = b_j for every j (``solution(key)``).  The same result gives the
kernel of A (``kernel``), and reduces vectors modulo the
row span of A (``reduce`` and ``contains``), which no right-hand side
enters: a reduction gives what the elimination of A alone would.

A result is read by one rule.  Rows, solutions, kernel vectors and reduced
vectors are maps holding only nonzero entries.  A pivot row stands for its
entries divided by its pivot entry, which is 1 for a unit pivot, and a
reduced vector stands for its entries divided by one common denominator,
the product of the non-unit pivot entries it was reduced by (1 when there
are none).

Only the work a caller reads is done.  A row operation touches only the
keys of the pivot row, and an unknown no row holds is never scanned.
The rank is known at once, but the cleared kernel basis is built only
when ``kernel`` is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .coeffring import Chart, Coefficient, _accumulate, _check_range, _negative_name, _slot_bound, _slots_at_least
from .errors import DomainError, StructuralError

__all__ = ["exact_divide", "rref", "RrefResult"]


# ---------------------------------------------------------------------------
# content / primitive-part bookkeeping
# ---------------------------------------------------------------------------


def _content(c: Coefficient) -> tuple[int, int, int]:
    """Rational content g / den as two ints, g the gcd of the numerators
    ``nums`` and ``den`` the coefficient's denominator, already in lowest
    terms since ``nums`` and ``den`` share no factor; and the packed key
    of the componentwise minimal exponent vector."""
    if c.is_zero():
        raise StructuralError("zero has no content")
    return math.gcd(*c.nums.values()), c.den, _slot_bound(c.chart, c.nums)


def _poly_divide(F: dict, G: dict, chart: Chart) -> dict | None:
    """Exact quotient of Laurent term dicts under packed keys, or None.
    Greedy leading-term division in lex order, which is the order of the
    packed keys and a total order compatible with products, so exact
    divisibility guarantees the leading term always divides.  A Laurent
    slot has no floor, so the quotient's box stands in for one: when G
    divides F, each exponent of the quotient lies between the slotwise
    minima's difference min F - min G and the maxima's max F - max G (the
    ring has no zero divisors).  A step outside that box returns None;
    inside it every remainder key stays inside F's box, so each key is
    valid and the strictly falling leading keys, finitely many, end the
    loop.  The box test compares distances from the box's corners, which
    are never negative.  The values are ints or Fractions, and G's are
    divided as Fractions, so every quotient stays exact; its keys are
    differences of valid keys plus the origin, so one guard test covers
    them."""
    origin = chart.origin
    f_low, f_high = _slot_bound(chart, F), _slot_bound(chart, F, upper=True)
    g_lead = max(G)
    g_coeff = Fraction(G[g_lead])
    g_above_low = g_lead - _slot_bound(chart, G)
    g_below_high = _slot_bound(chart, G, upper=True) - g_lead
    quotient: dict[int, Fraction] = {}
    remainder = dict(F)
    seen = 0
    while remainder:
        r_lead = max(remainder)
        if not (
            _slots_at_least(chart, r_lead - f_low, g_above_low)
            and _slots_at_least(chart, f_high - r_lead, g_below_high)
        ):
            return None
        shift = r_lead - g_lead
        factor = remainder[r_lead] / g_coeff
        quotient[shift + origin] = factor
        seen |= shift + origin
        _accumulate(((key + shift, -factor * coeff) for key, coeff in G.items()), remainder)
    _check_range(chart, seen)
    return quotient


def exact_divide(f: Coefficient, g: Coefficient) -> Coefficient:
    """f / g when g divides f in the Laurent ring; DomainError otherwise.
    A division by 1 is f itself."""
    if g.is_zero():
        raise DomainError("division by zero")
    if f.is_zero():
        return Coefficient.zero(f.chart)
    if f.chart != g.chart:
        raise StructuralError("operands live on different charts")
    if g.is_unit():
        return f if g.den == 1 and g.nums == {g.chart.origin: 1} else f * g.unit_inverse()
    # f / g is the quotient of the numerators times g.den / f.den
    Q = _poly_divide(f.nums, g.nums, f.chart)
    if Q is None:
        raise DomainError(f"({f}) is not divisible by ({g})")
    if _negative_name(f.chart, Q) is not None:
        raise DomainError(
            f"({f}) / ({g}) leaves the ring: a coordinate not flagged nonvanishing "
            "would need a negative exponent"
        )
    ratio = Fraction(g.den, f.den)
    return Coefficient._checked(f.chart, {key: value * ratio for key, value in Q.items()})


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RrefResult:
    """A reduced matrix.  Its rows map column keys to nonzero entries.
    ``unknowns`` are the keys pivots may lie on, in the order they were
    scanned; every other key is a right-hand side, carried through every
    row operation.  The row of a pivot (r, c) stands for rows[r] /
    rows[r][c], and rows[r][c] is 1 when the pivot is a unit; every other
    row holds no unknown.  ``pivots`` are sorted in unknowns order."""

    rows: list[dict[Hashable, Coefficient]]
    pivots: list[tuple[int, Hashable]]  # (row, column key)
    generic_only: bool
    unknowns: tuple[Hashable, ...]
    _chart: Chart = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def _positions(self) -> dict[Hashable, int]:
        return {c: i for i, c in enumerate(self.unknowns)}

    @cached_property
    def kernel(self) -> list[dict[Hashable, Coefficient]]:
        """Kernel basis of the unknowns with denominators cleared, one map
        per free unknown in unknowns order, built on first read."""
        return _kernel_basis(self.rows, self.pivots, self._positions, self._chart)

    def solution(self, key: Hashable) -> dict[Hashable, Coefficient]:
        """The solution of A x = b, b the right-hand side ``key``, as a map
        from each unknown to its nonzero ring value: x_c = rows[r][key] /
        rows[r][c] at each pivot (r, c), and 0 at every free unknown.
        DomainError when b is inconsistent or the solution leaves the
        ring."""
        if key in self._positions:
            raise StructuralError(f"{key!r} is an unknown, not a right-hand side")
        pivot_rows = {r for r, _ in self.pivots}
        if any(key in row for r, row in enumerate(self.rows) if r not in pivot_rows):
            raise DomainError("the linear system is inconsistent")
        return {c: exact_divide(self.rows[r][key], self.rows[r][c]) for r, c in self.pivots if key in self.rows[r]}

    @cached_property
    def _spanning_rows(self) -> list[dict[Hashable, Coefficient]]:
        return [{key: v for key, v in row.items() if key in self._positions} for row in self.rows]

    def reduce(self, vector: Mapping[Hashable, Coefficient]) -> tuple[dict[Hashable, Coefficient], Coefficient]:
        """Canonical representative of ``vector`` (a map from column key to
        entry) modulo the row span of A, as nonzero entries and one common
        denominator; its value is the entries divided by the denominator.
        Pivot columns of the span are cleared and every other key keeps
        its value.  The denominator is the product of the non-unit pivot
        entries the reduction used, 1 when it used none."""
        vec = _row(vector)
        one = Coefficient.one(self._chart)
        den = one
        rows = self._spanning_rows  # the rows of A: no right-hand side enters
        for r, c in self.pivots:
            factor = vec.get(c)
            if factor is None:
                continue
            row, pivot = rows[r], rows[r][c]
            if pivot == one:
                _subtract(vec, factor, row)
            else:
                vec = _cross_multiply(vec, row, pivot, factor)
                den = den * pivot
        return vec, den

    def contains(self, vector: Mapping[Hashable, Coefficient]) -> bool:
        """Does ``vector`` lie in the row span of A (``reduce``)?"""
        return not self.reduce(vector)[0]


def _row(row: Mapping[Hashable, Coefficient]) -> dict[Hashable, Coefficient]:
    """A copy of a matrix row without its zero entries."""
    out = {}
    for key, entry in row.items():
        if not isinstance(entry, Coefficient):
            raise StructuralError(f"matrix entries must be Coefficient, got {type(entry).__name__}")
        if not entry.is_zero():
            out[key] = entry
    return out


def _subtract(target: dict, factor: Coefficient, row: Mapping) -> None:
    """target <- target - factor * row in place, keeping no zero entry."""
    neg = -factor
    _accumulate(((j, neg * b) for j, b in row.items()), target)


def _cross_multiply(target: dict, pivot_row: Mapping, pivot: Coefficient, factor: Coefficient) -> dict:
    """pivot * target - factor * pivot_row, with no zero entry."""
    out = {j: pivot * a for j, a in target.items()}
    _subtract(out, factor, pivot_row)
    return out


def _eliminate(
    mat: list[dict], unknowns: Sequence[Hashable], chart: Chart
) -> tuple[list[tuple[int, Hashable]], bool]:
    """In-place Gauss–Jordan elimination on the ``unknowns`` columns.

    Honest-unit pivots (invertible at every chart point) are taken first,
    scanning the unknowns in order; only when none remain anywhere does
    elimination pivot on a non-unit entry, flagging the result as valid
    at generic points only.  Deterministic throughout.  A unit pivot row
    is scaled by the pivot's inverse, except when the pivot is already 1,
    as ``RrefResult.reduce`` skips it too.  A row operation touches only
    the keys the pivot row holds, and an unknown no row holds is never
    scanned, since row operations only combine rows.
    """
    pivots: list[tuple[int, Hashable]] = []
    generic = False
    one = Coefficient.one(chart)
    used_rows: set[int] = set()
    used_cols: set[Hashable] = set()
    held = set().union(*mat)
    columns = [c for c in unknowns if c in held]

    def run_pass(honest_only: bool) -> bool:
        nonlocal generic
        progressed = False
        for col in columns:
            if col in used_cols:
                continue
            holding = (r for r, target in enumerate(mat) if r not in used_rows and col in target)
            row = next((r for r in holding if not honest_only or mat[r][col].is_unit()), None)
            if row is None:
                continue
            if not honest_only:
                generic = True
            pivot_row = mat[row]
            pivot = pivot_row[col]
            if pivot.is_unit():
                if pivot != one:
                    inv = pivot.unit_inverse()
                    for j in pivot_row:
                        pivot_row[j] = pivot_row[j] * inv
                for r, target in enumerate(mat):
                    if r != row and col in target:
                        _subtract(target, target[col], pivot_row)
            else:
                for r, target in enumerate(mat):
                    if r != row and col in target:
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
    order = {c: i for i, c in enumerate(columns)}
    pivots.sort(key=lambda rc: order[rc[1]])
    return pivots, generic


def rref(rows: Sequence[Mapping], chart: Chart, unknowns: Sequence[Hashable] | None = None) -> RrefResult:
    """Reduced row echelon form over the Laurent ring (up to row order),
    with honest-unit pivots preferred over the whole matrix.  Each row maps
    column keys to Coefficient entries; a zero entry is no entry.  Pivots
    are taken among ``unknowns``, scanned in the order given (by default
    the keys the rows hold, sorted); every other key is a right-hand side.
    An unknown no row holds is free."""
    mat = [_row(row) for row in rows]
    unknowns = tuple(sorted(set().union(*mat)) if unknowns is None else unknowns)
    if len(set(unknowns)) != len(unknowns):
        raise StructuralError("an unknown is listed twice")
    pivots, generic = _eliminate(mat, unknowns, chart)
    return RrefResult(mat, pivots, generic, unknowns, chart)


def _divides(d: Coefficient, f: Coefficient) -> bool:
    try:
        exact_divide(f, d)
    except DomainError:
        return False
    return True


def _cleared_vector(col: Hashable, ratios: list[tuple], positions: Mapping[Hashable, int], chart: Chart) -> dict:
    """The kernel vector with x_col = 1 and x_c = a / p for each (c, a, p)
    in ``ratios``, multiplied through by a common multiple of the p that do
    not divide their a, then stripped of common content, with its keys in
    unknowns order (``positions``) and its first entry's sign positive."""
    # taken largest first, a denominator that already divides the
    # multiplier adds nothing
    dens = [p for _, a, p in ratios if not p.is_unit() and not _divides(p, a)]
    multiplier = Coefficient.one(chart)
    for d in sorted(dens, key=Coefficient.max_degree, reverse=True):
        if not _divides(d, multiplier):
            multiplier = multiplier * d
    cleared = {col: multiplier}
    for c, a, p in ratios:
        cleared[c] = exact_divide(a * multiplier, p)
    keys = sorted(cleared, key=positions.__getitem__)
    # strip common content and fix the overall sign deterministically
    contents = [_content(cleared[c]) for c in keys]
    # gcd of the numerators over lcm of the denominators, in lowest terms:
    # a prime of both would divide every g and so no den
    numerator = math.gcd(*(g for g, _, _ in contents))
    denominator = math.lcm(*(den for _, den, _ in contents))
    mono = _slot_bound(chart, (m for _, _, m in contents))
    divisor = Coefficient._checked_nums(chart, {mono: numerator}, denominator)
    out = {c: exact_divide(cleared[c], divisor) for c in keys}
    first = cleared[keys[0]].nums
    if first[max(first)] < 0:
        out = {c: -v for c, v in out.items()}
    return out


def _kernel_basis(rows: list[dict], pivots: list[tuple], positions: Mapping[Hashable, int], chart: Chart) -> list[dict]:
    """One cleared kernel vector per free unknown of a reduced matrix, in
    unknowns order (``positions``): x_col = 1 and x_c = -rows[r][col] /
    rows[r][c] at each pivot (r, c)."""
    pivot_cols = {c for _, c in pivots}
    return [
        _cleared_vector(col, [(c, -rows[r][col], rows[r][c]) for r, c in pivots if col in rows[r]], positions, chart)
        for col in positions
        if col not in pivot_cols
    ]
