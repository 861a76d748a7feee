"""Exact scalar functions on a coordinate chart.

A Coefficient is a sparse Laurent polynomial over Q in the chart's
coordinates, stored as integer numerators over one common denominator,
the representation FLINT's ``fmpq_poly`` uses for Q[x].  ``nums`` maps
packed exponent keys (one int per monomial, below) to nonzero ints, and
``den`` is an int >= 1 with ``math.gcd(den, *nums.values()) == 1``: the
value is in lowest terms, so ``den == 1`` exactly when it is integral,
zero is the empty ``nums`` over 1, and equal values have equal fields,
which is what ``==`` and ``hash`` compare.  Every ring operation works on
ints and normalises its result at most once, by one
``math.gcd(den, *nums.values())``, skipped when the result's ``den`` is
1 (``Coefficient._reduced``); no Fraction is built on the way.  A value
crossing the boundary is an exact rational, an ``int`` or a
``Fraction``: the constructor and ``_checked`` take such values and put
them over their lcm denominator, which is lowest terms already, and
``terms`` is the read-only boundary view, each term's value under its
key, an ``int`` when integral and a reduced ``Fraction`` otherwise,
built afresh on each read.  Arithmetic never reads it; the text writer
reads ``sorted_terms``.  Negative exponents are allowed only for
coordinates the chart flags as nonvanishing; everything else is ordinary
polynomial data.  No floats and no bools anywhere.

Packed keys (the layout of Monagan and Pearce's packed exponent vectors).
A key holds one `_WIDTH`-bit slot per chart coordinate, the first
coordinate in the most significant slot, and a slot stores its exponent
plus `_BIAS`.  So a key's int order is the lexicographic order of its
exponent vectors, and the key of the zero vector, `Chart.origin`, holds
`_BIAS` in every slot.  The layout depends on the chart's dimension only,
so equal charts pack alike.  A monomial product is `e1 + e2 - origin`, a
partial derivative subtracts its slot's unit, a unit's inverse is
`2*origin - e`, and the support, `is_unit` and `depends_on` are mask
tests.  An exponent lies in [-`_BIAS`, `_BIAS`); the top bit of each slot
is a guard bit that every valid key keeps clear.  A sum of two valid
keys minus the origin (or one less) cannot carry past its slot, and a
slot that leaves the range, above or below, sets its guard bit.  So each
operation ORs its result keys together (every key it formed, cancelled
ones included, where a cancellation could hide one) and tests the guard
bits once: an exponent that would leave its slot raises `DomainError`
instead of carrying into its neighbour.  `**` tests its bound before it
multiplies, from the slotwise extremes of its operand.  Tuples appear
only at the boundary: the validating constructor takes tuple-keyed maps
and packs them (`Chart.pack`), and `**` unpacks the slotwise extremes
of its operand (`Chart.unpack`).  The layout is read here
only: the other modules reach packed keys through `Chart.origin` and the
helpers `_partial_terms` (a partial of raw terms), `_block` (a key's
exponents at a range of positions), `_slot_bound` (slotwise extremes),
`_slots_at_least` (a slotwise comparison), `_positions`, `_support_mask`
(the positions of `_positions` as one int, bit i for position i),
`_check_range`, `_negative_name` and `_slot_shifted` (a coefficient
moved by one whole slot onto a chart with a coordinate appended or
dropped at the end, which is how `symplectization` crosses to its
extended chart and back).

Coefficients are immutable by convention: all operations return new
objects and nothing mutates ``nums`` after construction.

Construction has a validating boundary and a trusted interior.  The
public constructor checks every term (an exact rational value, an
integer exponent vector of the chart's length, every exponent inside its
slot, negative exponents only on nonvanishing coordinates, a zero term's
too) and drops zeros.  `_checked` checks packed keys alike, for the
quotients of `linalg.exact_divide`, and `_checked_nums` does so for
numerators over a denominator, for `unit_inverse`, `substitute`,
`rename_chart` and the values `dsl._writer_form` reads from stored text.
The named builders `zero`,
`constant`, `one` and `coordinate` check their arguments instead and are
then trusted: the one term they write has a key of the chart's layout by
construction, `Chart.index` refuses an unknown name, `_as_rational`
stores the value as the boundary would, and a zero value writes no term;
`dsl` builds from them and the ring operations.  The results of `+`,
`-`, `*`, `scale`, positive powers and `partial` are built by
`_reduced`, which divides out the one gcd and checks nothing, or, when
they are in lowest terms by construction (negation, an int scale), by
`_trusted`, which divides nothing either.  Neither checks because the
ring is closed under these operations up to the slot range, which each
of them tests through the guard bits:
both operands are on one chart (`_check_mate`), so keys keep its layout;
negation and scaling keep the keys; an exponent of a product is negative
only where an operand's was, on a nonvanishing coordinate; `partial`
drops the terms whose exponent in its coordinate is 0, so it makes a
negative exponent only where one already was; and no result keeps a
zero.

The textual form is `3/2*s0*y^2 - 1*z^-1`: terms joined by signs, each
term a rational prefix followed by `name^exponent` factors with the names
in lexicographic order.  This module only writes text: the form is a
scalar expression of the expression language, and `dsl.parse_coefficient`
reads it, in one pass when a text is in exactly this form, through the
validating constructor, and with that language's one grammar otherwise.

All plain and LaTeX text of the package is written here: a spelling
record per format (`_PLAIN`, `_LATEX`) says how it writes each piece of
a value, down to whether a unit prefix such as the `1*` of `1*z^-1` is
ever written, and `_signed_sum` is the only code that joins signed terms.
A rational with more digits than the interpreter converts to text (its
quadratic-time guard `sys.get_int_max_str_digits()`, read, never raised)
has no text: `_term_text` refuses it with a DomainError.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Collection, Iterable, Iterator, Mapping

from .errors import DomainError, StructuralError

__all__ = [
    "Chart",
    "Coefficient",
    "format_coefficient",
]

# the alphabet of names (coordinates, and every name dsl's tokenizer reads);
# a name does not start with a digit, and a number is ASCII digits only
_DIGITS = frozenset("0123456789")
_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") | _DIGITS

# the packed layout (module docstring): a slot of _WIDTH bits holds an
# exponent in [-_BIAS, _BIAS) as exponent + _BIAS, below its guard bit;
# Chart.pack and Chart.unpack read a slot as a big-endian unsigned short
_WIDTH = 16
_BIAS = 1 << (_WIDTH - 2)
_SLOT = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)


@dataclass(frozen=True)
class Chart:
    """An ordered family of coordinate names, some flagged nonvanishing.

    The nonvanishing flag is what licenses negative exponents (Laurent
    directions) for that coordinate in every Coefficient on the chart.

    The chart also holds the packed layout of its Coefficients' keys
    (module docstring), computed once from the fields: ``origin``, the
    key of the zero exponent vector; ``_guards``, the guard bit of every
    slot; ``_shifts``, the bit offset of each coordinate's slot;
    ``_name_shifts``, the same offsets in the order of the sorted
    coordinate names, which is the order text reads exponents in;
    ``_polynomial``, the lowest bit of each slot of a coordinate not
    flagged nonvanishing; and ``_format``, the struct format of one key.
    """

    coordinates: tuple[str, ...]
    nonvanishing: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        # any sequence and any collection are accepted, but a chart is a
        # dict key and a cache key, so its fields are stored hashable
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        object.__setattr__(self, "nonvanishing", frozenset(self.nonvanishing))
        if not self.coordinates:
            raise StructuralError("a chart needs at least one coordinate")
        if len(set(self.coordinates)) != len(self.coordinates):
            raise StructuralError(f"duplicate coordinate names in {self.coordinates}")
        for name in self.coordinates:
            if not name or name[0] in _DIGITS or not set(name) <= _NAME_OK:
                raise StructuralError(f"bad coordinate name {name!r}")
        extra = set(self.nonvanishing) - set(self.coordinates)
        if extra:
            raise StructuralError(f"nonvanishing flags for unknown coordinates {sorted(extra)}")
        n = len(self.coordinates)
        ones = ((1 << (_WIDTH * n)) - 1) // _SLOT  # the lowest bit of every slot
        shifts = tuple(_WIDTH * (n - 1 - i) for i in range(n))
        layout = {
            "origin": _BIAS * ones,
            "_guards": _GUARD * ones,
            "_shifts": shifts,
            "_name_shifts": tuple(shifts[i] for i in sorted(range(n), key=self.coordinates.__getitem__)),
            "_polynomial": sum(1 << s for s, name in zip(shifts, self.coordinates) if name not in self.nonvanishing),
            "_format": f">{n}H",
        }
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def index(self, name: str) -> int:
        try:
            return self.coordinates.index(name)
        except ValueError:
            raise StructuralError(f"coordinate {name!r} not on chart {self.coordinates}") from None

    def pack(self, expo) -> int:
        """The key of an exponent vector: StructuralError for a wrong
        length or a non-integer exponent, DomainError for an exponent
        outside its slot's range."""
        if len(expo) != self.dimension:
            raise StructuralError(f"exponent vector {expo} has length {len(expo)}, chart has {self.dimension}")
        for k in expo:
            if not isinstance(k, int):
                raise StructuralError(f"exponent vector {expo} holds a non-integer exponent")
            if not -_BIAS <= k < _BIAS:
                raise DomainError(f"exponent {k} is outside the range [{-_BIAS}, {_BIAS - 1}] of a slot")
        return int.from_bytes(struct.pack(self._format, *[k + _BIAS for k in expo]), "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a valid key."""
        return tuple(v - _BIAS for v in struct.unpack(self._format, key.to_bytes(2 * self.dimension, "big")))


def _slots(chart: Chart, mask: int) -> Iterator[tuple[int, int]]:
    """``(position, bit offset)`` of each slot where ``mask`` has a bit
    set, positions ascending; only those slots are visited."""
    last = chart.dimension - 1
    while mask:
        slot = (mask.bit_length() - 1) // _WIDTH
        shift = slot * _WIDTH
        yield last - slot, shift
        mask &= (1 << shift) - 1


def _exponents(chart: Chart, key: int) -> Iterator[tuple[int, int]]:
    """``(position, exponent)`` for each nonzero exponent of a valid key,
    positions ascending."""
    for i, shift in _slots(chart, key ^ chart.origin):
        yield i, ((key >> shift) & _SLOT) - _BIAS


def _positions(chart: Chart, keys: Iterable[int]) -> list[int]:
    """The positions, ascending, where some key has a nonzero exponent."""
    origin = chart.origin
    mask = 0
    for key in keys:
        mask |= key ^ origin
    return [i for i, _ in _slots(chart, mask)]


def _support_mask(chart: Chart, keys: Iterable[int]) -> int:
    """``_positions`` as a mask of positions: bit i is set exactly when
    some key has a nonzero exponent at position i."""
    origin = chart.origin
    mask = 0
    for key in keys:
        mask |= key ^ origin
    last = chart.dimension - 1
    bits = 0
    while mask:
        slot = (mask.bit_length() - 1) // _WIDTH
        bits |= 1 << (last - slot)
        mask &= (1 << (slot * _WIDTH)) - 1
    return bits


def _partial_terms(chart: Chart, terms: Mapping[int, int], i: int, offset: int = 0) -> dict:
    """∂/∂xⁱ of packed integer terms, each result key less ``offset``: a
    term with a nonzero exponent k in slot i goes to its key less the
    slot's unit, times k, and any other term drops.  Distinct keys stay
    distinct, so no sum is formed and no zero arises; the caller tests the
    range and divides by any common factor."""
    shift = chart._shifts[i]
    lowered = (1 << shift) + offset
    out = {}
    for key, value in terms.items():
        k = ((key >> shift) & _SLOT) - _BIAS
        if k:
            out[key - lowered] = value * k
    return out


def _block(chart: Chart, key: int, lo: int, hi: int) -> tuple[int, list[tuple[int, int]]]:
    """A valid key with its exponents at positions lo <= i < hi set to
    zero, and those of them that are nonzero, as ``(position, exponent)``
    pairs, positions ascending."""
    origin = chart.origin
    inside = (key ^ origin) & (((1 << ((hi - lo) * _WIDTH)) - 1) << chart._shifts[hi - 1])
    if not inside:
        return key, []
    return key ^ inside, list(_exponents(chart, origin ^ inside))


def _slots_at_least(chart: Chart, a: int, b: int) -> bool:
    """Whether every slot of ``a`` is at least the same slot of ``b``, for
    two keys whose every slot is below its guard bit: with the guard bits
    set on ``a``, no slot of the difference borrows from its neighbour,
    and a guard bit survives exactly where ``a``'s slot is the larger."""
    guards = chart._guards
    return ((a | guards) - b) & guards == guards


def _check_range(chart: Chart, seen: int) -> None:
    """Refuse a result whose keys OR to ``seen``: a guard bit set there
    means an exponent left its slot."""
    if seen & chart._guards:
        raise DomainError(f"an exponent leaves the range [{-_BIAS}, {_BIAS - 1}] of its slot")


def _negative_name(chart: Chart, keys: Iterable[int]) -> str | None:
    """The first coordinate not flagged nonvanishing on which some valid
    key has a negative exponent (its slot below ``_BIAS``), or None."""
    need = chart._polynomial * _BIAS
    common = need
    for key in keys:
        common &= key
    missing = need & ~common
    if not missing:
        return None
    return chart.coordinates[chart.dimension - 1 - (missing.bit_length() - 1) // _WIDTH]


def _refuse_negative(chart: Chart, keys: Iterable[int]) -> None:
    name = _negative_name(chart, keys)
    if name is not None:
        raise DomainError(f"negative exponent on {name!r}, which is not flagged nonvanishing")


def _check_keys(chart: Chart, keys: Collection[int]) -> None:
    """The constructor's checks on packed keys: every exponent inside its
    slot, and negative ones only on nonvanishing coordinates."""
    _check_range(chart, reduce(operator.or_, keys, 0))
    _refuse_negative(chart, keys)


def _slot_bound(chart: Chart, keys: Iterable[int], upper: bool = False) -> int:
    """The key of the slotwise minimum (maximum with ``upper``) of some
    valid keys, slot by slot in ints: with every guard bit set on one side
    no slot of a difference borrows from its neighbour, and the guard bit
    left over says which side is at least the other."""
    guards = chart._guards
    keys = iter(keys)
    bound = next(keys)
    for key in keys:
        ge = ((((bound | guards) - key) & guards) >> (_WIDTH - 1)) * _SLOT
        bound ^= (bound ^ key) & (~ge if upper else ge)
    return bound


def _slot_shifted(c: Coefficient, target: Chart) -> Coefficient:
    """``c`` on ``target``, which is ``c``'s chart with one coordinate
    appended (or its last coordinate dropped) and the same flags on the
    others: every key moves up one whole slot and the new last slot holds
    the zero exponent (or moves down one slot).  Nothing is checked: the
    caller knows the charts are so related, and before dropping, that no
    key has a nonzero exponent in the last slot.  The exponents keep their
    values and coordinates, so the result is valid on ``target``."""
    if target.dimension > c.chart.dimension:
        nums = {(key << _WIDTH) | _BIAS: value for key, value in c.nums.items()}
    else:
        nums = {key >> _WIDTH: value for key, value in c.nums.items()}
    return Coefficient._trusted(target, nums, c.den)


def _as_rational(value) -> int | Fraction:
    """An exact rational as it is stored: an integral value (a bool
    included) as a plain ``int``, any other ``Fraction`` as it is."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise StructuralError(f"expected an exact rational, got {type(value).__name__}")


def _over_lcm(values: Mapping[int, int | Fraction]) -> tuple[dict[int, int], int]:
    """Stored rationals (each an ``int`` or a reduced ``Fraction``, as
    ``_as_rational`` leaves them) as numerators over the lcm L of their
    denominators, zeros dropped.  That is lowest terms already: for each
    prime p of L, some value's denominator d holds p as often as L does,
    so p divides neither L/d nor that value's numerator, nor their
    product."""
    den = 1
    for value in values.values():
        if type(value) is not int and den % value.denominator:
            den = math.lcm(den, value.denominator)
    if den == 1:
        return {key: value for key, value in values.items() if value}, 1
    return {
        key: value * den if type(value) is int else value.numerator * (den // value.denominator)
        for key, value in values.items()
        if value
    }, den


def _quotient(n: int, den: int) -> int | Fraction:
    """``n / den`` as the boundary stores it: an int when integral, a
    reduced Fraction otherwise."""
    return n // den if n % den == 0 else Fraction(n, den)


def _accumulate(pairs: Iterable[tuple], terms: dict | None = None) -> dict:
    """Add each ``(key, value)`` pair into ``terms`` (a new dict by default)
    and return it; a key whose sum is zero is dropped.  The values are
    exact rationals (``int`` or ``Fraction``) or Coefficients, all false
    exactly when zero, so no value it returns is zero."""
    if terms is None:
        terms = {}
    for key, value in pairs:
        if key in terms:
            value = terms[key] + value
            if not value:
                del terms[key]
                continue
        elif not value:
            continue
        terms[key] = value
    return terms


class Coefficient:
    """Sparse exact Laurent polynomial attached to a chart: integer
    numerators ``nums`` over one denominator ``den``, in lowest terms
    (module docstring)."""

    __slots__ = ("chart", "nums", "den")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        checked: dict[int, int | Fraction] = {}
        for expo, coeff in (terms or {}).items():
            checked[chart.pack(expo)] = _as_rational(coeff)  # the value is checked first
        _refuse_negative(chart, checked)  # a zero term's key too, before zeros are dropped
        self.chart = chart
        self.nums, self.den = _over_lcm(checked)

    @staticmethod
    def _trusted(chart: Chart, nums: dict[int, int], den: int) -> "Coefficient":
        """A Coefficient over ``nums`` and ``den`` as they are, with no
        check, no copy and no division: only for results the ring is
        closed under (module docstring) that are in lowest terms already."""
        new = object.__new__(Coefficient)
        new.chart = chart
        new.nums = nums
        new.den = den
        return new

    @staticmethod
    def _reduced(chart: Chart, nums: dict[int, int], den: int) -> "Coefficient":
        """``_trusted`` after the one normalisation: ``nums`` and ``den``
        divided by their gcd, which is skipped when ``den`` is 1."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {key: n // g for key, n in nums.items()}
                den //= g
        new = object.__new__(Coefficient)  # ``_trusted``, inlined on this hot path
        new.chart = chart
        new.nums = nums
        new.den = den
        return new

    @staticmethod
    def _checked(chart: Chart, terms: Mapping[int, int | Fraction]) -> "Coefficient":
        """The constructor's checks on packed keys, a zero's key too: values
        stored as the boundary stores them and zeros dropped, every exponent
        inside its slot, negative ones only on nonvanishing coordinates."""
        values = {key: _as_rational(coeff) for key, coeff in terms.items()}
        _check_keys(chart, terms)
        return Coefficient._trusted(chart, *_over_lcm(values))

    @staticmethod
    def _checked_nums(chart: Chart, nums: Mapping[int, int], den: int) -> "Coefficient":
        """``_checked`` for int numerators over a denominator ``den`` >= 1:
        the keys checked, a zero's too, zeros dropped, then ``_reduced``."""
        _check_keys(chart, nums)
        return Coefficient._reduced(chart, {key: n for key, n in nums.items() if n}, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {}, 1)

    @staticmethod
    def constant(chart: Chart, value) -> "Coefficient":
        value = _as_rational(value)
        if type(value) is int:
            return Coefficient._trusted(chart, {chart.origin: value} if value else {}, 1)
        return Coefficient._trusted(chart, {chart.origin: value.numerator}, value.denominator)

    @staticmethod
    def one(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {chart.origin: 1}, 1)

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Coefficient":
        return Coefficient._trusted(chart, {chart.origin + (1 << chart._shifts[chart.index(name)]): 1}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[int, int | Fraction]:
        """The boundary view: each term's value under its packed key, an
        ``int`` when integral and a reduced ``Fraction`` otherwise, in a
        new dict on each read; writing to it changes nothing."""
        den = self.den
        if den == 1:
            return dict(self.nums)
        return {key: _quotient(n, den) for key, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        origin = self.chart.origin
        return all(key == origin for key in self.nums)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError(f"{self} is not a constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def is_unit(self) -> bool:
        """True when invertible in the ring: a single term supported on
        nonvanishing coordinates only."""
        if len(self.nums) != 1:
            return False
        chart = self.chart
        return not (next(iter(self.nums)) ^ chart.origin) & (chart._polynomial * _SLOT)

    def unit_inverse(self) -> "Coefficient":
        """The inverse of a unit n/den·x^e: den/n·x^(−e), in lowest terms
        since n/den is; only the slot range of −e needs a check."""
        if not self.is_unit():
            raise DomainError(f"{self} is not a unit of the Laurent ring")
        ((key, n),) = self.nums.items()
        inverse = {2 * self.chart.origin - key: self.den if n > 0 else -self.den}
        return Coefficient._checked_nums(self.chart, inverse, abs(n))

    def depends_on(self, name: str) -> bool:
        chart = self.chart
        mask = _SLOT << chart._shifts[chart.index(name)]
        zero = chart.origin & mask
        return any(key & mask != zero for key in self.nums)

    def support(self) -> set[str]:
        names = self.chart.coordinates
        return {names[i] for i in _positions(self.chart, self.nums)}

    def max_degree(self) -> int:
        """Largest total degree over the terms (sum of positive parts)."""
        chart = self.chart
        return max((sum(k for _, k in _exponents(chart, key) if k > 0) for key in self.nums), default=0)

    # -- arithmetic --------------------------------------------------------

    def _check_mate(self, other: "Coefficient"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise StructuralError("coefficients live on different charts")

    def __add__(self, other):
        """The sum over the lcm of the two denominators."""
        if not isinstance(other, Coefficient):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Coefficient.constant(self.chart, other)
        self._check_mate(other)
        da, db = self.den, other.den
        if da == db:
            nums = dict(self.nums)
            pairs = other.nums.items()
        else:
            den = da // math.gcd(da, db) * db
            fa, fb = den // da, den // db
            nums = {e: c * fa for e, c in self.nums.items()}
            pairs = ((e, c * fb) for e, c in other.nums.items())
            da = den
        return Coefficient._reduced(self.chart, _accumulate(pairs, nums), da)

    __radd__ = __add__

    def __neg__(self):
        return Coefficient._trusted(self.chart, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Coefficient):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Coefficient.constant(self.chart, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check_mate(other)
        origin = self.chart.origin
        nums: dict[int, int] = {}
        seen = 0
        for e1, c1 in self.nums.items():
            e1 -= origin
            for e2, c2 in other.nums.items():
                key = e1 + e2
                seen |= key
                value = c1 * c2
                if key in nums:
                    value += nums[key]
                    if not value:
                        del nums[key]
                        continue
                nums[key] = value
        _check_range(self.chart, seen)
        return Coefficient._reduced(self.chart, nums, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, value) -> "Coefficient":
        """self times an exact rational: an int p has gcd(den, p·nums) =
        gcd(den, p), since ``nums`` and ``den`` share no factor, so that
        gcd is divided out of p and ``den`` at once; a Fraction's
        denominator may share a factor with ``nums``, so that result is
        normalised."""
        if type(value) is not int:
            value = _as_rational(value)
        if value == 1:
            return self
        if value == 0:
            return Coefficient.zero(self.chart)
        den = self.den
        if type(value) is int:
            if den != 1 and (g := math.gcd(den, value)) != 1:
                value //= g
                den //= g
            return Coefficient._trusted(self.chart, {e: c * value for e, c in self.nums.items()}, den)
        p = value.numerator
        return Coefficient._reduced(self.chart, {e: c * p for e, c in self.nums.items()}, den * value.denominator)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Coefficient.one(self.chart)
        if n < 0:
            return self.unit_inverse() ** (-n)
        if n > 1 and self.nums:
            # the slotwise extremes of a power are n times the operand's
            # (the ring has no zero divisors), so the bound is known first
            unpack = self.chart.unpack
            low = min(unpack(_slot_bound(self.chart, self.nums)))
            high = max(unpack(_slot_bound(self.chart, self.nums, upper=True)))
            if n * low < -_BIAS or n * high >= _BIAS:
                raise DomainError(f"power {n} takes an exponent outside the range [{-_BIAS}, {_BIAS - 1}] of its slot")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Coefficient)
            and self.chart == other.chart
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Coefficient":
        """Exact partial derivative; Laurent terms differentiate termwise."""
        nums = _partial_terms(self.chart, self.nums, self.chart.index(name))
        _check_range(self.chart, reduce(operator.or_, nums, 0))
        return Coefficient._reduced(self.chart, nums, self.den)

    def substitute(self, images: Mapping[str, "Coefficient"], target: Chart) -> "Coefficient":
        """Ring morphism: replace every coordinate by its image (a
        Coefficient on `target`).  Negative powers require the image to be
        a unit.  Each term's numerator times its powers is summed over the
        lcm of those products' denominators, and the sum over ``den`` times
        that lcm is normalised once."""
        cache: dict[tuple[int, int], Coefficient] = {}

        def power(i: int, k: int) -> Coefficient:
            if (i, k) not in cache:
                name = self.chart.coordinates[i]
                if name not in images:
                    raise StructuralError(f"no substitution image for coordinate {name!r}")
                cache[(i, k)] = images[name] ** k
            return cache[(i, k)]

        products = []
        for key, n in self.nums.items():
            term = Coefficient._trusted(target, {target.origin: n}, 1)
            for i, k in _exponents(self.chart, key):
                term = term * power(i, k)
            products.append(term)
        den = math.lcm(*(term.den for term in products))
        nums = _accumulate((e, c * (den // term.den)) for term in products for e, c in term.nums.items())
        return Coefficient._checked_nums(target, nums, den * self.den)

    def rename_chart(self, target: Chart) -> "Coefficient":
        """Reinterpret on `target` by coordinate name: each nonzero
        exponent moves to its coordinate's slot on `target`."""
        shifts: dict[int, int] = {}

        def shift(i: int) -> int:
            if i not in shifts:
                shifts[i] = target._shifts[target.index(self.chart.coordinates[i])]
            return shifts[i]

        def moved(key: int) -> int:
            new = target.origin
            for i, k in _exponents(self.chart, key):
                new += k << shift(i)
            return new

        pairs = ((moved(key), n) for key, n in self.nums.items())
        return Coefficient._checked_nums(target, _accumulate(pairs), self.den)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int | Fraction]]:
        """The terms in canonical order, each value as ``terms`` gives it:
        exponents read along lexicographically sorted coordinate names,
        larger vectors first.  The name order is the chart's
        (``Chart._name_shifts``), and each slot is compared as it is
        stored, its exponent plus the bias; distinct keys have distinct
        slot tuples, so the order is total."""
        items = list(self.nums.items())
        if len(items) > 1:
            shifts = self.chart._name_shifts
            items.sort(key=lambda item: tuple((item[0] >> s) & _SLOT for s in shifts), reverse=True)
        den = self.den
        if den == 1:
            return items
        return [(key, _quotient(n, den)) for key, n in items]

    def __repr__(self):
        return f"Coefficient({format_coefficient(self)!r})"

    def __str__(self):
        return format_coefficient(self)


# ---------------------------------------------------------------------------
# text: one spelling record per output format, one signed-sum writer
# ---------------------------------------------------------------------------


def latex_name(name: str) -> str:
    """Coordinate names to LaTeX: trailing digits become a superscript
    index and underscores start subscripts, so ``p0_1`` is ``p^{0}_{1}``
    and ``y_x0`` is ``y_{x^{0}}``."""
    if "_" in name:
        head, tail = name.split("_", 1)
        return f"{latex_name(head)}_{{{latex_name(tail)}}}"
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
    if m:
        return f"{m.group(1)}^{{{m.group(2)}}}"
    return name


def _latex_power(name: str, k: int) -> str:
    text = latex_name(name)
    if k == 1:
        return text
    base = f"{{{text}}}" if ("^" in text or "_" in text) else text
    return f"{base}^{{{k}}}"


@dataclass(frozen=True)
class _Spelling:
    """How one output format writes the pieces of a value.  Signs are not
    a piece: every signed sum of every format is joined by ``_signed_sum``."""

    rational: Callable[[Fraction], str]  # a positive rational
    power: Callable[[str, int], str]  # a coordinate to a nonzero power
    product: str  # between the factors of a term
    wedge: str  # between exterior factors
    form_factor: Callable[[str], str]  # the differential of a coordinate
    vector_factor: Callable[[str], str]  # the vector field of a coordinate
    scaled: str  # between a one-term coefficient and its exterior factors
    grouped: str  # a multi-term coefficient ``{}`` before its exterior factors
    unit_prefix: bool  # a 1 in front of a monomial is written unless elided


_PLAIN = _Spelling(
    rational=str,
    power=lambda name, k: name if k == 1 else f"{name}^{k}",
    product="*",
    wedge="^",
    form_factor="d{}".format,
    vector_factor="e_{}".format,
    scaled="*",
    grouped="({})*",
    unit_prefix=True,
)

_LATEX = _Spelling(
    rational=lambda v: str(v) if v.denominator == 1 else f"\\tfrac{{{v.numerator}}}{{{v.denominator}}}",
    power=_latex_power,
    product=" ",
    wedge=" \\wedge ",
    form_factor=lambda name: f"\\mathrm{{d}}{latex_name(name)}",
    vector_factor=lambda name: f"\\partial_{{{latex_name(name)}}}",
    scaled="\\, ",
    grouped="\\left({}\\right) ",
    unit_prefix=False,
)

_SPELLINGS = {"plain": _PLAIN, "latex": _LATEX}


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join ``(negative, body)`` terms: the first is written ``body`` or
    ``-body``, every later one `` + body`` or `` - body``; no terms is ``0``."""
    pieces: list[str] = []
    for negative, body in terms:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) or "0"


def _term_text(chart: Chart, key: int, magnitude: Fraction, spelling: _Spelling, elide_unit: bool) -> str:
    """One unsigned term: the rational, then the coordinate powers of the
    packed ``key`` in name order.  A rational 1 before a monomial is left
    out when ``elide_unit`` is set or the format never writes it."""
    for part in (magnitude.numerator, magnitude.denominator):
        # below 2**1920 < 10**640, the least limit the interpreter accepts
        if part.bit_length() > 1920 and (limit := sys.get_int_max_str_digits()) and part >= 10**limit:
            raise DomainError(f"a rational with more than {limit} digits has no text")
    names = chart.coordinates
    powers = sorted((names[i], k) for i, k in _exponents(chart, key))
    mono = spelling.product.join(spelling.power(name, k) for name, k in powers)
    if not mono:
        return spelling.rational(magnitude)
    if magnitude == 1 and (elide_unit or not spelling.unit_prefix):
        return mono
    return f"{spelling.rational(magnitude)}{spelling.product}{mono}"


def _coefficient_text(c: Coefficient, spelling: _Spelling, elide_unit: bool = False) -> str:
    return _signed_sum(
        (value < 0, _term_text(c.chart, key, abs(value), spelling, elide_unit)) for key, value in c.sorted_terms()
    )


def format_coefficient(c: Coefficient) -> str:
    """Canonical text, the interchange form: a ±1 rational prefix in front
    of a monomial is kept (``dsl.render`` drops it)."""
    return _coefficient_text(c, _PLAIN)
