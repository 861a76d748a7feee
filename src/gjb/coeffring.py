"""Exact scalar functions on a coordinate chart.

A Coefficient is a sparse Laurent polynomial over Q in the chart's
coordinates.  Representation: a dict mapping packed exponent keys (one
int per monomial, below) to nonzero exact rationals, each an `int` or a
`Fraction`.  Values enter as `int` when integral, so most products take
Python's integer path.  The ring operations here may leave an integral
value as a `Fraction`, which compares, hashes and prints exactly like the
`int`; the graded products of `exterior` (its product kernel) never do,
since they divide once per result term.  The zero polynomial is the
empty dict.  Negative exponents are allowed only for coordinates the
chart flags as nonvanishing; everything else is ordinary polynomial
data.  No floats and no bools anywhere: every division and every
negative power has a `Fraction` operand.

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
objects and nothing mutates `terms` after construction.

Construction has a validating boundary and a trusted interior.  The
public constructor checks every term (an exact rational value, an
integer exponent vector of the chart's length, every exponent inside its
slot, negative exponents only on nonvanishing coordinates, a zero term's
too) and drops zeros.  `_checked` checks packed keys alike, for
`unit_inverse`, `substitute`, `rename_chart`, `linalg.exact_divide` and
the sums `dsl` reads back from stored text.  The named builders `zero`,
`constant`, `one` and `coordinate` check their arguments instead and are
then trusted: the one term they write has a key of the chart's layout by
construction, `Chart.index` refuses an unknown name, `_as_rational`
stores the value as the boundary would, and a zero value writes no term;
`dsl` builds from them and the ring operations.  The results of `+`,
`-`, `*`, `scale`, positive powers and `partial` are built by
`_trusted`, which checks nothing, because the ring is closed under them
up to the slot range, which each of them tests through the guard bits:
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

import operator
import re
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping

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


def _partial_terms(chart: Chart, terms: Mapping[int, int | Fraction], i: int, offset: int = 0) -> dict:
    """∂/∂xⁱ of packed terms, each result key less ``offset``: a term with
    a nonzero exponent k in slot i goes to its key less the slot's unit,
    times k, and any other term drops.  Distinct keys stay distinct, so
    no sum is formed and no zero arises; the caller tests the range."""
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
        terms = {(key << _WIDTH) | _BIAS: value for key, value in c.terms.items()}
    else:
        terms = {key >> _WIDTH: value for key, value in c.terms.items()}
    return Coefficient._trusted(target, terms)


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
    """Sparse exact Laurent polynomial attached to a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        checked: dict[int, int | Fraction] = {}
        for expo, coeff in (terms or {}).items():
            checked[chart.pack(expo)] = _as_rational(coeff)  # the value is checked first
        _refuse_negative(chart, checked)  # a zero term's key too, before zeros are dropped
        self.chart = chart
        self.terms = {key: coeff for key, coeff in checked.items() if coeff}

    @staticmethod
    def _trusted(chart: Chart, terms: dict[int, int | Fraction]) -> "Coefficient":
        """A Coefficient over ``terms`` as they are, with no check and no
        copy: only for results the ring is closed under (module docstring)."""
        new = object.__new__(Coefficient)
        new.chart = chart
        new.terms = terms
        return new

    @staticmethod
    def _checked(chart: Chart, terms: Mapping[int, int | Fraction]) -> "Coefficient":
        """The constructor's checks on packed keys, a zero's key too: values
        stored as the boundary stores them and zeros dropped, every exponent
        inside its slot, negative ones only on nonvanishing coordinates."""
        clean: dict[int, int | Fraction] = {}
        for key, coeff in terms.items():
            coeff = _as_rational(coeff)
            if coeff:
                clean[key] = coeff
        _check_range(chart, reduce(operator.or_, terms, 0))
        _refuse_negative(chart, terms)
        return Coefficient._trusted(chart, clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {})

    @staticmethod
    def constant(chart: Chart, value) -> "Coefficient":
        value = _as_rational(value)
        return Coefficient._trusted(chart, {chart.origin: value} if value else {})

    @staticmethod
    def one(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {chart.origin: 1})

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Coefficient":
        return Coefficient._trusted(chart, {chart.origin + (1 << chart._shifts[chart.index(name)]): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        origin = self.chart.origin
        return all(key == origin for key in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError(f"{self} is not a constant")
        return Fraction(next(iter(self.terms.values())))

    def is_unit(self) -> bool:
        """True when invertible in the ring: a single term supported on
        nonvanishing coordinates only."""
        if len(self.terms) != 1:
            return False
        chart = self.chart
        return not (next(iter(self.terms)) ^ chart.origin) & (chart._polynomial * _SLOT)

    def unit_inverse(self) -> "Coefficient":
        if not self.is_unit():
            raise DomainError(f"{self} is not a unit of the Laurent ring")
        key, coeff = next(iter(self.terms.items()))
        return Coefficient._checked(self.chart, {2 * self.chart.origin - key: Fraction(1) / coeff})

    def depends_on(self, name: str) -> bool:
        chart = self.chart
        mask = _SLOT << chart._shifts[chart.index(name)]
        zero = chart.origin & mask
        return any(key & mask != zero for key in self.terms)

    def support(self) -> set[str]:
        names = self.chart.coordinates
        return {names[i] for i in _positions(self.chart, self.terms)}

    def max_degree(self) -> int:
        """Largest total degree over the terms (sum of positive parts)."""
        chart = self.chart
        return max((sum(k for _, k in _exponents(chart, key) if k > 0) for key in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _check_mate(self, other: "Coefficient"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise StructuralError("coefficients live on different charts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Coefficient.constant(self.chart, other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check_mate(other)
        return Coefficient._trusted(self.chart, _accumulate(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return Coefficient._trusted(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Coefficient.constant(self.chart, other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check_mate(other)
        negated = ((e, -c) for e, c in other.terms.items())
        return Coefficient._trusted(self.chart, _accumulate(negated, dict(self.terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check_mate(other)
        origin = self.chart.origin
        terms: dict[int, int | Fraction] = {}
        seen = 0
        for e1, c1 in self.terms.items():
            e1 -= origin
            for e2, c2 in other.terms.items():
                key = e1 + e2
                seen |= key
                value = c1 * c2
                if key in terms:
                    value += terms[key]
                    if not value:
                        del terms[key]
                        continue
                terms[key] = value
        _check_range(self.chart, seen)
        return Coefficient._trusted(self.chart, terms)

    __rmul__ = __mul__

    def scale(self, value) -> "Coefficient":
        value = _as_rational(value)
        if value == 1:
            return self
        if value == 0:
            return Coefficient.zero(self.chart)
        return Coefficient._trusted(self.chart, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Coefficient.one(self.chart)
        if n < 0:
            return self.unit_inverse() ** (-n)
        if n > 1 and self.terms:
            # the slotwise extremes of a power are n times the operand's
            # (the ring has no zero divisors), so the bound is known first
            unpack = self.chart.unpack
            low = min(unpack(_slot_bound(self.chart, self.terms)))
            high = max(unpack(_slot_bound(self.chart, self.terms, upper=True)))
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
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Coefficient":
        """Exact partial derivative; Laurent terms differentiate termwise."""
        terms = _partial_terms(self.chart, self.terms, self.chart.index(name))
        _check_range(self.chart, reduce(operator.or_, terms, 0))
        return Coefficient._trusted(self.chart, terms)

    def substitute(self, images: Mapping[str, "Coefficient"], target: Chart) -> "Coefficient":
        """Ring morphism: replace every coordinate by its image (a
        Coefficient on `target`).  Negative powers require the image to be
        a unit."""
        terms: dict[int, int | Fraction] = {}
        cache: dict[tuple[int, int], Coefficient] = {}

        def power(i: int, k: int) -> Coefficient:
            if (i, k) not in cache:
                name = self.chart.coordinates[i]
                if name not in images:
                    raise StructuralError(f"no substitution image for coordinate {name!r}")
                cache[(i, k)] = images[name] ** k
            return cache[(i, k)]

        for key, coeff in self.terms.items():
            term = Coefficient.constant(target, coeff)
            for i, k in _exponents(self.chart, key):
                term = term * power(i, k)
            _accumulate(term.terms.items(), terms)
        return Coefficient._checked(target, terms)

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

        pairs = ((moved(key), coeff) for key, coeff in self.terms.items())
        return Coefficient._checked(target, _accumulate(pairs))

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int | Fraction]]:
        """Canonical term order: exponents read along lexicographically
        sorted coordinate names, larger vectors first.  The name order is
        the chart's (``Chart._name_shifts``), and each slot is compared as
        it is stored, its exponent plus the bias; distinct keys have
        distinct slot tuples, so the order is total.  No, or one, term is
        returned as it is."""
        if len(self.terms) < 2:
            return list(self.terms.items())
        shifts = self.chart._name_shifts
        return sorted(self.terms.items(), key=lambda item: tuple((item[0] >> s) & _SLOT for s in shifts), reverse=True)

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
