"""Exact scalar functions on a coordinate chart.

A Coefficient is a sparse Laurent polynomial over Q in the chart's
coordinates.  Representation: a dict mapping exponent vectors (one signed
int per chart coordinate, as a tuple) to nonzero exact rationals, each an
`int` or a `Fraction`.  Values enter as `int` when integral, so most
products take Python's integer path.  The ring operations here may leave
an integral value as a `Fraction`, which compares, hashes and prints
exactly like the `int`; the graded products of `exterior` (its product
kernel) never do, since they divide once per result term.  The zero
polynomial is the empty dict.  Negative exponents are
allowed only for coordinates the chart flags as nonvanishing; everything
else is ordinary polynomial data.  No floats and no bools anywhere: every
division and every negative power has a `Fraction` operand.

Coefficients are immutable by convention: all operations return new
objects and nothing mutates `terms` after construction.

Construction has a validating boundary and a trusted interior.  The
public constructor checks every term (an exact rational value, an
exponent vector of the chart's length, negative exponents only on
nonvanishing coordinates) and drops zeros; parsing, `unit_inverse`,
`substitute` and `rename_chart` go through it.  The named builders
`zero`, `constant`, `one` and `coordinate` check their arguments instead
and are then trusted: the one term they write has an exponent vector of
the chart's length by construction, `Chart.index` refuses an unknown
name, a negative power is refused on a coordinate not flagged
nonvanishing, `_as_rational` stores the value as the boundary would, and
a zero value writes no term.  The results of `+`, `-`, `*`, `scale`,
positive powers and `partial` are built by `_trusted`, which checks
nothing, because the ring is closed under them: both operands are on
one chart (`_check_mate`), so exponent vectors keep its length;
negation and scaling keep the exponents; an exponent of a product is negative only
where an operand's was, on a nonvanishing coordinate; `partial` drops
the terms whose exponent in its coordinate is 0, so it makes a negative
exponent only where one already was; and `_accumulate` never keeps a
zero.

The textual form is `3/2*s0*y^2 - 1*z^-1`: terms joined by signs, each
term a rational prefix followed by `name^exponent` factors with the names
in lexicographic order.  The same token stream and precedence are used by
the CLI expression language, where `^` doubles as the wedge; on scalars
both readings agree because `name^int` is parsed as an integer power.

All plain and LaTeX text of the package is written here: a spelling
record per format (`_PLAIN`, `_LATEX`) says how it writes each piece of
a value, down to whether a unit prefix such as the `1*` of `1*z^-1` is
ever written, and `_signed_sum` is the only code that joins signed terms.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import DomainError, ParseError, StructuralError

__all__ = [
    "Chart",
    "Coefficient",
    "parse_coefficient",
    "format_coefficient",
    "tokenize",
    "Token",
]

# the alphabet of names (coordinates, and every name the tokenizer reads);
# a name does not start with a digit, and a number is ASCII digits only
_DIGITS = frozenset("0123456789")
_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") | _DIGITS


@dataclass(frozen=True)
class Chart:
    """An ordered family of coordinate names, some flagged nonvanishing.

    The nonvanishing flag is what licenses negative exponents (Laurent
    directions) for that coordinate in every Coefficient on the chart.
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

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def index(self, name: str) -> int:
        try:
            return self.coordinates.index(name)
        except ValueError:
            raise StructuralError(f"coordinate {name!r} not on chart {self.coordinates}") from None

    def extend(self, name: str, nonvanishing: bool = False) -> "Chart":
        """New chart with one appended coordinate."""
        flags = set(self.nonvanishing) | ({name} if nonvanishing else set())
        return Chart(self.coordinates + (name,), frozenset(flags))


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
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for expo, coeff in (terms or {}).items():
            coeff = _as_rational(coeff)
            if coeff == 0:
                continue
            if len(expo) != chart.dimension:
                raise StructuralError(
                    f"exponent vector {expo} has length {len(expo)}, chart has {chart.dimension}"
                )
            for k, name in zip(expo, chart.coordinates):
                if k < 0 and name not in chart.nonvanishing:
                    raise DomainError(
                        f"negative exponent on {name!r}, which is not flagged nonvanishing"
                    )
            clean[tuple(expo)] = coeff
        self.chart = chart
        self.terms = clean

    @staticmethod
    def _trusted(chart: Chart, terms: dict[tuple[int, ...], int | Fraction]) -> "Coefficient":
        """A Coefficient over ``terms`` as they are, with no check and no
        copy: only for results the ring is closed under (module docstring)."""
        new = object.__new__(Coefficient)
        new.chart = chart
        new.terms = terms
        return new

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {})

    @staticmethod
    def constant(chart: Chart, value) -> "Coefficient":
        value = _as_rational(value)
        return Coefficient._trusted(chart, {(0,) * chart.dimension: value} if value else {})

    @staticmethod
    def one(chart: Chart) -> "Coefficient":
        return Coefficient._trusted(chart, {(0,) * chart.dimension: 1})

    @staticmethod
    def coordinate(chart: Chart, name: str, power: int = 1) -> "Coefficient":
        expo = [0] * chart.dimension
        expo[chart.index(name)] = power
        if power < 0 and name not in chart.nonvanishing:
            raise DomainError(f"negative exponent on {name!r}, which is not flagged nonvanishing")
        return Coefficient._trusted(chart, {tuple(expo): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in expo) for expo in self.terms)

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
        expo = next(iter(self.terms))
        return all(
            k == 0 or name in self.chart.nonvanishing
            for k, name in zip(expo, self.chart.coordinates)
        )

    def unit_inverse(self) -> "Coefficient":
        if not self.is_unit():
            raise DomainError(f"{self} is not a unit of the Laurent ring")
        expo, coeff = next(iter(self.terms.items()))
        return Coefficient(self.chart, {tuple(-k for k in expo): Fraction(1) / coeff})

    def depends_on(self, name: str) -> bool:
        i = self.chart.index(name)
        return any(expo[i] != 0 for expo in self.terms)

    def support(self) -> set[str]:
        names = set()
        for expo in self.terms:
            for k, name in zip(expo, self.chart.coordinates):
                if k != 0:
                    names.add(name)
        return names

    def max_degree(self) -> int:
        """Largest total degree over the terms (sum of positive parts)."""
        return max((sum(k for k in expo if k > 0) for expo in self.terms), default=0)

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
        products = (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return Coefficient._trusted(self.chart, _accumulate(products))

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
        i = self.chart.index(name)
        lowered = (
            (expo[:i] + (expo[i] - 1,) + expo[i + 1 :], coeff * expo[i])
            for expo, coeff in self.terms.items()
            if expo[i] != 0
        )
        return Coefficient._trusted(self.chart, _accumulate(lowered))

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Evaluate at a rational point; every chart coordinate must be
        assigned, and nonvanishing coordinates must be nonzero.  The point's
        values are taken as Fractions, so a negative power stays exact."""
        values = []
        for name in self.chart.coordinates:
            if name not in point:
                raise StructuralError(f"no value supplied for coordinate {name!r}")
            v = Fraction(_as_rational(point[name]))
            if v == 0 and name in self.chart.nonvanishing:
                raise DomainError(f"coordinate {name!r} is nonvanishing but got 0")
            values.append(v)
        unknown = set(point) - set(self.chart.coordinates)
        if unknown:
            raise StructuralError(f"values supplied for unknown coordinates {sorted(unknown)}")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            acc = coeff
            for v, k in zip(values, expo):
                if k == 0:
                    continue
                if v == 0 and k < 0:
                    raise DomainError("division by zero while evaluating a Laurent term")
                acc *= v**k
            total += acc
        return total

    def substitute(self, images: Mapping[str, "Coefficient"], target: Chart) -> "Coefficient":
        """Ring morphism: replace every coordinate by its image (a
        Coefficient on `target`).  Negative powers require the image to be
        a unit."""
        terms: dict[tuple[int, ...], Fraction] = {}
        cache: dict[tuple[int, int], Coefficient] = {}

        def power(i: int, k: int) -> Coefficient:
            if (i, k) not in cache:
                name = self.chart.coordinates[i]
                if name not in images:
                    raise StructuralError(f"no substitution image for coordinate {name!r}")
                cache[(i, k)] = images[name] ** k
            return cache[(i, k)]

        for expo, coeff in self.terms.items():
            term = Coefficient.constant(target, coeff)
            for i, k in enumerate(expo):
                if k != 0:
                    term = term * power(i, k)
            _accumulate(term.terms.items(), terms)
        return Coefficient(target, terms)

    def rename_chart(self, target: Chart) -> "Coefficient":
        """Reinterpret on `target` by coordinate name.  Purely positional
        re-indexing."""
        positions: dict[int, int] = {}

        def position(i: int) -> int:
            if i not in positions:
                positions[i] = target.index(self.chart.coordinates[i])
            return positions[i]

        def moved(expo: tuple[int, ...]) -> tuple[int, ...]:
            new = [0] * target.dimension
            for i, k in enumerate(expo):
                if k != 0:
                    new[position(i)] += k
            return tuple(new)

        pairs = ((moved(expo), coeff) for expo, coeff in self.terms.items())
        return Coefficient(target, _accumulate(pairs))

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Canonical term order: exponents read along lexicographically
        sorted coordinate names, larger vectors first."""
        order = sorted(range(self.chart.dimension), key=lambda i: self.chart.coordinates[i])

        def key(item):
            expo, _ = item
            return tuple(-expo[i] for i in order)

        return sorted(self.terms.items(), key=key)

    def __repr__(self):
        return f"Coefficient({format_coefficient(self)!r})"

    def __str__(self):
        return format_coefficient(self)


# ---------------------------------------------------------------------------
# shared tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER NAME OP END
    text: str
    line: int
    column: int
    value: Fraction | None = None


_OPS = {"+", "-", "*", "^", "(", ")", ",", "="}


def tokenize(text: str) -> list[Token]:
    """Token stream shared by the scalar grammar and the CLI expression
    language.  Numbers are integers or integer ratios like 3/2 (no spaces
    around the slash) in ASCII digits; names are spelled in the chart's
    alphabet ``_NAME_OK`` and do not start with a digit.  Any other
    character, a non-ASCII digit or letter included, is a ParseError."""
    tokens: list[Token] = []
    line, col = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            num = int(text[i:j])
            den = 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1] in _DIGITS:
                j += 1
                k = j
                while k < len(text) and text[k] in _DIGITS:
                    k += 1
                den = int(text[j:k])
                if den == 0:
                    raise ParseError("zero denominator in numeric literal", line, start_col)
                j = k
            tokens.append(Token("NUMBER", text[i:j], line, start_col, Fraction(num, den)))
            col += j - i
            i = j
            continue
        if ch in _NAME_OK:
            j = i
            while j < len(text) and text[j] in _NAME_OK:
                j += 1
            tokens.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# scalar parser (the Coefficient textual form)
# ---------------------------------------------------------------------------


class _ScalarParser:
    def __init__(self, chart: Chart, tokens: list[Token]):
        self.chart = chart
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.take()

    def parse(self) -> Coefficient:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> Coefficient:
        negate = False
        tok = self.peek()
        if tok.kind == "OP" and tok.text in {"+", "-"}:
            self.take()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in {"+", "-"}:
                self.take()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Coefficient:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.take()
                value = value * self.atom()
            else:
                return value

    def atom(self) -> Coefficient:
        tok = self.take()
        if tok.kind == "NUMBER":
            base = Coefficient.constant(self.chart, tok.value)
        elif tok.kind == "NAME":
            if tok.text not in self.chart.coordinates:
                raise ParseError(f"unknown coordinate {tok.text!r}", tok.line, tok.column)
            base = Coefficient.coordinate(self.chart, tok.text)
        elif tok.kind == "OP" and tok.text == "(":
            base = self.expr()
            self.expect_op(")")
        else:
            raise ParseError(
                f"expected a number, coordinate or '(', found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        nxt = self.peek()
        if nxt.kind == "OP" and nxt.text == "^":
            self.take()
            power = self.signed_int()
            base = base**power
        return base

    def signed_int(self) -> int:
        sign = 1
        tok = self.take()
        if tok.kind == "OP" and tok.text in {"+", "-"}:
            sign = -1 if tok.text == "-" else 1
            tok = self.take()
        if tok.kind != "NUMBER" or tok.value.denominator != 1:
            raise ParseError("exponent must be an integer", tok.line, tok.column)
        return sign * int(tok.value)


def parse_coefficient(chart: Chart, text: str) -> Coefficient:
    """Parse the textual scalar form, e.g. ``3/2*s0*y^2 - 1*z^-1``."""
    return _ScalarParser(chart, tokenize(text)).parse()


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


def _term_text(chart: Chart, expo: tuple[int, ...], magnitude: Fraction, spelling: _Spelling, elide_unit: bool) -> str:
    """One unsigned term: the rational, then the coordinate powers in name
    order.  A rational 1 before a monomial is left out when ``elide_unit``
    is set or the format never writes it."""
    mono = spelling.product.join(spelling.power(name, k) for name, k in sorted(zip(chart.coordinates, expo)) if k)
    if not mono:
        return spelling.rational(magnitude)
    if magnitude == 1 and (elide_unit or not spelling.unit_prefix):
        return mono
    return f"{spelling.rational(magnitude)}{spelling.product}{mono}"


def _coefficient_text(c: Coefficient, spelling: _Spelling, elide_unit: bool = False) -> str:
    return _signed_sum(
        (value < 0, _term_text(c.chart, expo, abs(value), spelling, elide_unit)) for expo, value in c.sorted_terms()
    )


def format_coefficient(c: Coefficient, elide_unit: bool = False) -> str:
    """Canonical text.  With ``elide_unit`` a ±1 rational prefix in front
    of a nontrivial monomial is dropped (used when coefficients are
    embedded in rendered forms)."""
    return _coefficient_text(c, _PLAIN, elide_unit)
