"""Expression language and renderers for the command-line surface.

The grammar (EBNF):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := power ('*' power)*
    power  := factor ('^' factor)*
    factor := FUNC '(' expr (',' expr)* ')'
            | NAME | NUMBER
            | '(' expr ')'
            | '-' power

with functions ``d`` (exterior derivative), ``i_`` (interior product),
``L_`` (Lie derivative), ``sn`` (Schouten-Nijenhuis bracket), ``jb``
(Jacobi bracket of conformal data), ``cup`` (cup product) and ``psi``
(transport to the homogeneous extension).  ``i_(X, w)`` refuses an X of
higher degree than w, where the library's contraction gives the zero of
the negative degree, as ``L_`` does.  Whatever the library refuses in
an operation or call (a DegreeError or DomainError, such as ``sn`` of
two scalars or ``d`` of a term whose exponent would leave its slot) is
a ``ParseError`` at its operator or call.

``^`` binds tighter than ``*`` and ``-`` so that ``1/2*p0^2`` reads as
half the square of ``p0`` and ``2*-p0^2`` as ``-2*p0^2``.  ``^`` and
``*`` both act as the exterior product on graded operands, while
``base ^ k`` with a scalar ``k`` is a power when the base has degree
zero and an iterated wedge otherwise (conformal data has no powers).
The exponent must be a constant integer: ``x^(1+1)`` is ``x^2`` and
``dx^(1+1)`` is ``dx^2``, and ``x^y``, ``dx^y`` or ``x^(1/2)`` is a
``ParseError`` at the ``^``.

Every text the package reads is read by this grammar, with one
exception: ``parse_coefficient``, which reads the stored coefficients of
session and interchange files as scalar expressions on their chart,
first tries a one-pass reader of the exact form ``format_coefficient``
writes (``_writer_form``).  That reader builds its terms through the
ring's validating constructor and declines, never refuses: any text
outside that form, or any it would read differently from the grammar,
goes to the grammar, so every value is the grammar's value and every
refusal the grammar's refusal.  A value that is not a scalar is refused.
The reader of a session file's stored values (``_check_shape`` and the
parse pass it returns) is the one code that reads inside a payload, and
where an older file stores a zero α at degree 0 it types it at n − p, as
the library requires.

A standalone value (``to_json``, ``render`` to JSON) names its chart;
the package writes such values and reads none back.  A document that
names its chart once writes its values through the chartless writer
``_payload``: a ``gjb-session/2`` file, whose reader refuses a value
that names a chart, and ``gjb tables --format json``.  A
``gjb-session/1`` file names the chart in every value; its reader checks
each against the session chart and drops it from the payload, so that
the next save writes version 2.

Bare names resolve, in order, against session bindings, chart
coordinates, ``d<coordinate>`` (a coordinate differential) and
``e_<coordinate>`` (a coordinate vector field); this matches the textual
form every object in the package renders to, so ``parse`` inverts the
plain renderer.

``render`` writes plain text and LaTeX through the one text writer of
``coeffring``, adding only the layout of conformal data, and JSON.  A
power that leaves the Laurent ring (``q^-1`` where ``q`` may vanish) is
a ``ParseError`` at its ``^``.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .coeffring import (
    _DIGITS,
    _NAME_OK,
    _SPELLINGS,
    Chart,
    Coefficient,
    _accumulate,
    _coefficient_text,
    format_coefficient,
    latex_name,
)
from .errors import DegreeError, DomainError, ParseError, StructuralError
from .exterior import (
    DiffForm,
    MultiVector,
    _index_tuples,
    exterior_derivative,
    interior_product,
    lie_derivative,
    schouten_nijenhuis,
    wedge,
)
from .structures import ConformalData, NFormStructure, cup_product, jacobi_bracket, make_conformal_data

__all__ = [
    "Node",
    "Num",
    "Ident",
    "Neg",
    "BinOp",
    "Call",
    "Token",
    "tokenize",
    "parse",
    "parse_coefficient",
    "free_names",
    "Environment",
    "elaborate",
    "evaluate",
    "render",
    "latex_name",
    "to_json",
    "chart_to_json",
    "chart_from_json",
]


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Token:
    kind: str  # NUMBER NAME OP END
    text: str
    line: int
    column: int
    value: Fraction | None = None


_OPS = {"+", "-", "*", "^", "(", ")", ",", "="}


def _digits_value(digits: str, line: int, column: int) -> int:
    """The int of ASCII ``digits``; more than the interpreter converts is a ParseError."""
    if (limit := sys.get_int_max_str_digits()) and len(digits) > limit:
        raise ParseError(f"numeric literal with more than {limit} digits", line, column)
    return int(digits)


def tokenize(text: str) -> list[Token]:
    """The token stream of every text the package reads.  Numbers are
    integers or integer ratios like 3/2 (no spaces around the slash) in
    ASCII digits; names are spelled in the chart's alphabet ``_NAME_OK``
    and do not start with a digit.  Any other character, a non-ASCII
    digit or letter included, is a ParseError."""
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
            num = _digits_value(text[i:j], line, start_col)
            den = 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1] in _DIGITS:
                j += 1
                k = j
                while k < len(text) and text[k] in _DIGITS:
                    k += 1
                den = _digits_value(text[j:k], line, start_col)
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
# abstract syntax
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Node:
    line: int
    column: int


@dataclass(slots=True)
class Num(Node):
    value: Fraction


@dataclass(slots=True)
class Ident(Node):
    name: str


@dataclass(slots=True)
class Neg(Node):
    operand: Node


@dataclass(slots=True)
class BinOp(Node):
    op: str  # + - * ^
    left: Node
    right: Node


@dataclass(slots=True)
class Call(Node):
    func: str
    args: tuple[Node, ...]


FUNCTIONS = {"d": 1, "i_": 2, "L_": 2, "sn": 2, "jb": 2, "cup": 2, "psi": 1}


class _Parser:
    def __init__(self, tokens: list[Token]):
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
            raise ParseError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column
            )
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self) -> Node:
        tok = self.peek()
        negate = False
        if tok.kind == "OP" and tok.text in {"+", "-"}:
            self.take()
            negate = tok.text == "-"
        node = self.term()
        if negate:
            node = Neg(tok.line, tok.column, node)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in {"+", "-"}:
                self.take()
                rhs = self.term()
                node = BinOp(tok.line, tok.column, tok.text, node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.take()
                node = BinOp(tok.line, tok.column, "*", node, self.power())
            else:
                return node

    def power(self) -> Node:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "^":
                self.take()
                node = BinOp(tok.line, tok.column, "^", node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        tok = self.take()
        if tok.kind == "NUMBER":
            return Num(tok.line, tok.column, tok.value)
        if tok.kind == "NAME":
            nxt = self.peek()
            if tok.text in FUNCTIONS and nxt.kind == "OP" and nxt.text == "(":
                self.take()
                args = [self.expr()]
                while self.peek().kind == "OP" and self.peek().text == ",":
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                        tok.line,
                        tok.column,
                    )
                return Call(tok.line, tok.column, tok.text, tuple(args))
            return Ident(tok.line, tok.column, tok.text)
        if tok.kind == "OP" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "OP" and tok.text == "-":
            return Neg(tok.line, tok.column, self.power())
        raise ParseError(
            f"expected a name, number or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def parse(text: str) -> Node:
    """Parse expression text into an abstract syntax tree."""
    return _Parser(tokenize(text)).parse()


def free_names(node: Node) -> set[str]:
    """All bare identifiers appearing in the tree."""
    if isinstance(node, Ident):
        return {node.name}
    if isinstance(node, Neg):
        return free_names(node.operand)
    if isinstance(node, BinOp):
        return free_names(node.left) | free_names(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for arg in node.args:
            out |= free_names(arg)
        return out
    return set()


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------


Value = object  # Coefficient | DiffForm | MultiVector | ConformalData


@dataclass
class Environment:
    """Everything an expression may refer to.

    ``extension`` is the homogeneous extension of ``structure`` that
    ``psi`` transports to.  It is built from the structure when it is
    first read and kept; it is None when there is no structure.
    """

    chart: Chart
    bindings: Mapping[str, Value] = field(default_factory=dict)
    structure: NFormStructure | None = None
    warnings: list[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    @functools.cached_property
    def extension(self):  # symplectization.Symplectization | None
        if self.structure is None:
            return None
        from .symplectization import build

        return build(self.structure)


def _chart_name(chart: Chart, name: str) -> Value | None:
    """What the chart itself calls ``name``: a coordinate, its differential
    ``d<coordinate>`` or its vector field ``e_<coordinate>``; None for any
    other name.  These names are how objects render, so nothing may rebind
    them."""
    if name in chart.coordinates:
        return Coefficient.coordinate(chart, name)
    if name.startswith("d") and name[1:] in chart.coordinates:
        return DiffForm.differential(chart, name[1:])
    if name.startswith("e_") and name[2:] in chart.coordinates:
        return MultiVector.basis_vector(chart, name[2:])
    return None


def _shadowing_error(chart: Chart) -> str | None:
    """Why the chart's own names do not all read back, or None: a
    coordinate spelled ``d<name>`` or ``e_<name>`` for another coordinate
    ``name`` would be read by ``_chart_name`` in place of that coordinate's
    differential or vector field, so neither could be written again."""
    for name in chart.coordinates:
        for prefix, noun in (("d", "differential"), ("e_", "vector field")):
            base = name[len(prefix) :]
            if name.startswith(prefix) and base in chart.coordinates:
                return f"coordinate {name!r} would shadow the {noun} of {base!r}"
    return None


def _binding_name_error(chart: Chart, name: str) -> str | None:
    """Why ``name`` may not name a binding on ``chart``, or None when it
    may: a binding must be an identifier spelled in the alphabet the
    tokenizer reads names in, and may shadow neither a name the chart
    gives (see ``_chart_name``) nor a builtin function."""
    if not name.isidentifier() or not set(name) <= _NAME_OK:
        return f"{name!r} is not a valid binding name"
    value = _chart_name(chart, name)
    if value is not None:
        noun = {Coefficient: "coordinate", DiffForm: "coordinate differential", MultiVector: "coordinate vector field"}
        return f"{name!r} is a chart {noun[type(value)]} and cannot be rebound"
    if name in FUNCTIONS:
        return f"{name!r} is a builtin function name and cannot be rebound"
    return None


def _resolve(env: Environment, node: Ident) -> Value:
    name = node.name
    if name in env.bindings:
        return env.bindings[name]
    value = _chart_name(env.chart, name)
    if value is None:
        raise ParseError(f"unknown name {name!r}", node.line, node.column)
    return value


def _describe(value: Value) -> str:
    if isinstance(value, Coefficient):
        return "scalar"
    if isinstance(value, DiffForm):
        return f"{value.degree}-form"
    if isinstance(value, MultiVector):
        return f"{value.degree}-vector"
    if isinstance(value, ConformalData):
        return f"conformal data of degree {value.degree}"
    return type(value).__name__


def _as_scalar(value: Value) -> Coefficient | None:
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (DiffForm, MultiVector)) and value.degree == 0:
        return value.scalar()
    return None


def _as_graded(cls: type, value: Value, node: Node):
    """``value`` as a ``cls`` (DiffForm or MultiVector); a scalar is the
    degree-0 object of either species."""
    if isinstance(value, cls):
        return value
    scalar = _as_scalar(value)
    if scalar is not None:
        return cls.from_scalar(scalar)
    noun = "form" if cls is DiffForm else "multivector"
    raise ParseError(f"expected a {noun}, got a {_describe(value)}", node.line, node.column)


def _as_data(value: Value, node: Node) -> ConformalData:
    if isinstance(value, ConformalData):
        return value
    raise ParseError(
        f"expected conformal data, got a {_describe(value)}", node.line, node.column
    )


def _add(env: Environment, node: BinOp, left: Value, right: Value) -> Value:
    sign = 1 if node.op == "+" else -1
    if isinstance(left, ConformalData) or isinstance(right, ConformalData):
        a, b = _as_data(left, node.left), _as_data(right, node.right)
        return a + b.scale(sign) if sign < 0 else a + b
    ls, rs = _as_scalar(left), _as_scalar(right)
    if ls is not None and rs is not None:
        return ls + rs if sign > 0 else ls - rs
    if isinstance(left, DiffForm) or isinstance(right, DiffForm):
        a, b = _as_graded(DiffForm, left, node.left), _as_graded(DiffForm, right, node.right)
    else:
        a, b = _as_graded(MultiVector, left, node.left), _as_graded(MultiVector, right, node.right)
    return a + b if sign > 0 else a - b


def _wedge_like(env: Environment, node: BinOp, left: Value, right: Value) -> Value:
    """Shared semantics of ``*`` and graded ``^``: scalars scale, graded
    operands of the same species take their exterior product."""
    ls, rs = _as_scalar(left), _as_scalar(right)
    if ls is not None and rs is not None:
        return ls * rs
    if ls is not None or rs is not None:
        scalar, other = (ls, right) if ls is not None else (rs, left)
        if isinstance(other, ConformalData):
            if not scalar.is_constant():
                raise ParseError("conformal data scales by constants only", node.line, node.column)
            return other.scale(scalar.constant_value())
        return other.scale(scalar)
    if not (isinstance(left, (DiffForm, MultiVector)) and type(left) is type(right)):
        raise ParseError(
            f"cannot multiply a {_describe(left)} with a {_describe(right)}",
            node.line,
            node.column,
        )
    product = wedge(left, right)
    if product.is_zero() and not left.is_zero() and not right.is_zero():
        env.warn("exterior product vanishes identically (repeated factor)")
    return product


def _power(env: Environment, node: BinOp, left: Value, exponent: int) -> Value:
    scalar = _as_scalar(left)
    if scalar is not None:
        return scalar**exponent
    if isinstance(left, ConformalData):
        raise ParseError("conformal data has no powers", node.line, node.column)
    if exponent < 0:
        raise ParseError(
            f"negative power of a {_describe(left)} is undefined", node.line, node.column
        )
    result: Value = (
        DiffForm.from_scalar(Coefficient.one(left.chart))
        if isinstance(left, DiffForm)
        else MultiVector.from_scalar(Coefficient.one(left.chart))
    )
    for _ in range(exponent):
        result = wedge(result, left)
    if exponent >= 2 and result.is_zero() and not left.is_zero():
        env.warn("exterior product vanishes identically (repeated factor)")
    return result


def elaborate(node: Node, env: Environment) -> Value:
    """Evaluate an abstract syntax tree against an environment.  The
    library's own refusals of an operation or call (a DegreeError or
    DomainError: degrees that do not match, the bracket of two scalars, a
    contraction past the bottom degree, a negative power of a coordinate
    that may vanish, an exponent that leaves its slot) are a ParseError
    at its operator or call."""
    if isinstance(node, Num):
        return Coefficient.constant(env.chart, node.value)
    if isinstance(node, Ident):
        return _resolve(env, node)
    if isinstance(node, Neg):
        value = elaborate(node.operand, env)
        if isinstance(value, ConformalData):
            return value.scale(-1)
        return -value
    if not isinstance(node, (BinOp, Call)):
        raise ParseError("malformed expression tree", node.line, node.column)
    try:
        return _call(env, node) if isinstance(node, Call) else _operation(env, node)
    except (DegreeError, DomainError) as err:
        raise ParseError(str(err), node.line, node.column) from err


def _operation(env: Environment, node: BinOp) -> Value:
    """``+``, ``-``, ``*`` or ``^``.  A ``^`` whose exponent is a scalar
    is a power, whatever its base: the exponent must be a constant integer,
    as an integer literal is."""
    if node.op in {"+", "-"}:
        return _add(env, node, elaborate(node.left, env), elaborate(node.right, env))
    left = elaborate(node.left, env)
    right = elaborate(node.right, env)
    if node.op == "^":
        rs = _as_scalar(right)
        if rs is not None:
            if not rs.is_constant() or rs.constant_value().denominator != 1:
                raise ParseError("exponent must be an integer", node.line, node.column)
            return _power(env, node, left, int(rs.constant_value()))
    return _wedge_like(env, node, left, right)


def _call(env: Environment, node: Call) -> Value:
    args = [elaborate(arg, env) for arg in node.args]
    if node.func == "d":
        value = args[0]
        scalar = _as_scalar(value)
        if scalar is not None:
            return exterior_derivative(DiffForm.from_scalar(scalar))
        if isinstance(value, DiffForm):
            return exterior_derivative(value)
        raise ParseError(
            f"d applies to forms, got a {_describe(value)}", node.line, node.column
        )
    if node.func == "i_":
        U = _as_graded(MultiVector, args[0], node.args[0])
        omega = _as_graded(DiffForm, args[1], node.args[1])
        return interior_product(U, omega, strict=True)
    if node.func == "L_":
        U = _as_graded(MultiVector, args[0], node.args[0])
        omega = _as_graded(DiffForm, args[1], node.args[1])
        return lie_derivative(U, omega)
    if node.func == "sn":
        U = _as_graded(MultiVector, args[0], node.args[0])
        V = _as_graded(MultiVector, args[1], node.args[1])
        return schouten_nijenhuis(U, V)
    if node.func in {"jb", "cup"}:
        a = _as_data(args[0], node.args[0])
        b = _as_data(args[1], node.args[1])
        return jacobi_bracket(a, b) if node.func == "jb" else cup_product(a, b)
    if node.func == "psi":
        data = _as_data(args[0], node.args[0])
        if env.extension is None:
            raise ParseError(
                "psi needs a structure form to extend (run `theta set` first)",
                node.line,
                node.column,
            )
        from .symplectization import psi_map

        return psi_map(env.extension, data)[0]
    raise ParseError(f"unknown function {node.func!r}", node.line, node.column)


def evaluate(text: str, env: Environment) -> Value:
    """Parse and elaborate in one step."""
    return elaborate(parse(text), env)


# the form ``format_coefficient`` writes: terms joined by " + " or " - ",
# the first maybe led by "-", each an ASCII integer or ratio followed by
# ``*name`` factors, each with an optional ``^k``
_TERM = r"[0-9]+(?:/[0-9]+)?(?:\*[A-Za-z_][A-Za-z0-9_]*(?:\^-?[0-9]+)?)*"
_WRITER_FORM = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*")


def _writer_form(chart: Chart, text: str) -> Coefficient | None:
    """The value of ``text`` read in one pass when it is in the form
    ``format_coefficient`` writes, with the validating constructor's
    checks: each literal's numerator and denominator go straight into the
    ring's ``nums`` and ``den`` (numerators over the lcm of the
    denominators, then one normalisation), each monomial is packed
    through ``Chart.pack`` and the keys are checked by
    ``Coefficient._checked_nums``.  None, for the grammar to read, for any
    other text, for a zero term with factors, which the writer never
    writes, and for what the grammar reads otherwise or refuses: a name
    that is not a coordinate, names of a term not in strictly increasing
    order, a repeated monomial, a zero denominator, a literal longer than
    the interpreter converts, and (refused by those checks) an exponent
    outside its slot or a negative one on a coordinate that may vanish."""
    if not _WRITER_FORM.fullmatch(text) or ((limit := sys.get_int_max_str_digits()) and len(text) > limit):
        return None
    coordinates, terms = chart.coordinates, {}
    pieces = text.split(" ")  # term, sign, term, sign, ...
    for sign, term in zip(["+", *pieces[1::2]], pieces[::2]):
        number, *factors = term.split("*")
        numerator, _, denominator = number.partition("/")
        value, den = int(numerator), int(denominator or 1)
        if not den:
            return None
        if not value and factors:
            return None  # the writer never writes a zero term
        exponents, previous = [0] * len(coordinates), ""
        for factor in factors:
            name, _, power = factor.partition("^")
            if name <= previous or name not in coordinates:
                return None
            exponents[coordinates.index(name)] = int(power or 1)
            previous = name
        key = tuple(exponents)
        if key in terms:
            return None
        terms[key] = (-value if sign == "-" else value, den)
    try:
        den = math.lcm(*(d for _, d in terms.values()))
        nums = {chart.pack(key): n * (den // d) for key, (n, d) in terms.items()}
        return Coefficient._checked_nums(chart, nums, den)
    except DomainError:
        return None


def parse_coefficient(chart: Chart, text: str) -> Coefficient:
    """Read a scalar expression on ``chart``, such as the textual form
    ``3/2*s0*y^2 - 1*z^-1`` that ``format_coefficient`` writes; text whose
    value is not a scalar is a ParseError.  A text in the writer's form is
    read in one pass (``_writer_form``); any other text, and any that pass
    declines, goes through the grammar, so every refusal is the grammar's."""
    value = _writer_form(chart, text)
    if value is not None:
        return value
    value = evaluate(text, Environment(chart=chart))
    if not isinstance(value, Coefficient):
        raise ParseError(f"expected a scalar, got a {_describe(value)}")
    return value


# ---------------------------------------------------------------------------
# JSON interchange and the renderer
# ---------------------------------------------------------------------------


def chart_to_json(chart: Chart) -> dict:
    return {
        "coordinates": list(chart.coordinates),
        "nonvanishing": sorted(chart.nonvanishing),
    }


def _member(payload, key: str, kind: type, what: str):
    """``payload[key]``, checked to be a ``kind``; malformed input raises
    StructuralError instead of a KeyError or TypeError."""
    if not isinstance(payload, dict):
        raise StructuralError(f"{what} is not a JSON object")
    value = payload.get(key)
    if not isinstance(value, kind):
        raise StructuralError(f"{what} needs a {kind.__name__} {key!r}")
    return value


def chart_from_json(payload: dict) -> Chart:
    coordinates = _member(payload, "coordinates", list, "a serialized chart")
    nonvanishing = payload.get("nonvanishing", [])
    if not isinstance(nonvanishing, list) or not all(isinstance(n, str) for n in coordinates + nonvanishing):
        raise StructuralError("a serialized chart needs lists of coordinate names")
    return Chart(tuple(coordinates), frozenset(nonvanishing))


def _graded_payload(obj: DiffForm | MultiVector, with_chart: bool) -> dict:
    payload = {"kind": "form" if isinstance(obj, DiffForm) else "multivector", "degree": obj.degree}
    if with_chart:
        payload["chart"] = chart_to_json(obj.chart)
    payload["terms"] = [{"indices": list(key), "coeff": format_coefficient(obj.terms[key])} for key in sorted(obj.terms)]
    return payload


def _payload(obj: Value, with_chart: bool = False) -> dict:
    """The interchange writer; by default the chartless one, for a document
    that names its chart once for every value it holds."""
    if isinstance(obj, Coefficient):
        return {**_graded_payload(DiffForm.from_scalar(obj), with_chart), "kind": "coefficient"}
    if isinstance(obj, (DiffForm, MultiVector)):
        return _graded_payload(obj, with_chart)
    if isinstance(obj, ConformalData):
        return {
            "kind": "conformal-data",
            "alpha": _graded_payload(obj.alpha, with_chart),
            "x_field": _graded_payload(obj.x_field, with_chart),
            "v_field": _graded_payload(obj.v_field, with_chart),
            "validated": True,
        }
    raise StructuralError(f"cannot serialize a {type(obj).__name__}")


def to_json(obj: Value) -> dict:
    """Serializable dictionary for any expression value.  A standalone value
    names its chart; conformal data names it in each of its parts."""
    return _payload(obj, with_chart=True)


def _chart_of(payload: dict, chart: Chart) -> None:
    """Check the chart a version-1 value names against the document's."""
    stored = _member(payload, "chart", dict, "a serialized object")
    # the serialized form of ``chart`` is a well-formed chart that names it
    if stored != chart_to_json(chart) and chart_from_json(stored) != chart:
        raise StructuralError("serialized object lives on a different chart")


def _quoted(text: str) -> str:
    """``text`` quoted for an error line; a text of more than 80
    characters by its head and tail, and its length."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:60] + '...' + text[-17:]!r} ({len(text)} characters)"


def _stored_coefficient(chart: Chart, text: str) -> Coefficient:
    """Parse a serialized coefficient; text that does not read as a scalar
    of the chart's Laurent ring is malformed, and the error names it (the
    language reports the library's refusals, such as ``sn`` of two scalars
    or ``d`` past a slot, as a ParseError at the call)."""
    try:
        return parse_coefficient(chart, text)
    except ParseError as err:
        raise StructuralError(f"coefficient {_quoted(text)}: {err}") from err


def _term_indices(terms: list, texts: list):
    """The ``indices`` of each serialized term, checked together with the
    term object and its ``coeff`` string, which is appended to ``texts``."""
    for term in terms:
        if not isinstance(term, dict):
            raise StructuralError("a serialized term is not a JSON object")
        indices, text = term.get("indices"), term.get("coeff")
        if not isinstance(indices, list):
            raise StructuralError("a serialized term needs a list 'indices'")
        if not isinstance(text, str):
            raise StructuralError("a serialized term needs a str 'coeff'")
        texts.append(text)
        yield indices


def _check_graded(payload: dict, chart: Chart, chart_member: str, kinds: tuple[str, ...] = ("form", "multivector")):
    """``_check_shape`` for a serialized form or multivector, or for a
    coefficient, which is stored as a degree-0 form: kind, chart, degree
    and index tuples (``exterior._index_tuples``) are checked and every
    coefficient must be a string, but none is parsed.  The terms are read
    in one pass: ``_index_tuples`` draws them from ``_term_indices``."""
    kind = _member(payload, "kind", str, "a serialized object")
    if kind not in kinds:
        raise StructuralError(f"expected a serialized {', '.join(kinds[:-1])} or {kinds[-1]}, got kind {kind!r}")
    if chart_member == "refused":
        if "chart" in payload:
            raise StructuralError("a stored value names no chart of its own; the session file names it once")
    else:
        _chart_of(payload, chart)
        del payload["chart"]
    degree = payload.get("degree")
    terms = _member(payload, "terms", list, "a serialized object")
    texts: list[str] = []
    keys = _index_tuples(_term_indices(terms, texts), degree, chart.dimension)
    if kind == "coefficient" and degree != 0:
        raise StructuralError(f"a serialized coefficient has degree 0, not {degree}")
    cls = MultiVector if kind == "multivector" else DiffForm

    def parse():
        # checked keys and coefficients parsed on ``chart`` make a trusted
        # value; a repeated index tuple is summed, like the terms of any sum
        value = cls._trusted(chart, degree, _accumulate(zip(keys, (_stored_coefficient(chart, text) for text in texts))))
        return value.scalar() if kind == "coefficient" else value

    return parse


def _check_shape(payload: dict, chart: Chart, structure: NFormStructure | None, chart_member: str):
    """The structural pass of a session file's stored value: everything
    about it that can be checked without parsing a coefficient.  Returns
    the parse pass, a function of no arguments that parses the
    coefficients on the session chart ``chart`` and rebuilds the value
    (re-validating conformal data against ``structure``).

    ``chart_member`` says what becomes of the ``chart`` member of each
    graded value (of each part of conformal data): a value of a
    ``gjb-session/2`` file names none, and a ``chart`` member is refused
    ("refused"); a value of a ``gjb-session/1`` file names the session
    chart, which is checked and then deleted from the payload, so that
    the payload is written back without it ("dropped").

    Files written before zero forms carried negative degrees store a zero
    α at degree 0, so a termless stored α is typed at n − p, in the
    payload itself: a payload saved verbatim then holds the typed zero."""
    if _member(payload, "kind", str, "a serialized value") != "conformal-data":
        return _check_graded(payload, chart, chart_member, ("form", "multivector", "coefficient"))
    if structure is None:
        raise StructuralError("conformal data needs a structure to re-validate against")
    x_field, alpha = payload.get("x_field"), payload.get("alpha")
    parse_x = _check_graded(x_field, chart, chart_member)
    if isinstance(alpha, dict) and alpha.get("terms") == []:
        alpha["degree"] = structure.degree - x_field["degree"]
    parts = [_check_graded(alpha, chart, chart_member), parse_x, _check_graded(payload.get("v_field"), chart, chart_member)]
    return lambda: make_conformal_data(structure, *(parse() for parse in parts))


def _stored_value(payload: dict, chart: Chart, structure: NFormStructure | None, chart_member: str) -> Value:
    """The value of a session file's payload, checked and rebuilt at once
    (``_check_shape`` says what ``chart_member`` does)."""
    return _check_shape(payload, chart, structure, chart_member)()


# conformal data in each text format: the name of alpha, and the lines
# that follow the three parts
_CONFORMAL_LAYOUT = {
    "plain": ("alpha", []),
    "latex": (
        "\\alpha",
        ["\\text{with } \\iota_X\\Theta = -\\alpha,\\quad \\iota_X\\mathrm{d}\\Theta = (-1)^{p+1}(\\mathrm{d}\\alpha + \\iota_V\\Theta)"],
    ),
}


def render(obj: Value, fmt: str = "plain") -> str:
    """Deterministic text for an expression value in the given format.
    Plain and LaTeX text come from one writer and differ only in the
    format's spelling record (``coeffring._SPELLINGS``); a scalar drops a
    unit prefix that a degree-0 form or multivector keeps in plain text."""
    if fmt == "json":
        return json.dumps(to_json(obj), indent=2, sort_keys=True)
    spelling = _SPELLINGS.get(fmt)
    if spelling is None:
        raise StructuralError(f"unknown render format {fmt!r}")
    if isinstance(obj, Coefficient):
        return _coefficient_text(obj, spelling, elide_unit=True)
    if isinstance(obj, (DiffForm, MultiVector)):
        return obj._text(spelling)
    if isinstance(obj, ConformalData):
        alpha, notes = _CONFORMAL_LAYOUT[fmt]
        lines = [f"{alpha} = {obj.alpha._text(spelling)}", f"X = {obj.x_field._text(spelling)}", f"V = {obj.v_field._text(spelling)}"]
        return "\n".join(lines + notes)
    raise StructuralError(f"cannot render a {type(obj).__name__}")
