"""Command-line interface.

Two kinds of commands:

* **Session commands** operate on a JSON session file (``--session``,
  default ``gjb-session.json``): ``chart new`` creates it, ``theta set``
  installs the structure form, ``let`` stores named values, and the
  computational commands (``check``, ``kernel``, ``conformal``,
  ``bracket``, ``cup``, ``symplectize``, ``lift``, ``poisson``,
  ``psi-check``, ``sharp``, ``render``) read it without modifying it.

* **Phase-space commands** (``tables``, ``hdw``, ``sigma``,
  ``dissipated``, ``distortion``) work directly on a canonical phase
  space selected with ``--n``/``--m`` and need no session.

Exit codes: 0 on success, 1 when a mathematical check fails (among them
``dissipated: no``, and a ``--G`` that does not generate a conformal
transformation, a check on the data), an object fails validation, or a
value to be written holds a rational with more digits than the
interpreter converts to text (4 300 by default), 2 on usage errors (bad
flags, syntax errors, a numeric literal longer than that limit, unknown
names, an expression that leaves the Laurent ring such as ``q^-1`` where
``q`` may vanish, a degree the operation does not take, which is every
``DegreeError``, such as ``kernel --degree 0`` or ``sharp`` of a form of
the wrong degree, a free name of ``hdw``'s ``--H`` spelled like one of
its jet symbols, an operand outside the variables it may depend on: an
``--H`` on the residual momentum, an ``--F`` on more than x and y, a
``--G`` on more than x, y and the momenta; missing, unreadable or
incompatible session files), 141 (128 + SIGPIPE) when stdout is a pipe
whose reader has closed it, as in ``gjb tables --n 2 --m 1 | head -1``;
nothing more is written then.

Verdicts print one way (``_verdict``): ``label: yes|no``, then a failed
one's ``witness:`` and ``details:``.  ``symplectize`` exits 0 either way,
as does ``distortion``'s ``all zero: no``, a result.  ``kernel --which
both`` prints ker Θ, then ker dΘ, not K_p, which ``kernel(p, "both")`` gives.

Each operand text is parsed once: a phase-space command reads the free
names of its ``--H``/``--F``/``--G`` trees to build its structure
(``_canonical_from_args``) and evaluates the same trees (``_operands``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .coeffring import Chart, Coefficient
from .dsl import (
    Environment,
    Node,
    _as_scalar,
    _binding_name_error,
    _chart_name,
    _payload,
    _shadowing_error,
    chart_to_json,
    elaborate,
    free_names,
    latex_name,
    parse,
    render,
    to_json,
)
from .errors import DegreeError, DomainError, GjbError, ParseError, StructuralError, ValidationError
from .exterior import DiffForm, MultiVector
from .fieldtheory import (
    CanonicalStructure,
    HamiltonianSection,
    _fg_support_error,
    _table1_rows,
    dissipated_check,
    distortion,
    elementary_tables,
    hamiltonian_section,
    jet_name,
    JetSection,
    PhaseSpaceSpec,
    vertical_conformal_from_FG,
)
from .session import Session, SessionError
from .structures import CheckReport, ConformalData, _witnessed_data, cup_product, is_multicontact, jacobi_bracket, make_conformal_data
from .symplectization import (
    _poisson,
    build,
    check_correspondence,
    lift_conformal,
    nondegeneracy_check,
    psi_map,
)
from .sharp import sharp_and_reeb

__all__ = ["main"]


class _UsageError(Exception):
    """Bad command-line input (maps to exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise _UsageError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # a single-dash argument that is no option string of this parser is
        # an operand, such as ``-q`` or ``-d(q)``; so no short option takes
        # an attached value (``-sFILE``)
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# what an operand of each kind says when it is given something else
_REFUSALS = {
    Coefficient: "{label} must be a scalar expression",
    DiffForm: "{label} must be a differential form, got {got}",
    MultiVector: "{label} must be a multivector, got {got}",
    ConformalData: "{label} must name conformal data, got {got}",
}


def _parsed(text: str, label: str) -> Node:
    """The syntax tree of an operand text; one that does not parse is a
    usage error labelled ``label``."""
    try:
        return parse(text)
    except ParseError as err:
        raise _UsageError(f"in {label}: {err}") from err


def _operands(env: Environment, *operands: tuple[str | Node, str, type | None]) -> list:
    """Each ``(source, label, kind)`` evaluated against ``env`` and coerced
    to ``kind`` (None takes the value as it is), by the expression
    language's rule that a scalar and a degree-0 form or multivector are
    one thing.  A source text is parsed here, in turn; a tree is one
    ``_canonical_from_args`` already parsed, so no text is read twice.
    The warnings of the whole evaluation are printed once, after every
    operand is read."""
    values = []
    for source, label, kind in operands:
        tree = _parsed(source, label) if isinstance(source, str) else source
        try:
            value = elaborate(tree, env)
        except ParseError as err:
            raise _UsageError(f"in {label}: {err}") from err
        if kind is not None and not isinstance(value, kind):
            scalar = None if kind is ConformalData else _as_scalar(value)
            if scalar is None:
                raise _UsageError(_REFUSALS[kind].format(label=label, got=type(value).__name__))
            value = scalar if kind is Coefficient else kind.from_scalar(scalar)
        values.append(value)
    for message in env.warnings:
        print(f"warning: {message}", file=sys.stderr)
    env.warnings.clear()
    return values


def _data_pair(args) -> tuple:
    """The operands of ``bracket``, ``cup``, ``poisson`` and ``psi-check``."""
    return (args.first, "first operand", ConformalData), (args.second, "second operand", ConformalData)


def _print_value(value, fmt: str = "plain") -> None:
    print(render(value, fmt))


def _spec(n: int, m: int) -> PhaseSpaceSpec:
    """The phase-space shape the flags give; one out of range is a usage
    error, with the library's message."""
    try:
        return PhaseSpaceSpec(n, m)
    except DomainError as err:
        raise _UsageError(str(err)) from err


def _canonical_from_args(args, *operands: tuple[str, str]) -> tuple[CanonicalStructure, list[Node]]:
    """Build the (n, m) phase space, promoting unknown names in the
    ``(text, label)`` operands to symbolic parameters, and return it with
    the operands' syntax trees, in order, for ``_operands`` to evaluate.
    The names are read off the shape alone, so exactly one structure is
    built; a text that does not parse is a usage error labelled as
    ``_operands`` labels it."""
    spec = _spec(args.n, args.m)
    chart = Chart(spec.coordinates)
    unknown = set()
    trees = []
    for text, label in operands:
        trees.append(_parsed(text, label))
        unknown.update(name for name in free_names(trees[-1]) if _chart_name(chart, name) is None)
    return CanonicalStructure(spec, tuple(sorted(unknown))), trees


def _section(C: CanonicalStructure, H: Coefficient) -> HamiltonianSection:
    """The Hamiltonian section of ``--H``; an H on the residual momentum
    is a usage error, with the library's message."""
    try:
        return hamiltonian_section(C, H)
    except DomainError as err:
        raise _UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# session commands
# ---------------------------------------------------------------------------


def _cmd_chart_new(args) -> int:
    if bool(args.canonical) == bool(args.coordinates):
        raise _UsageError("chart new takes exactly one of --coordinates or --canonical")
    if args.canonical:
        if args.nonvanishing:
            raise _UsageError("--nonvanishing applies to explicit charts only")
        pieces = _split_names(args.canonical)
        if len(pieces) != 2 or not all(p.isdigit() for p in pieces):
            raise _UsageError("--canonical expects N,M (e.g. --canonical 2,1)")
        parameters = _split_names(args.parameters) if args.parameters else ()
        try:
            C = CanonicalStructure(_spec(int(pieces[0]), int(pieces[1])), parameters)
        except DomainError as err:  # a repeated, colliding or misspelled parameter name
            raise _UsageError(str(err)) from err
        chart, theta = C.chart, C.theta
    else:
        if args.parameters:
            raise _UsageError("--parameters applies to canonical charts only")
        coordinates = _split_names(args.coordinates)
        nonvanishing = frozenset(_split_names(args.nonvanishing)) if args.nonvanishing else frozenset()
        try:
            chart, theta = Chart(coordinates, nonvanishing), None
        except StructuralError as err:  # a repeated or misspelled name, or a flag on no coordinate
            raise _UsageError(str(err)) from err
    shadowing = _shadowing_error(chart)
    if shadowing is not None:
        raise _UsageError(shadowing)
    session = Session(chart=chart)
    if theta is not None:
        session.set_theta(theta)
    session.save(args.session)
    print(f"chart: {', '.join(session.chart.coordinates)}")
    if session.chart.nonvanishing:
        print(f"nonvanishing: {', '.join(sorted(session.chart.nonvanishing))}")
    if session.theta is not None:
        print(f"theta = {session.theta}")
    print(f"session written to {args.session}")
    return 0


def _cmd_theta_set(args) -> int:
    session = Session.load(args.session)
    (value,) = _operands(session.environment(), (args.expr, "theta", None))
    if not isinstance(value, DiffForm) or value.degree < 1 or value.is_zero():
        raise _UsageError("theta must be a nonzero form of positive degree")
    session.set_theta(value)
    session.save(args.session)
    print(f"theta = {value}")
    return 0


def _verdict(label: str, report: CheckReport) -> int:
    """Print ``label: yes|no``, then a failed report's witness and details; exit 0 or 1."""
    print(f"{label}: {'yes' if report.ok else 'no'}")
    if not report.ok and report.witness is not None:
        print(f"witness: {report.witness}")
    if not report.ok and report.details:
        print(f"details: {report.details}")
    return 0 if report.ok else 1


def _cmd_check_multicontact(args) -> int:
    return _verdict("multicontact", is_multicontact(Session.load(args.session).structure()))


def _cmd_kernel(args) -> int:
    session = Session.load(args.session)
    S = session.structure()
    which = ("theta", "dtheta") if args.which == "both" else (args.which,)
    for name in which:
        basis = S.kernel(args.degree, name)
        label = "theta" if name == "theta" else "d(theta)"
        print(f"kernel of degree {args.degree} against {label}: dimension {len(basis)}")
        for vector in basis:
            print(f"  {vector}")
    return 0


def _check_binding_name(session: Session, name: str) -> None:
    error = _binding_name_error(session.chart, name)
    if error is not None:
        raise _UsageError(error)


def _store_binding(session: Session, path, name: str, value) -> None:
    session.bindings[name] = value
    session.save(path)
    print(f"stored as {name}")


def _cmd_conformal(args) -> int:
    session = Session.load(args.session)
    if args.store:
        _check_binding_name(session, args.store)
    S = session.structure()
    env = session.environment()
    if args.mode == "verify":
        if args.alpha is None or args.x is None or args.v is None:
            raise _UsageError("conformal verify needs --alpha, --x and --v")
        alpha, x_field, v_value = _operands(
            env, (args.alpha, "--alpha", DiffForm), (args.x, "--x", MultiVector), (args.v, "--v", None)
        )
        # a degree-0 --v is read as its scalar, which the library refuses
        # where the witness needs a positive degree
        scalar = _as_scalar(v_value)
        if scalar is None and not isinstance(v_value, MultiVector):
            raise _UsageError(_REFUSALS[MultiVector].format(label="--v", got=type(v_value).__name__))
        if alpha.is_zero():  # a zero of negative degree has no spelling
            alpha = DiffForm.zero(S.chart, S.degree - x_field.degree)
        data = make_conformal_data(S, alpha, x_field, v_value if scalar is None else scalar)
    else:
        # make: solve for the witness from the transformation alone
        if args.x is None:
            raise _UsageError("conformal make needs --x")
        (x_field,) = _operands(env, (args.x, "--x", MultiVector))
        data = _witnessed_data(S, x_field)
        if data is None:
            print("conformal: no (no witness solves the conformal equation)")
            return 1
    print("conformal: yes")
    _print_value(data, args.format)
    if args.store:
        _store_binding(session, args.session, args.store, data)
    return 0


def _cmd_bracket(args) -> int:
    a, b = _operands(Session.load(args.session).environment(), *_data_pair(args))
    result = jacobi_bracket(a, b) if args.operation == "bracket" else cup_product(a, b)
    _print_value(result, args.format)
    return 0


def _cmd_symplectize(args) -> int:
    session = Session.load(args.session)
    sym = build(session.structure())
    print(f"fiber: {sym.fiber}")
    print(f"upsilon = {sym.upsilon}")
    print(f"omega = {sym.omega}")
    print(f"liouville = {sym.liouville}")
    _verdict("nondegenerate", nondegeneracy_check(sym))
    return 0


def _cmd_lift(args) -> int:
    env = Session.load(args.session).environment()
    (data,) = _operands(env, (args.expr, "operand", ConformalData))
    lifted = lift_conformal(env.extension, data.x_field, data.v_field)
    print(f"lift = {lifted}")
    return 0


def _cmd_poisson(args) -> int:
    env = Session.load(args.session).environment()
    a, b = _operands(env, *_data_pair(args))
    result = _poisson(env.extension, psi_map(env.extension, a)[1], psi_map(env.extension, b)[1])
    _print_value(result, args.format)
    return 0


def _cmd_psi_check(args) -> int:
    env = Session.load(args.session).environment()
    a, b = _operands(env, *_data_pair(args))
    residual = check_correspondence(env.extension, a, b)
    print(f"residual = {residual}")
    return _verdict("correspondence holds", CheckReport(residual.is_zero()))


def _cmd_sharp(args) -> int:
    session = Session.load(args.session)
    (alpha,) = _operands(session.environment(), (args.expr, "operand", DiffForm))
    x_field, factor = sharp_and_reeb(session.structure(), alpha)
    print(f"sharp = {x_field}")
    print(f"reeb factor = {factor}")
    return 0


def _cmd_render(args) -> int:
    (value,) = _operands(Session.load(args.session).environment(), (args.expr, "expression", None))
    _print_value(value, args.format)
    return 0


def _cmd_let(args) -> int:
    text = " ".join(args.assignment)
    if "=" not in text:
        raise _UsageError("let expects `let <name> = <expression>`")
    name, expr = text.split("=", 1)
    name = name.strip()
    session = Session.load(args.session)
    _check_binding_name(session, name)
    (value,) = _operands(session.environment(), (expr, "expression", None))
    session.bindings[name] = value  # refused off the session chart, before anything prints
    text = render(value)  # so is a value with no text
    print(f"{name} =")
    print(text)
    _store_binding(session, args.session, name, value)
    return 0


# ---------------------------------------------------------------------------
# canonical phase-space commands
# ---------------------------------------------------------------------------


def _row_title(row) -> str:
    if row.indices:
        inner = ",".join(str(i) for i in row.indices)
        return f"{row.family}({inner})"
    return str(row.family)


def _cmd_tables(args) -> int:
    C, _ = _canonical_from_args(args)
    rows, entries = elementary_tables(C)
    # each cell names two of the rows; each row's title is written once
    titles = {id(row): _row_title(row) for row in rows}
    if args.format == "json":
        # every value lives on the one chart, written once at the top
        payload = {
            "n": args.n,
            "m": args.m,
            "chart": chart_to_json(C.chart),
            "table1": [
                {
                    "family": row.family,
                    "indices": list(row.indices),
                    "alpha": _payload(row.data.alpha),
                    "x_field": _payload(row.data.x_field),
                    "v_field": _payload(row.data.v_field),
                    "factor": str(row.factor),
                }
                for row in rows
            ],
            "table2": [
                {
                    "row": titles[id(entry.row)],
                    "column": titles[id(entry.column)],
                    "computed": _payload(entry.computed),
                    "reference": _payload(entry.reference),
                    "match": entry.match,
                    "note": entry.note,
                }
                for entry in entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"elementary conformal forms on the canonical (n={args.n}, m={args.m}) phase space")
    print()
    print("Table 1: form | transformation | factor")
    for row in rows:
        print(f"  [{titles[id(row)]}] alpha = {render(row.data.alpha, args.format)}")
        print(f"      X = {render(row.data.x_field, args.format)}")
        print(f"      factor = {row.factor}")
    print()
    print("Table 2: pairwise brackets, definitional vs reference")
    mismatches = 0
    for entry in entries:
        match = entry.match
        verdict = "MATCH" if match else "MISMATCH"
        mismatches += not match
        line = (
            f"  {{{titles[id(entry.row)]}, {titles[id(entry.column)]}}}"
            f" = {render(entry.computed, args.format)}  [reference: {render(entry.reference, args.format)}]  {verdict}"
        )
        if entry.note:
            line += f"  ({entry.note})"
        print(line)
    print()
    print(f"{len(entries)} brackets, {mismatches} mismatch(es) against the reference table")
    return 0


def _hdw_labels(C: CanonicalStructure, count: int) -> list[str]:
    labels = ["E_s"]
    for i in range(C.spec.m):
        for mu in range(C.spec.n):
            labels.append(f"E_y[{i},{mu}]")
    for i in range(C.spec.m):
        labels.append(f"E_p[{i}]")
    while len(labels) < count:
        labels.append(f"E[{len(labels)}]")
    return labels[:count]


def _legend(C: CanonicalStructure, J: JetSection) -> dict[str, str]:
    out = {}
    for field in J.fields:
        for x in C.x_names:
            out[jet_name(field, x)] = f"first derivative of {field} along {x}"
    return out


def _cmd_hdw(args) -> int:
    C, (tree,) = _canonical_from_args(args, (args.H, "--H"))
    (H,) = _operands(Environment(chart=C.chart), (tree, "--H", Coefficient))
    section = _section(C, H)
    try:
        section.jet
    except DomainError as err:  # a parameter named like a jet symbol
        raise _UsageError(str(err)) from err
    equations, sigma = section.system[0], section.sigma
    labels = _hdw_labels(C, len(equations))
    if args.format == "json":
        payload = {
            "n": args.n,
            "m": args.m,
            "parameters": list(C.parameters),
            "hamiltonian": str(H),
            "sigma": to_json(sigma),
            "residuals": [
                {"label": label, "expression": str(eq)} for label, eq in zip(labels, equations)
            ],
            "legend": _legend(C, section.jet),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.format == "latex":
        print(f"\\sigma_h = {render(sigma, 'latex')}")
        for label, eq in zip(labels, equations):
            print(f"0 = {render(eq, 'latex')} \\qquad [{latex_name(label)}]")
        return 0
    if C.parameters:
        print(f"parameters: {', '.join(C.parameters)}")
    print(f"sigma = {render(sigma)}")
    print("field equations (each = 0):")
    for label, eq in zip(labels, equations):
        print(f"  {label}: {render(eq)}")
    legend = _legend(C, section.jet)
    print("legend:")
    for symbol in sorted(legend):
        print(f"  {symbol}: {legend[symbol]}")
    return 0


def _cmd_sigma(args) -> int:
    C, (tree,) = _canonical_from_args(args, (args.H, "--H"))
    (H,) = _operands(Environment(chart=C.chart), (tree, "--H", Coefficient))
    _print_value(_section(C, H).sigma, args.format)
    return 0


def _parse_row_spec(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, tail = text.partition(":")
    parts = _split_names(tail)
    if not all(part.isdecimal() for part in (head, *parts)):
        raise _UsageError(f"bad --row {text!r}; expected FAMILY[:i[,mu]] like 3:0 or 2:0,1")
    return int(head), tuple(int(part) for part in parts)


def _cmd_dissipated(args) -> int:
    C, (h_tree, *fg_trees) = _canonical_from_args(
        args, (args.H, "--H"), *([(args.F, "--F")] if args.F else ()), *((g, "--G") for g in args.G or ())
    )
    if args.row and (args.F or args.G):
        raise _UsageError("give either --row or --F/--G, not both")
    if args.row:
        family, indices = _parse_row_spec(args.row)
        matches = [r for r in _table1_rows(C) if r.family == family and (not indices or r.indices == indices)]
        if not matches:
            raise _UsageError(f"no elementary row {args.row!r} on this phase space")
        if len(matches) > 1:
            options = ", ".join(_row_title(r) for r in matches)
            raise _UsageError(f"--row {args.row!r} is ambiguous; candidates: {options}")
        (H,) = _operands(Environment(chart=C.chart), (h_tree, "--H", Coefficient))
        data = matches[0].data
        title = matches[0].label
    elif args.F or args.G:
        if args.G and len(args.G) != C.spec.n:
            raise _UsageError(f"--G must be given {C.spec.n} times (one component per variable)")
        f_source = fg_trees.pop(0) if args.F else "0"
        H, F, *G = _operands(
            Environment(chart=C.chart),
            (h_tree, "--H", Coefficient),
            (f_source, "--F", Coefficient),
            *((g, "--G", Coefficient) for g in fg_trees or ["0"] * C.spec.n),
        )
        refusal = _fg_support_error(C, F, G)
        if refusal is not None:
            raise _UsageError(refusal)
        _, data = vertical_conformal_from_FG(C, F, G)
        title = "vertical conformal data from (F, G)"
    else:
        raise _UsageError("dissipated needs --row or --F/--G to pick the conformal data")
    report = dissipated_check(_section(C, H), data)
    print(f"form: {title}")
    print(f"alpha = {data.alpha}")
    return _verdict("dissipated", report)


def _cmd_distortion(args) -> int:
    if args.n is not None or args.m is not None:
        if args.n is None or args.m is None:
            raise _UsageError("give both --n and --m (or neither, to use the session)")
        S = CanonicalStructure(_spec(args.n, args.m))
    else:
        S = Session.load(args.session).structure()
    table, all_zero = distortion(S)
    size = max((i for i, _ in table), default=-1) + 1
    for i in range(size):
        for j in range(size):
            print(f"C[{i}][{j}] = {table[(i, j)]}")
    print(f"all zero: {'yes' if all_zero else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def _add_session_flag(parser) -> None:
    parser.add_argument(
        "-s",
        "--session",
        default="gjb-session.json",
        help="session file (default: gjb-session.json)",
    )


def _add_format_flag(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("plain", "latex", "json"),
        default="plain",
        help="output format",
    )


def _add_nm_flags(parser, required: bool = True) -> None:
    parser.add_argument("--n", type=int, required=required, help="number of independent variables")
    parser.add_argument("--m", type=int, required=required, help="number of field components")


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The command-line parser, built on the first ``main`` call of a
    process and reused by every later one (parsing leaves it unchanged)."""
    parser = _Parser(prog="gjb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    chart = sub.add_parser("chart", help="manage the session chart")
    chart_sub = chart.add_subparsers(dest="chart_command", required=True)
    new = chart_sub.add_parser("new", help="start a session on a fresh chart")
    new.add_argument("--coordinates", help="comma-separated coordinate names")
    new.add_argument("--nonvanishing", help="comma-separated invertible coordinates")
    new.add_argument("--canonical", help="N,M: canonical phase space chart with its structure form")
    new.add_argument("--parameters", help="comma-separated symbolic constants (canonical only)")
    _add_session_flag(new)
    new.set_defaults(func=_cmd_chart_new)

    theta = sub.add_parser("theta", help="manage the structure form")
    theta_sub = theta.add_subparsers(dest="theta_command", required=True)
    tset = theta_sub.add_parser("set", help="install the structure form")
    tset.add_argument("expr", help="form expression, e.g. 'd(z)^d(x) - p*d(x)^d(y)'")
    _add_session_flag(tset)
    tset.set_defaults(func=_cmd_theta_set)

    check = sub.add_parser("check", help="structure checks")
    check_sub = check.add_subparsers(dest="check_command", required=True)
    mc = check_sub.add_parser("multicontact", help="degree-1 kernel conditions")
    _add_session_flag(mc)
    mc.set_defaults(func=_cmd_check_multicontact)

    kernel = sub.add_parser("kernel", help="kernel basis of the structure form")
    kernel.add_argument("--degree", type=int, default=1)
    which = "both: the kernel of theta, then that of d(theta); not their intersection K_p"
    kernel.add_argument("--which", choices=("theta", "dtheta", "both"), default="theta", help=which)
    _add_session_flag(kernel)
    kernel.set_defaults(func=_cmd_kernel)

    conformal = sub.add_parser("conformal", help="conformal data construction and checks")
    conformal.add_argument("mode", choices=("verify", "make"))
    conformal.add_argument("--alpha", help="form expression (verify)")
    conformal.add_argument("--x", help="multivector expression")
    conformal.add_argument("--v", help="witness expression (verify)")
    conformal.add_argument("--store", help="bind the validated data to this session name")
    _add_format_flag(conformal)
    _add_session_flag(conformal)
    conformal.set_defaults(func=_cmd_conformal)

    for name, operation in (("bracket", "bracket"), ("cup", "cup")):
        cmd = sub.add_parser(name, help=f"{name} of two conformal data expressions")
        cmd.add_argument("first")
        cmd.add_argument("second")
        _add_format_flag(cmd)
        _add_session_flag(cmd)
        cmd.set_defaults(func=_cmd_bracket, operation=operation)

    symplectize = sub.add_parser("symplectize", help="homogeneous extension of the session structure")
    _add_session_flag(symplectize)
    symplectize.set_defaults(func=_cmd_symplectize)

    lift = sub.add_parser("lift", help="homogeneous lift of conformal data")
    lift.add_argument("expr")
    _add_session_flag(lift)
    lift.set_defaults(func=_cmd_lift)

    poisson = sub.add_parser("poisson", help="graded Poisson bracket on the extension")
    poisson.add_argument("first")
    poisson.add_argument("second")
    _add_format_flag(poisson)
    _add_session_flag(poisson)
    poisson.set_defaults(func=_cmd_poisson)

    psi_check = sub.add_parser("psi-check", help="bracket correspondence residual on the extension")
    psi_check.add_argument("first")
    psi_check.add_argument("second")
    _add_session_flag(psi_check)
    psi_check.set_defaults(func=_cmd_psi_check)

    sharp = sub.add_parser("sharp", help="invert the flat map and read off the Reeb factor")
    sharp.add_argument("expr")
    _add_session_flag(sharp)
    sharp.set_defaults(func=_cmd_sharp)

    tables = sub.add_parser("tables", help="elementary conformal forms and their bracket table")
    _add_nm_flags(tables)
    _add_format_flag(tables)
    tables.set_defaults(func=_cmd_tables)

    hdw = sub.add_parser("hdw", help="covariant Hamilton equations for a Hamiltonian function")
    _add_nm_flags(hdw)
    hdw.add_argument("--H", required=True, help="Hamiltonian expression; unknown names become parameters")
    _add_format_flag(hdw)
    hdw.set_defaults(func=_cmd_hdw)

    sigma = sub.add_parser("sigma", help="dissipation one-form of a Hamiltonian function")
    _add_nm_flags(sigma)
    sigma.add_argument("--H", required=True)
    _add_format_flag(sigma)
    sigma.set_defaults(func=_cmd_sigma)

    dissipated = sub.add_parser("dissipated", help="test a conformal form against the dissipation law")
    _add_nm_flags(dissipated)
    dissipated.add_argument("--H", required=True)
    dissipated.add_argument("--row", help="elementary row FAMILY[:i[,mu]], e.g. 1, 3:0, 2:0,1")
    dissipated.add_argument("--F", help="scalar F(x, y) for vertical conformal data")
    dissipated.add_argument("--G", action="append", help="component G^mu (repeat n times)")
    dissipated.set_defaults(func=_cmd_dissipated)

    distortion_cmd = sub.add_parser("distortion", help="distortion table of a variational structure")
    _add_nm_flags(distortion_cmd, required=False)
    _add_session_flag(distortion_cmd)
    distortion_cmd.set_defaults(func=_cmd_distortion)

    render_cmd = sub.add_parser("render", help="evaluate an expression and print it")
    render_cmd.add_argument("expr")
    _add_format_flag(render_cmd)
    _add_session_flag(render_cmd)
    render_cmd.set_defaults(func=_cmd_render)

    let = sub.add_parser("let", help="bind a name in the session: let a = d(x)^d(y)")
    let.add_argument("assignment", nargs="+")
    _add_session_flag(let)
    let.set_defaults(func=_cmd_let)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to the
        # null device, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe ended
    except (_UsageError, SessionError, ParseError, DegreeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        for label, residual in err.residuals.items():
            print(f"  residual[{label}] = {residual}", file=sys.stderr)
        return 1
    except GjbError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
