"""Persistent named environments for the command-line interface.

A session file is a JSON document:

    {
      "bindings": {
        "name": <form|multivector|coefficient|conformal-data>,
        ...
      },
      "chart": {"coordinates": [...], "nonvanishing": [...]},
      "schema": "gjb-session/2",
      "theta": <form> | null
    }

where the object payloads follow the library's JSON interchange, less
the ``chart`` member: the document names its chart once, and θ and every
binding (each part of conformal data too) live on it, so a stored value
that names a chart of its own is refused.  A save writes one member to a
line and one binding to a line, sorted by name, each value compact with
sorted keys; a load needs only valid JSON, so a file in any other layout
reads the same.

Every load reads the file as UTF-8 text (a file that cannot be read as
such is a SessionError naming it), then checks the JSON syntax, the
schema tag, the chart, the structure form, the binding names and the
shape of every binding, without parsing any stored coefficient; each
payload is checked once per command.  A ``gjb-session/1`` file, whose
every value names its chart, still loads: each chart it names is checked
against the document chart and then dropped from the payload, so the
next save writes ``gjb-session/2`` with every coefficient text kept.
Every other schema tag is refused.  Every binding a command reads is
then rebuilt on first read by the parse pass its check returned: its
coefficients are parsed, and conformal data is re-validated against the
session structure, re-running the defining equations; nothing read is
ever trusted, the stored validation stamp included.  Bindings a command
does not read are written back verbatim when it saves.  This module
reads no field inside a binding payload: the interchange reader of
``dsl`` checks each one, drops the chart a version-1 value names, and
types a zero α that an older file stores at degree 0.
"""

from __future__ import annotations

import copy
import json
import os
from collections.abc import Callable, MutableMapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .coeffring import Chart
from .dsl import (
    Environment,
    _binding_name_error,
    _check_shape,
    _payload,
    _shadowing_error,
    _stored_value,
    chart_from_json,
    chart_to_json,
)
from .errors import GjbError, ParseError, StructuralError
from .exterior import DiffForm
from .structures import ConformalData, NFormStructure, make_conformal_data

__all__ = ["SCHEMA", "Session", "SessionError"]

SCHEMA = "gjb-session/2"

# the schema that names the chart in every value; it loads, and its next
# save writes SCHEMA
_SCHEMA_1 = "gjb-session/1"


class SessionError(GjbError):
    """A session file is missing, malformed, or incompatible."""


class _SaveError(SessionError, OSError):
    """A session file could not be written.  It stays an OSError, so a
    caller that catches the write's own error still catches it."""


def _read(label: str, reader, *args, **context):
    """``reader(*args)``, refusing a malformed payload as a SessionError."""
    try:
        return reader(*args, **context)
    except (StructuralError, ParseError) as err:
        raise SessionError(f"malformed session file: {label}: {err}") from err


class _Unread(NamedTuple):
    """A binding as the session file stores it, not read yet: its payload,
    whose shape the load has checked, and the parse pass that check
    returned, which rebuilds the value."""

    payload: dict
    parse: Callable[[], object]


class _Bindings(MutableMapping):
    """A session's named values.  A binding loaded from a file stays its
    payload until it is first looked up; its parse pass then rebuilds it
    and the value replaces the payload.  Membership, iteration and length
    never read a binding.  A value off the session chart is refused, since
    no load could read it back."""

    def __init__(self, chart: Chart, entries):
        self._chart, self._entries = chart, {}
        self.update(entries)

    def __getitem__(self, name):
        entry = self._entries[name]
        if isinstance(entry, _Unread):
            entry = self._entries[name] = _read(f"binding {name!r}", entry.parse)
        return entry

    def __setitem__(self, name, value):
        if not isinstance(value, _Unread):
            chart = value.structure.chart if isinstance(value, ConformalData) else value.chart
            if chart != self._chart:
                raise SessionError(f"cannot store {name!r}: its value lives off the session chart")
        self._entries[name] = value

    def __delitem__(self, name):
        del self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def to_json(self) -> dict:
        """Unread payloads verbatim, read and new values serialized without
        their chart."""
        return {
            name: entry.payload if isinstance(entry, _Unread) else _payload(entry)
            for name, entry in self._entries.items()
        }


@dataclass
class Session:
    chart: Chart
    theta: DiffForm | None = None
    bindings: MutableMapping[str, object] = field(default_factory=dict)
    _structure: NFormStructure | None = field(default=None, repr=False)

    def __post_init__(self):
        self.bindings = _Bindings(self.chart, self.bindings)

    # -- structure ---------------------------------------------------------

    def structure(self) -> NFormStructure:
        if self.theta is None:
            raise SessionError("no structure form is set; run `theta set <expr>` first")
        if self._structure is None or self._structure.theta != self.theta:
            self._structure = NFormStructure(self.chart, self.theta)
        return self._structure

    def set_theta(self, theta: DiffForm) -> None:
        """Install a new structure form, reading every binding and
        re-validating every conformal triple against it."""
        if theta.chart != self.chart:
            raise StructuralError("theta must live on the session chart")
        if theta.degree < 1 or theta.is_zero():
            raise StructuralError("theta must be a nonzero form of positive degree")
        old = self.theta, self._structure, self.bindings
        self.theta = theta
        self._structure = None
        try:
            self._revalidate_bindings()
        except GjbError:
            self.theta, self._structure, self.bindings = old
            raise

    def _revalidate_bindings(self) -> None:
        rebuilt = {}
        for name, entry in self.bindings._entries.items():
            if isinstance(entry, _Unread):
                # a parse pass holds the structure it was checked against;
                # the reader types a stored zero α inside the payload it is
                # given, so it gets a copy and a rollback keeps the original
                payload = copy.deepcopy(entry.payload)
                entry = _read(f"binding {name!r}", _stored_value, payload, self.chart, self.structure(), "refused")
            elif isinstance(entry, ConformalData):
                entry = make_conformal_data(self.structure(), entry.alpha, entry.x_field, entry.v_field)
            rebuilt[name] = entry
        self.bindings = _Bindings(self.chart, rebuilt)

    def environment(self) -> Environment:
        structure = self.structure() if self.theta is not None else None
        return Environment(chart=self.chart, bindings=self.bindings, structure=structure)

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "chart": chart_to_json(self.chart),
            "theta": None if self.theta is None else _payload(self.theta),
            "bindings": self.bindings.to_json(),
        }

    def save(self, path: str | Path) -> None:
        """Write the session atomically: a failed write leaves the old
        file whole, unread bindings included, and raises a SessionError
        (also an OSError) that names ``path``."""
        path = Path(path)
        # one member to a line and one binding to a line, sorted by name;
        # json.dumps writes each value with the C encoder, which it uses
        # only without an indent
        payload = self.to_payload()
        members = []
        for key in sorted(payload):
            value = payload[key]
            if key == "bindings" and value:
                lines = ",\n".join(f"    {json.dumps(name)}: {json.dumps(value[name], sort_keys=True)}" for name in sorted(value))
                value_text = f"{{\n{lines}\n  }}"
            else:
                value_text = json.dumps(value, sort_keys=True)
            members.append(f"  {json.dumps(key)}: {value_text}")
        text = "{\n" + ",\n".join(members) + "\n}\n"
        scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(scratch, "w") as handle:
                handle.write(text)
            os.replace(scratch, path)
        except OSError as err:
            scratch.unlink(missing_ok=True)
            raise _SaveError(f"cannot write session file {path}: {err.strerror or err}") from err
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise

    @classmethod
    def from_payload(cls, payload: dict) -> "Session":
        if not isinstance(payload, dict):
            raise SessionError("session file does not hold a JSON object")
        schema = payload.get("schema")
        if schema not in (SCHEMA, _SCHEMA_1):
            raise SessionError(
                f"unsupported session schema {schema!r}; this build reads {SCHEMA!r} and {_SCHEMA_1!r}"
            )
        # a version-1 value names the session chart, which its check drops
        chart_member = "refused" if schema == SCHEMA else "dropped"
        bindings = payload.get("bindings", {})
        if not isinstance(bindings, dict):
            raise SessionError("the session bindings are not a JSON object")
        chart = _read("chart", chart_from_json, payload.get("chart"))
        if (error := _shadowing_error(chart)) is not None:
            raise SessionError(f"malformed session file: chart: {error}")
        session = cls(chart=chart)
        if payload.get("theta") is not None:
            theta = _read("theta", _stored_value, payload["theta"], chart, None, chart_member)
            if not isinstance(theta, DiffForm):
                raise SessionError("the stored structure form is not a form")
            session.theta = theta
        structure = session.structure() if session.theta is not None else None
        for name, entry in bindings.items():
            error = _binding_name_error(chart, name)
            if error is not None:
                raise SessionError(f"malformed session file: binding {name!r}: {error}")
            parse = _read(f"binding {name!r}", _check_shape, entry, chart, structure, chart_member)
            session.bindings[name] = _Unread(entry, parse)
        return session

    @classmethod
    def load(cls, path: str | Path) -> "Session":
        p = Path(path)
        if not p.exists():
            raise SessionError(f"no session file at {p}; run `chart new` first")
        # the read has its own errors: a UnicodeDecodeError is a ValueError,
        # which the JSON clause below would misname
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise SessionError(f"session file {p} is not UTF-8 text: {err}") from err
        except OSError as err:
            raise SessionError(f"cannot read session file {p}: {err.strerror or err}") from err
        try:
            payload = json.loads(text)
        except ValueError as err:
            # a JSONDecodeError, or an int of more digits than the
            # interpreter converts (sys.get_int_max_str_digits())
            what = "is not valid JSON" if isinstance(err, json.JSONDecodeError) else "holds a number too long to read"
            raise SessionError(f"session file {p} {what}: {err}") from err
        return cls.from_payload(payload)
