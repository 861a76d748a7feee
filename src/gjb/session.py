"""Persistent named environments for the command-line interface.

A session file is a JSON document:

    {
      "schema": "gjb-session/1",
      "chart": {"coordinates": [...], "nonvanishing": [...]},
      "theta": <form> | null,
      "bindings": {"name": <form|multivector|coefficient|conformal-data>, ...}
    }

where the object payloads follow the library's JSON interchange.  The
schema tag is checked on load and unrecognized versions are refused.
Stored conformal data never trusts its validation stamp: it is rebuilt
against the session structure, re-running the defining equations, every
time the file is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .coeffring import Chart
from .dsl import (
    Environment,
    chart_from_json,
    chart_to_json,
    object_from_json,
    to_json,
)
from .errors import GjbError, StructuralError
from .exterior import DiffForm
from .structures import NFormStructure

__all__ = ["SCHEMA", "Session", "SessionError"]

SCHEMA = "gjb-session/1"


class SessionError(GjbError):
    """A session file is missing, malformed, or incompatible."""


def _read(label: str, reader, payload, **context):
    """``reader(payload)``, refusing a malformed payload as a SessionError."""
    try:
        return reader(payload, **context)
    except StructuralError as err:
        raise SessionError(f"malformed session file: {label}: {err}") from err


@dataclass
class Session:
    chart: Chart
    theta: DiffForm | None = None
    bindings: dict[str, object] = field(default_factory=dict)
    _structure: NFormStructure | None = field(default=None, repr=False)

    # -- structure ---------------------------------------------------------

    def structure(self) -> NFormStructure:
        if self.theta is None:
            raise SessionError("no structure form is set; run `theta set <expr>` first")
        if self._structure is None or self._structure.theta != self.theta:
            self._structure = NFormStructure(self.chart, self.theta)
        return self._structure

    def set_theta(self, theta: DiffForm) -> None:
        """Install a new structure form, re-validating every stored
        conformal triple against it."""
        if theta.chart != self.chart:
            raise StructuralError("theta must live on the session chart")
        if theta.degree < 1 or theta.is_zero():
            raise StructuralError("theta must be a nonzero form of positive degree")
        old_theta, old_structure = self.theta, self._structure
        self.theta = theta
        self._structure = None
        try:
            self._revalidate_bindings()
        except GjbError:
            self.theta, self._structure = old_theta, old_structure
            raise

    def _revalidate_bindings(self) -> None:
        from .structures import ConformalData, make_conformal_data

        rebuilt = {}
        for name, value in self.bindings.items():
            if isinstance(value, ConformalData):
                rebuilt[name] = make_conformal_data(
                    self.structure(), value.alpha, value.x_field, value.v_field
                )
            else:
                rebuilt[name] = value
        self.bindings = rebuilt

    def environment(self, extension=None) -> Environment:
        structure = None
        if self.theta is not None:
            structure = self.structure()
        return Environment(
            chart=self.chart,
            bindings=self.bindings,
            structure=structure,
            extension=extension,
        )

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "chart": chart_to_json(self.chart),
            "theta": None if self.theta is None else to_json(self.theta),
            "bindings": {name: to_json(value) for name, value in self.bindings.items()},
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_payload(cls, payload: dict) -> "Session":
        if not isinstance(payload, dict):
            raise SessionError("session file does not hold a JSON object")
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise SessionError(
                f"unsupported session schema {schema!r}; this build reads {SCHEMA!r}"
            )
        bindings = payload.get("bindings", {})
        if not isinstance(bindings, dict):
            raise SessionError("the session bindings are not a JSON object")
        chart = _read("chart", chart_from_json, payload.get("chart"))
        session = cls(chart=chart)
        if payload.get("theta") is not None:
            theta = _read("theta", object_from_json, payload["theta"], chart=chart)
            if not isinstance(theta, DiffForm):
                raise SessionError("the stored structure form is not a form")
            session.theta = theta
        structure = session.structure() if session.theta is not None else None
        for name, entry in bindings.items():
            # object_from_json refuses conformal data when there is no structure form
            session.bindings[name] = _read(f"binding {name!r}", object_from_json, entry, chart=chart, structure=structure)
        return session

    @classmethod
    def load(cls, path: str | Path) -> "Session":
        p = Path(path)
        if not p.exists():
            raise SessionError(f"no session file at {p}; run `chart new` first")
        try:
            payload = json.loads(p.read_text())
        except json.JSONDecodeError as err:
            raise SessionError(f"session file {p} is not valid JSON: {err}") from err
        return cls.from_payload(payload)
