"""Out-of-program span tracer for the gjb benchmark.

The tracer wraps the public functions of every ``src/gjb`` module from
outside.  Modules import each other with ``from .x import y``, so a
function is wrapped by replacing *every* module attribute across ``gjb``
and ``gjb.*`` that is bound to the same function object; patching only
the defining module would miss most callers.  A few class methods are
wrapped as well (see ``CLASS_METHODS``).  ``uninstall`` puts every
original object back, and ``leftover_wrappers`` proves it did.

Spans are only recorded while the benchmark has an op open
(``begin_op``/``end_op``), so setup and output checks cost nothing.
Each span's self time is its duration minus the time covered by its
child spans; the op itself is the root span, so the self times of all
layers plus the benchmark's own share add up to the traced op time.
Every span is counted into per-function aggregates as it closes; spans
of layers other than ``coeffring`` are also kept in memory as records
(id, parent id, name, start, end, op id) and written out by ``dump``.
``coeffring`` spans are far too many to keep one by one and are only
aggregated.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
import types

MARK = "__gjb_bench_wrapped__"

LAYERS = (
    "coeffring",
    "exterior",
    "linalg",
    "structures",
    "sharp",
    "symplectization",
    "fieldtheory",
    "dsl",
    "session",
    "cli",
)

CLASS_METHODS = {
    "coeffring": {"Coefficient": ("__init__", "__mul__", "__add__", "__sub__")},
    "structures": {"ConformalData": ("validate",), "NFormStructure": ("kernel",)},
    "session": {"Session": ("load", "save")},
}

# Spans of one group share a depth counter; a call is "outer" when no
# member of its group is already open.  Names not listed form a group
# of their own, so their outer calls are the non-recursive ones.
GROUPS = {
    "coeffring.add": ("coeffring.Coefficient.__add__", "coeffring.Coefficient.__sub__"),
    "dsl.evaluate": ("dsl.evaluate", "dsl.elaborate"),
    "linalg": (
        "linalg.exact_divide",
        "linalg.rref",
        "linalg.nullspace",
        "linalg.solve_affine",
        "linalg.reduce_mod_span",
        "linalg.is_in_span",
    ),
    "session.load": ("session.Session.load",),
}


class Tracer:
    """Records spans of wrapped gjb callables while an op is open."""

    def __init__(self):
        self.op_id = None
        self.op_kind = None
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, outer_calls]
        self.groups: dict[str, list] = {}  # group -> [open count]
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.ops = 0
        self.ops_by_kind: dict[str, int] = {}
        self.op_time = 0.0
        self.root_self = 0.0
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id, self.op_kind = op_id, kind
        self.ops_by_kind[kind] = self.ops_by_kind.get(kind, 0) + 1
        self.stack = [[0.0, 0, time.perf_counter()]]

    def end_op(self) -> float:
        end = time.perf_counter()
        child, _, start = self.stack.pop()
        duration = end - start
        self.spans.append((0, None, "bench.op", start, end, self.op_id))
        self.ops += 1
        self.op_time += duration
        self.root_self += duration - child
        self.op_id = self.op_kind = None
        return duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def group_open(self, group: str) -> bool:
        return self.groups[group][0] > 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        perf = time.perf_counter
        cell = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        group_name = next((g for g, members in GROUPS.items() if name in members), name)
        group = self.groups.setdefault(group_name, [0])
        record = not name.startswith("coeffring.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            outer = group[0] == 0
            group[0] += 1
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][1]
            frame = [0.0, span_id if record else stack[-1][1]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                group[0] -= 1
                duration = end - start
                stack[-1][0] += duration
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                if outer:
                    cell[3] += 1
                if record:
                    tracer.spans.append((span_id, parent, name, start, end, tracer.op_id))
            if hook is not None:
                hook(tracer, args, result, outer)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every public gjb function and the listed class methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = gjb_modules()
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"gjb.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    originals[id(fn)] = self._wrap(name, fn, HOOKS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, classes in CLASS_METHODS.items():
            module = sys.modules[f"gjb.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = vars(cls)[method]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    name = f"{layer}.{cls_name}.{method}"
                    wrapper = self._wrap(name, fn, HOOKS.get(name))
                    # aliases such as __radd__ = __add__ are the same object
                    for attr, value in list(vars(cls).items()):
                        if value is raw:
                            replacement = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                            self._patches.append((cls, attr, value))
                            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span_id, parent, name, start, end, op_id in self.spans:
                out.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name,
                                "start": start, "end": end, "op": op_id})
                    + "\n"
                )

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s, _) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        out["bench"] = self.root_self
        return out


def gjb_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "gjb" or name.startswith("gjb.")) and m is not None]


def leftover_wrappers() -> list[str]:
    """Names of gjb module or class attributes still bound to a wrapper."""
    found = []
    for module in gjb_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("gjb"):
                for cattr, cvalue in vars(value).items():
                    inner = cvalue.__func__ if isinstance(cvalue, classmethod) else cvalue
                    if hasattr(inner, MARK):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found


# -- hooks: counts measured at the layer boundary where the work happens ----


def _matrix_hook(position):
    def hook(tracer, args, result, outer):
        if not outer:
            return
        rows = args[position]
        cols = len(rows[0]) if rows else 0
        tracer.count("linalg.cells", len(rows) * cols)
        tracer.maximum("linalg.max_cols", cols)

    return hook


_rows_hook = _matrix_hook(0)


def _rref_hook(tracer, args, result, outer):
    _rows_hook(tracer, args, result, outer)
    if result.generic_only:
        tracer.count("linalg.generic_only")


def _solve_hook(tracer, args, result, outer):
    _rows_hook(tracer, args, result, outer)
    tracer.count("linalg.homogeneous_vectors", len(result.homogeneous))
    if result.generic_only:
        tracer.count("linalg.generic_only")


def _terms_hook(tracer, args, result, outer):
    tracer.maximum("coeffring.terms_max", len(args[0].terms))


def _make_data_hook(tracer, args, result, outer):
    if tracer.group_open("session.load"):
        tracer.count("session.revalidated")


def _session_file_hook(tracer, args, result, outer):
    tracer.count("session.bytes", os.path.getsize(args[1]))


def _cli_hook(tracer, args, result, outer):
    if result != 0:
        tracer.count("cli.exit_nonzero")


def _refined_reeb_hook(tracer, args, result, outer):
    tracer.count(f"refined_reeb@{tracer.op_kind}")


HOOKS = {
    "coeffring.Coefficient.__init__": _terms_hook,
    "linalg.rref": _rref_hook,
    "linalg.nullspace": _rows_hook,
    "linalg.solve_affine": _solve_hook,
    "linalg.reduce_mod_span": _matrix_hook(1),
    "linalg.is_in_span": _matrix_hook(1),
    "structures.make_conformal_data": _make_data_hook,
    "session.Session.load": _session_file_hook,
    "session.Session.save": _session_file_hook,
    "cli.main": _cli_hook,
    "fieldtheory.refined_reeb": _refined_reeb_hook,
}


def is_time(metric: str) -> bool:
    return metric.endswith((".self_s", ".s", ".op_s"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, normalised per traced op where they are sums."""
    ops = max(tracer.ops, 1)
    stats, counters = tracer.stats, tracer.counters

    def calls(*names):
        return sum(stats.get(n, (0,))[0] for n in names) / ops

    def outer(*names):
        return sum(stats.get(n, (0, 0, 0, 0))[3] for n in names) / ops

    def seconds(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names) / ops

    def per_op(key):
        return counters.get(key, 0) / ops

    selfs = tracer.layer_self_times()
    hdw_ops = sum(v for k, v in tracer.ops_by_kind.items() if k.startswith("hdw"))
    hdw_reeb = sum(v for k, v in counters.items() if k.startswith("refined_reeb@hdw"))
    out = {f"{layer}.self_s": selfs[layer] / ops for layer in LAYERS}
    out.update({
        "bench.self_s": selfs["bench"] / ops,
        "trace.op_s": tracer.op_time / ops,
        "coeffring.mul.calls": calls("coeffring.Coefficient.__mul__"),
        "coeffring.add.calls": outer("coeffring.Coefficient.__add__", "coeffring.Coefficient.__sub__"),
        "coeffring.new.calls": calls("coeffring.Coefficient.__init__"),
        "coeffring.terms_max": counters.get("coeffring.terms_max", 0),
        "exterior.sn.calls": calls("exterior.schouten_nijenhuis"),
        "exterior.sn.s": seconds("exterior.schouten_nijenhuis"),
        "exterior.wedge.calls": calls("exterior.wedge"),
        "exterior.wedge.s": seconds("exterior.wedge"),
        "exterior.contract.calls": calls("exterior.interior_product", "exterior.form_contraction"),
        "exterior.d.calls": calls("exterior.exterior_derivative"),
        "linalg.solve_affine.calls": calls("linalg.solve_affine"),
        "linalg.solve_affine.s": seconds("linalg.solve_affine"),
        "linalg.nullspace.calls": calls("linalg.nullspace"),
        "linalg.nullspace.s": seconds("linalg.nullspace"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.s": seconds("linalg.rref"),
        "linalg.reduce_mod_span.calls": calls("linalg.reduce_mod_span"),
        "linalg.cells": per_op("linalg.cells"),
        "linalg.max_cols": counters.get("linalg.max_cols", 0),
        "linalg.homogeneous_vectors": per_op("linalg.homogeneous_vectors"),
        "linalg.generic_only": per_op("linalg.generic_only"),
        "structures.validate.calls": calls("structures.ConformalData.validate"),
        "structures.validate.s": seconds("structures.ConformalData.validate"),
        "structures.validate.share": stats.get("structures.ConformalData.validate", (0, 0.0))[1]
        / max(tracer.op_time, 1e-12),
        "structures.kernel.calls": calls("structures.NFormStructure.kernel"),
        "structures.kernel.s": seconds("structures.NFormStructure.kernel"),
        "structures.bracket.calls": calls("structures.jacobi_bracket"),
        "structures.cup.calls": calls("structures.cup_product"),
        "structures.verify_conformal.calls": calls("structures.verify_conformal"),
        "sharp.sharp_and_reeb.calls": calls("sharp.sharp_and_reeb"),
        "sharp.z_membership.calls": calls("sharp.z_membership"),
        "symplectization.correspondence.calls": calls("symplectization.check_correspondence"),
        "fieldtheory.build_canonical.calls": calls("fieldtheory.build_canonical"),
        "fieldtheory.build_canonical.s": seconds("fieldtheory.build_canonical"),
        "fieldtheory.refined_reeb.calls": calls("fieldtheory.refined_reeb"),
        "fieldtheory.refined_reeb.s": seconds("fieldtheory.refined_reeb"),
        "fieldtheory.refined_reeb.per_command": hdw_reeb / hdw_ops if hdw_ops else 0.0,
        "dsl.evaluate.calls": outer("dsl.evaluate", "dsl.elaborate"),
        "dsl.from_json.calls": calls("dsl.object_from_json"),
        "session.load.calls": calls("session.Session.load"),
        "session.load.s": seconds("session.Session.load"),
        "session.save.s": seconds("session.Session.save"),
        "session.bytes": per_op("session.bytes"),
        "session.revalidated": per_op("session.revalidated"),
        "cli.commands": calls("cli.main"),
        "cli.exit_nonzero": per_op("cli.exit_nonzero"),
    })
    return out
