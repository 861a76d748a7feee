"""Benchmark runner for gjb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of one workload, ``--trace 1`` the per-layer metrics of a traced
run of it; see ``bench/README.md``.  Each workload runs in fresh
interpreters started by this script: setup twice on its own, then the
timed run (or the traced run).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUTDIR = ".bench_out"
WORKLOADS = ("bracket_identities", "phase_space_cli", "session_script")
# a run must end within 180 s; keep a margin for interpreter start-up
BUDGET_S = 170.0
SETUP_SAMPLES = 3

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "coeffring.self_s": "s/op",
    "coeffring.mul.calls": "calls/op",
    "coeffring.add.calls": "calls/op",
    "coeffring.new.calls": "calls/op",
    "coeffring.terms_max": "terms",
    "exterior.self_s": "s/op",
    "exterior.sn.calls": "calls/op",
    "exterior.sn.s": "s/op",
    "exterior.wedge.calls": "calls/op",
    "exterior.wedge.s": "s/op",
    "exterior.contract.calls": "calls/op",
    "exterior.d.calls": "calls/op",
    "linalg.self_s": "s/op",
    "linalg.solve_affine.calls": "calls/op",
    "linalg.solve_affine.s": "s/op",
    "linalg.nullspace.calls": "calls/op",
    "linalg.nullspace.s": "s/op",
    "linalg.rref.calls": "calls/op",
    "linalg.rref.s": "s/op",
    "linalg.reduce_mod_span.calls": "calls/op",
    "linalg.cells": "cells/op",
    "linalg.max_cols": "columns",
    "linalg.homogeneous_vectors": "vectors/op",
    "linalg.generic_only": "results/op",
    "structures.self_s": "s/op",
    "structures.validate.calls": "calls/op",
    "structures.validate.s": "s/op",
    "structures.validate.share": "ratio",
    "structures.kernel.calls": "calls/op",
    "structures.kernel.s": "s/op",
    "structures.bracket.calls": "calls/op",
    "structures.cup.calls": "calls/op",
    "structures.verify_conformal.calls": "calls/op",
    "sharp.self_s": "s/op",
    "sharp.sharp_and_reeb.calls": "calls/op",
    "sharp.z_membership.calls": "calls/op",
    "symplectization.self_s": "s/op",
    "symplectization.correspondence.calls": "calls/op",
    "fieldtheory.self_s": "s/op",
    "fieldtheory.build_canonical.calls": "calls/op",
    "fieldtheory.build_canonical.s": "s/op",
    "fieldtheory.refined_reeb.calls": "calls/op",
    "fieldtheory.refined_reeb.s": "s/op",
    "fieldtheory.refined_reeb.per_command": "calls/hdw",
    "dsl.self_s": "s/op",
    "dsl.evaluate.calls": "calls/op",
    "dsl.from_json.calls": "calls/op",
    "session.self_s": "s/op",
    "session.load.calls": "calls/op",
    "session.load.s": "s/op",
    "session.save.s": "s/op",
    "session.bytes": "B/op",
    "session.revalidated": "calls/op",
    "cli.self_s": "s/op",
    "cli.commands": "calls/op",
    "cli.exit_nonzero": "calls/op",
    "bench.self_s": "s/op",
    "trace.op_s": "s/op",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker in a fresh interpreter and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GJ_SEED")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(WORKER), mode, args.workload, str(args.seed), str(args.seconds), OUTDIR]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float) -> dict:
    setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = spawn("run", args, deadline)
    setups.append(run["setup_s"])
    run["setup_s"] = statistics.median(setups)
    failed_ratio = run["failed"] / run["ops"]
    print(
        f"{args.workload} seed {args.seed}: {run['ops']} ops in {run['blocks']} blocks, "
        f"tail = p{run['tail_percentile']} ({run['beyond_tail']} samples beyond), "
        f"setup median of {SETUP_SAMPLES}, {run['raw_ops_per_s']:.6g} ops/s before normalisation"
    )
    rows = [(name, run[name], unit) for name, unit in END_TO_END.items()]
    rows.insert(3, ("failed_ratio", failed_ratio, "1"))
    for name, value, unit in rows:
        print(f"  {name:<14} {value:>14.6g} {unit}")
    for failure in run["failures"]:
        print(f"  failed: {failure}", file=sys.stderr)
    return {
        "correct": run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def per_layer(args, deadline: float) -> dict:
    out = spawn("trace", args, deadline)
    metrics = out["metrics"]
    self_gap = abs(out["self_sum_s"] - out["op_time_s"])
    checks = {
        "traced and untraced digests agree": out["digest_equal"],
        "no wrapper left in gjb": not out["leftover_wrappers"],
        "layer self times sum to op time": self_gap <= 1e-6 * out["op_time_s"] + 1e-9,
        "every per-layer metric reported": set(metrics) == set(PER_LAYER),
    }
    print(
        f"{args.workload} seed {args.seed}: traced {out['traced_ops']} ops in {out['blocks']} blocks, "
        f"spans in {out['spans_file']}"
    )
    for label, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<38} {metrics.get(name, float('nan')):>14.6g} {unit}")
    for failure in out["failures"]:
        print(f"  failed: {failure}", file=sys.stderr)
    return {
        "correct": out["failed"] == 0 and all(checks.values()),
        "attempted": out["ops"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gjb" / "__init__.py").is_file():
        print(f"error: no gjb sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    (ROOT / OUTDIR).mkdir(exist_ok=True)
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
