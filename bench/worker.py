"""One benchmark process: set up one workload, run it, print one JSON line.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS OUTDIR

MODE is ``setup`` (set up and stop), ``run`` (the untraced timed loop that
gives the end-to-end metrics) or ``trace`` (a traced loop, then an
untraced replay of exactly the same ops).  ``bench/run.py`` starts one
fresh interpreter per call: ``ru_maxrss`` is a high-water mark over the
whole process life, and structure kernel caches must not leak from one
workload into the next.

Times are normalised to a reference machine speed.  The shared machine
this benchmark was built on changes speed by up to 1.7x every few
seconds, and time measured inside the process (``thread_time``) moves
with it.  So a fixed pure-Python kernel is timed before and after every
op, and every ``PROBE_INTERVAL_S`` during it (``SpeedProbe``), and the
op's wall time, less the probes' own time, is scaled by ``KERNEL_REF_S``
over the mean of those kernel times.  An op time therefore reads as the
wall time on a machine where the kernel takes exactly ``KERNEL_REF_S``.
"""

import time
from fractions import Fraction


def calibrate() -> float:
    """Best of two timings of a fixed kernel of dict, tuple and Fraction
    work, the operations that dominate gjb's ring arithmetic."""
    best = float("inf")
    for _ in range(2):
        began = time.perf_counter()
        acc: dict = {}
        for i in range(400):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
        best = min(best, time.perf_counter() - began)
    return best


KERNEL_REF_S = 1e-3
C0 = calibrate()
T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

# a workload needs enough ops for ten samples beyond its tail percentile
MIN_BEYOND = 10
PROBE_INTERVAL_S = 0.2


class SpeedProbe:
    """Times the calibration kernel every ``PROBE_INTERVAL_S`` while an op
    runs, from a SIGALRM handler on the op's own thread.  Use it as a
    context manager: the previous handler is restored on exit."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        began = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - began

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Loop:
    """Results of running whole blocks of a workload's ops."""

    def __init__(self):
        self.latencies: list[float] = []  # normalised
        self.raw: list[float] = []  # wall clock
        self.failed = 0
        self.blocks = 0
        self.digest = hashlib.sha256()
        self.failures: list[str] = []

    def summary(self, percentile: int) -> dict:
        lat = sorted(self.latencies)
        rank = max(math.ceil(percentile / 100 * len(lat)) - 1, 0)
        return {
            "ops": len(lat),
            "failed": self.failed,
            "blocks": self.blocks,
            "ops_per_s": len(lat) / sum(lat),
            "raw_ops_per_s": len(lat) / sum(self.raw),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": lat[rank] * 1e3,
            "tail_percentile": percentile,
            "beyond_tail": len(lat) - rank - 1,
            "failures": self.failures[:5],
        }


def run_blocks(workload, seconds: float, min_ops: int = 0, blocks: int | None = None, tracer=None) -> Loop:
    """Run whole blocks until ``seconds`` have passed and ``min_ops`` ops
    are done, or exactly ``blocks`` blocks when that is given."""
    loop = Loop()
    start = time.perf_counter()

    def more():
        if blocks is not None:
            return loop.blocks < blocks
        if loop.blocks == 0 or len(loop.latencies) < min_ops:
            return True
        # stop where the measured time comes closest to ``seconds``
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / loop.blocks / 2 < seconds

    with SpeedProbe() as probe:
        kernel = calibrate()
        while more():
            for op in workload.block(loop.blocks):
                kernel = _run_op(op, loop, probe, kernel, tracer)
            loop.blocks += 1
    return loop


def _run_op(op, loop: Loop, probe: SpeedProbe, kernel: float, tracer) -> float:
    """Time, normalise and check one op; returns the last kernel time."""
    result, error = None, None
    if tracer is not None:
        tracer.begin_op(len(loop.latencies), op.kind)
    probe.start()
    began = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises is a failed op, not a dead run
        error = traceback.format_exc()
    finally:
        probe.stop()
    latency = time.perf_counter() - began
    if tracer is not None:
        latency = tracer.end_op()
    latency -= probe.spent
    kernels = [kernel, *probe.samples, calibrate()]
    loop.raw.append(latency)
    loop.latencies.append(latency * KERNEL_REF_S * len(kernels) / sum(kernels))
    if error is None:
        try:
            ok, text = op.check(result)
        except Exception:
            ok, text, error = False, "check raised", traceback.format_exc()
    else:
        ok, text = False, error.strip().splitlines()[-1]
    if not ok:
        loop.failed += 1
        loop.failures.append(f"{op.label}: {error or text}"[:2000])
    loop.digest.update(f"{op.label}\n{text}\n".encode())
    return kernels[-1]


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, outdir = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    import gjb.cli  # noqa: F401  (imports every gjb module the workloads use)
    import workloads

    workload = workloads.WORKLOADS[name](seed, outdir)
    try:
        setup_s = (time.perf_counter() - T0) * 2 * KERNEL_REF_S / (C0 + calibrate())
        out = {"mode": mode, "workload": name, "seed": seed, "setup_s": setup_s}
        percentile = workloads.TAIL_PERCENTILE[name]
        if mode == "run":
            min_ops = math.ceil(MIN_BEYOND * 100 / (100 - percentile)) + 1
            loop = run_blocks(workload, seconds, min_ops=min_ops)
            out.update(loop.summary(percentile))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif mode == "trace":
            out.update(trace(workload, name, seed, seconds, outdir))
        elif mode != "setup":
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def trace(workload, name: str, seed: int, seconds: float, outdir: str) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the traced loop and its untraced replay share the run's seconds
        traced = run_blocks(workload, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    leftover = tracing.leftover_wrappers()
    replay = run_blocks(workload, 0, blocks=traced.blocks)
    # layer times are per op; scale them like the op times they split
    scale = sum(traced.latencies) / sum(traced.raw)
    metrics = {
        name: value * scale if tracing.is_time(name) else value
        for name, value in tracing.layer_metrics(tracer).items()
    }
    metrics["trace.overhead"] = sum(traced.latencies) / sum(replay.latencies)
    spans = Path(outdir) / f"spans-{name}-{seed}.jsonl.gz"
    tracer.dump(str(spans))
    return {
        "ops": len(traced.latencies) + len(replay.latencies),
        "failed": traced.failed + replay.failed,
        "failures": traced.failures[:3] + replay.failures[:3],
        "traced_ops": tracer.ops,
        "blocks": traced.blocks,
        "digest_equal": traced.digest.hexdigest() == replay.digest.hexdigest(),
        "leftover_wrappers": leftover,
        "op_time_s": tracer.op_time,
        "self_sum_s": sum(tracer.layer_self_times().values()),
        "spans_file": str(spans),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
