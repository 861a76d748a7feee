"""Tests of the benchmark itself: seeds, tracing and the output contract.

    python3 -m pytest -q bench/test_bench.py

Each test runs a short prefix of a workload's first block in-process.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_blocks  # noqa: E402

import gjb  # noqa: E402
import gjb.dsl  # noqa: E402
import gjb.structures  # noqa: E402
from gjb.coeffring import Coefficient  # noqa: E402
from gjb.session import Session  # noqa: E402

# cheap leading ops of block 0 (phase_space_cli starts with its (2,1) commands)
PREFIX = {"bracket_identities": 6, "phase_space_cli": 6, "session_script": 14}


class Prefix:
    """The first ``count`` ops of each block of a workload."""

    def __init__(self, workload, count):
        self.workload, self.count = workload, count

    def block(self, index):
        return self.workload.block(index)[: self.count]


@pytest.fixture
def make(tmp_path):
    made = []

    def build(name, seed):
        workload = workloads.WORKLOADS[name](seed, str(tmp_path))
        made.append(workload)
        return workload

    yield build
    for workload in made:
        workload.close()


def _labels(workload, name):
    return [op.label for op in workload.block(0)[: PREFIX[name]]]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_gives_one_op_list_and_digest(name, make, monkeypatch):
    monkeypatch.setenv("GJ_SEED", "1")
    first = make(name, 7)
    first_loop = run_blocks(Prefix(first, PREFIX[name]), 0, blocks=1)
    monkeypatch.setenv("GJ_SEED", "2")  # the benchmark takes its seed only as an argument
    second = make(name, 7)
    second_loop = run_blocks(Prefix(second, PREFIX[name]), 0, blocks=1)
    assert _labels(first, name) == _labels(second, name)
    assert first_loop.failed == second_loop.failed == 0
    assert first_loop.digest.hexdigest() == second_loop.digest.hexdigest()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_another_seed_gives_another_op_list(name, make):
    assert _labels(make(name, 7), name) != _labels(make(name, 8), name)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_matches_untraced_run(name, make):
    workload = Prefix(make(name, 11), PREFIX[name])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_blocks(workload, 0, blocks=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    untraced = run_blocks(workload, 0, blocks=1)
    assert traced.failed == untraced.failed == 0
    assert traced.digest.hexdigest() == untraced.digest.hexdigest()
    # every span's time is counted exactly once, in its own layer or the op's
    selfs = tracer.layer_self_times()
    assert sum(selfs.values()) == pytest.approx(tracer.op_time, rel=1e-9)
    assert tracer.ops == PREFIX[name]
    assert selfs["coeffring"] > 0
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead"} == set(run.PER_LAYER)
    if name == "bracket_identities":
        assert metrics["structures.bracket.calls"] > 0 and metrics["cli.commands"] == 0
    else:
        assert metrics["cli.commands"] == 1


def test_tracer_wraps_every_alias_and_restores_it():
    originals = (gjb.structures.jacobi_bracket, Coefficient.__add__, Session.__dict__["load"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = gjb.structures.jacobi_bracket
        assert hasattr(wrapped, tracing.MARK)
        assert gjb.jacobi_bracket is wrapped and gjb.dsl.jacobi_bracket is wrapped
        assert hasattr(Coefficient.__add__, tracing.MARK)
        assert Coefficient.__radd__ is Coefficient.__add__
        assert hasattr(Session.__dict__["load"].__func__, tracing.MARK)
        assert tracing.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert (gjb.structures.jacobi_bracket, Coefficient.__add__, Session.__dict__["load"]) == originals
    assert Coefficient.__radd__ is Coefficient.__add__


def test_session_files_stay_in_a_temporary_directory(make, tmp_path):
    workload = make("session_script", 3)
    assert Path(workload.dir).parent == tmp_path
    run_blocks(Prefix(workload, 4), 0, blocks=1)
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == {"canonical.json", "contact.json"}
    workload.close()
    assert list(tmp_path.iterdir()) == []


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_runner_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session_script", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
