"""The demo tours print exactly their golden output.

Each file under ``golden/`` holds one demo's stdout, stderr or exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("demo", ["bracket_tour", "field_equations_tour", "symplectization_tour"])
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert run.stdout == (GOLDEN / f"{demo}.stdout").read_bytes()
    assert run.stderr == (GOLDEN / f"{demo}.stderr").read_bytes()
    assert run.returncode == int((GOLDEN / f"{demo}.exit").read_text())
