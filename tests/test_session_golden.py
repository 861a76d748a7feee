"""Session files hold exactly their golden bytes after a scripted run.

``golden/session/script.json`` lists session commands, each with the
session it runs on: eight steps of the benchmark's ``session_script`` op
mix (store, let, sharp, render, bracket, cup, psi-check, poisson, lift,
kernel) on a canonical (2,1) and a contact (q, p, z) session.  Every
command runs in-process through ``gjb.cli.main`` and must exit 0; the
final bytes of both session files are compared with
``golden/session/<session>.json``.

After an intended change of the file format, rewrite the golden files with

    PYTHONPATH=src python tests/test_session_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from gjb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "session"
SESSIONS = ("canonical", "contact")


def _run_script(directory: Path) -> dict:
    paths = {name: directory / f"{name}.json" for name in SESSIONS}
    for session, argv in json.loads((GOLDEN / "script.json").read_text()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["-s", str(paths[session])])
        assert code == 0, (argv, stderr.getvalue())
    return paths


def test_session_files_are_golden(tmp_path):
    paths = _run_script(tmp_path)
    for name, path in paths.items():
        assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name


def _write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in _run_script(Path(tmp)).items():
            (GOLDEN / f"{name}.json").write_bytes(path.read_bytes())


if __name__ == "__main__":
    _write_golden()
