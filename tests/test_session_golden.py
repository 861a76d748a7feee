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

``golden/session/v1/<session>.json`` hold the same two sessions as the
last ``gjb-session/1`` build wrote them.  They are fixtures, not goldens:
nothing rewrites them, and their SHA-256 is pinned.  Each loads as its
version-2 golden, and one save turns it into the golden's bytes.
"""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from gjb.cli import main
from gjb.session import Session
from gjb.structures import ConformalData

GOLDEN = Path(__file__).resolve().parent / "golden" / "session"
SESSIONS = ("canonical", "contact")
V1 = GOLDEN / "v1"
V1_SHA256 = {
    "canonical": "5ec1675a97d575719864194bd3bb6cddcd52d743a18f6ba0717b3cad03201a1c",
    "contact": "3f503fa71de2468c60560e552b07ad3127cacc5784425dcedf3401a3604d88f6",
}


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


def test_a_version_2_file_names_its_chart_once():
    for name in SESSIONS:
        text = (GOLDEN / f"{name}.json").read_text()
        assert json.loads(text)["schema"] == "gjb-session/2"
        assert text.count('"chart"') == 1, name


def test_the_version_1_fixtures_are_unchanged():
    for name, digest in V1_SHA256.items():
        assert hashlib.sha256((V1 / f"{name}.json").read_bytes()).hexdigest() == digest, name


def _coefficient_texts(value) -> list[str]:
    """Every ``coeff`` string of a JSON value, in document order."""
    if isinstance(value, dict):
        return [text for key, item in value.items() for text in ([item] if key == "coeff" else _coefficient_texts(item))]
    if isinstance(value, list):
        return [text for item in value for text in _coefficient_texts(item)]
    return []


@pytest.mark.parametrize("name", SESSIONS)
def test_a_version_1_fixture_loads_as_its_version_2_golden(name):
    old, new = Session.load(V1 / f"{name}.json"), Session.load(GOLDEN / f"{name}.json")
    assert json.loads((V1 / f"{name}.json").read_text())["schema"] == "gjb-session/1"
    assert (old.chart, old.theta) == (new.chart, new.theta)
    assert list(old.bindings) == list(new.bindings) != []
    for binding in new.bindings:
        value, expected = old.bindings[binding], new.bindings[binding]
        if isinstance(expected, ConformalData):
            assert value.structure is old.structure()
            value, expected = (value.alpha, value.x_field, value.v_field), (expected.alpha, expected.x_field, expected.v_field)
        assert value == expected, binding


@pytest.mark.parametrize("name", SESSIONS)
def test_one_save_writes_a_version_1_fixture_as_version_2(tmp_path, name):
    path = Path(shutil.copy(V1 / f"{name}.json", tmp_path / f"{name}.json"))
    Session.load(path).save(path)
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    old = json.loads((V1 / f"{name}.json").read_text())
    assert _coefficient_texts(json.loads(path.read_text())) == _coefficient_texts(old) != []


def _write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in _run_script(Path(tmp)).items():
            (GOLDEN / f"{name}.json").write_bytes(path.read_bytes())


if __name__ == "__main__":
    _write_golden()
