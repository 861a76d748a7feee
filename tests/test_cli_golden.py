"""The command-line interface prints exactly its golden output.

Every command of ``COMMANDS`` runs in-process through ``gjb.cli.main``.
Its exit code, stdout and stderr are compared byte for byte with
``golden/cli/<name>.exit``, ``.stdout`` and ``.stderr``.  Session
commands read fresh session files that ``chart new`` and ``theta set``
build in a temporary directory; the session path is replaced by
``<session>`` before comparing.

After an intended output change, rewrite the golden files of the named
commands with

    PYTHONPATH=src python tests/test_cli_golden.py NAME [NAME ...]

or of every command when no name is given.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gjb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# session name -> the commands that create it (each gets ``-s <path>``)
SESSIONS = {
    "contact": [["chart", "new", "--coordinates", "q,p,z"], ["theta", "set", "d(z) - p*d(q)"]],
    "canonical": [["chart", "new", "--canonical", "2,1"]],
    "laurent": [
        ["chart", "new", "--coordinates", "q,p,z", "--nonvanishing", "z"],
        ["theta", "set", "z*d(z) - p*z^-1*d(q)"],
    ],
    "degenerate": [["chart", "new", "--coordinates", "q,p,z"], ["theta", "set", "d(q)"]],
    "contact_data": [
        ["chart", "new", "--coordinates", "q,p,z"],
        ["theta", "set", "d(z) - p*d(q)"],
        ["conformal", "make", "--x", "e_z", "--store", "a"],
        ["conformal", "make", "--x", "q*e_q + z*e_z", "--store", "b"],
    ],
}

H21 = "1/2*p0^2 + 1/2*p1^2 + 3*s0"
H31 = "1/2*p0^2 + 1/2*p1^2 + 1/2*p2^2 + 3*s0 + y*s1"
H42 = "1/2*p0_0^2 + 1/2*p1_1^2 + 3*s0 + y0*s1"
H62 = "1/2*p0_0^2 + 1/2*p5_1^2 + 3*s0 + y1*s5"
H122 = "1/2*p0_0^2 + 1/2*p1_1^2 + 3*s0 + y0*s1"


def _commands():
    out = []
    for session in ("contact", "canonical", "laurent"):
        for degree in ("1", "2"):
            for which in ("theta", "dtheta", "both"):
                argv = ["kernel", "--degree", degree, "--which", which]
                out.append((f"kernel_{session}_{degree}_{which}", session, argv))
    out += [
        ("kernel_contact_3_both", "contact", ["kernel", "--degree", "3", "--which", "both"]),
        ("kernel_contact_4_theta", "contact", ["kernel", "--degree", "4"]),
        ("check_contact", "contact", ["check", "multicontact"]),
        ("check_canonical", "canonical", ["check", "multicontact"]),
        ("check_laurent", "laurent", ["check", "multicontact"]),
        ("check_degenerate", "degenerate", ["check", "multicontact"]),
        ("symplectize_contact", "contact", ["symplectize"]),
        ("symplectize_degenerate", "degenerate", ["symplectize"]),
        ("psi_check_contact", "contact_data", ["psi-check", "a", "b"]),
        ("distortion_degenerate", "degenerate", ["distortion"]),
        ("sharp_contact", "contact", ["sharp", "d(z)"]),
        ("sharp_canonical", "canonical", ["sharp", "d(y)^d(x1)"]),
        ("sharp_canonical_volume", "canonical", ["sharp", "p*d(x0)^d(x1)"]),
        ("sharp_wrong_degree", "contact", ["sharp", "d(q)^d(p)"]),
        ("conformal_make_contact_reeb", "contact", ["conformal", "make", "--x", "e_z"]),
        ("conformal_make_contact_scaling", "contact", ["conformal", "make", "--x", "q*e_q + z*e_z"]),
        ("conformal_make_canonical", "canonical", ["conformal", "make", "--x", "e_s0", "--format", "json"]),
        ("conformal_make_canonical_no", "canonical", ["conformal", "make", "--x", "e_y + p0*e_s0 + p1*e_s1"]),
        ("conformal_make_laurent", "laurent", ["conformal", "make", "--x", "z*e_z"]),
        ("render_contact_json", "contact", ["render", "d(z) - p*d(q)", "--format", "json"]),
        ("render_canonical_json", "canonical", ["render", "y*e_y + s0*e_p0", "--format", "json"]),
        ("render_laurent_json", "laurent", ["render", "z^-2*q*d(p)", "--format", "json"]),
        ("render_contact_degree0_form", "contact", ["render", "i_(e_q, q*d(q))"]),
        ("render_contact_degree0_form_latex", "contact", ["render", "i_(e_q, q*d(q))", "--format", "latex"]),
    ]
    # LaTeX output of every command that takes --format latex, and plain
    # output of the same renders
    laurent_form = "-3/2*z^-2*q*d(p) + 2/3*p*z*d(q) - d(z) + 5*z^3*d(p)"
    grouped_form = "(p0^2 - 1/2*s0*y - 1)*d(x0)^d(x1) - 3*y*d(y)^d(p0) + (p1 - p)*d(s1)^d(y)"
    scalar = "-p0^2 + 1/2*s0*y - 3 + 7/4*x0^3*s1"
    multivector = "(1 - y^2)*e_y^e_p0 + 1/2*s0*e_s0^e_x1 - p1*e_x0^e_p + e_p1^e_s1"
    for fmt in ("plain", "latex"):
        out += [
            (f"render_laurent_form_{fmt}", "laurent", ["render", laurent_form, "--format", fmt]),
            (f"render_grouped_form_{fmt}", "canonical", ["render", grouped_form, "--format", fmt]),
            (f"render_scalar_{fmt}", "canonical", ["render", scalar, "--format", fmt]),
            (f"render_multivector_{fmt}", "canonical", ["render", multivector, "--format", fmt]),
        ]
    H = "1/2*p0^2 + 1/2*p1^2 + g*s0*y"
    H22 = "1/2*p0_0^2 + 1/2*p1_1^2 + g*y0*s0 - y1^2"
    out += [
        ("tables_21_latex", None, ["tables", "--n", "2", "--m", "1", "--format", "latex"]),
        ("tables_22", None, ["tables", "--n", "2", "--m", "2"]),
        ("tables_32_json", None, ["tables", "--n", "3", "--m", "2", "--format", "json"]),
        ("tables_32_latex", None, ["tables", "--n", "3", "--m", "2", "--format", "latex"]),
        ("hdw_21_parameter", None, ["hdw", "--n", "2", "--m", "1", "--H", H]),
        ("hdw_21_parameter_latex", None, ["hdw", "--n", "2", "--m", "1", "--H", H, "--format", "latex"]),
        ("hdw_22_parameter_latex", None, ["hdw", "--n", "2", "--m", "2", "--H", H22, "--format", "latex"]),
        ("sigma_21", None, ["sigma", "--n", "2", "--m", "1", "--H", H21]),
        ("sigma_21_latex", None, ["sigma", "--n", "2", "--m", "1", "--H", H21, "--format", "latex"]),
        ("sigma_22_latex", None, ["sigma", "--n", "2", "--m", "2", "--H", H22, "--format", "latex"]),
        ("dissipated_21_no", None, ["dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2", "--row", "1"]),
        ("dissipated_21_yes", None, ["dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2", "--row", "2:0,1"]),
        ("dissipated_21_fg", None, ["dissipated", "--n", "2", "--m", "1", "--H", "1/2*p0^2", "--F", "0", "--G=-1", "--G", "0"]),
        ("conformal_make_contact_latex", "contact", ["conformal", "make", "--x", "q*e_q + z*e_z", "--format", "latex"]),
        ("conformal_make_canonical_latex", "canonical", ["conformal", "make", "--x", "e_s0", "--format", "latex"]),
        ("conformal_make_laurent_latex", "laurent", ["conformal", "make", "--x", "e_q", "--format", "latex"]),
    ]
    for n, m, H in (("2", "1", H21), ("3", "1", H31), ("4", "2", H42)):
        size = ["--n", n, "--m", m]
        out += [
            (f"tables_{n}{m}", None, ["tables", *size]),
            (f"hdw_{n}{m}_json", None, ["hdw", *size, "--H", H, "--format", "json"]),
            (f"distortion_{n}{m}", None, ["distortion", *size]),
        ]
    # (6, 2): contraction systems of C(27, 5) = 80 730 index tuples, of
    # which the forms touch a few dozen
    size = ["--n", "6", "--m", "2"]
    out += [
        ("hdw_62_json", None, ["hdw", *size, "--H", H62, "--format", "json"]),
        ("distortion_62", None, ["distortion", *size]),
        ("hdw_122_json", None, ["hdw", "--n", "12", "--m", "2", "--H", H122, "--format", "json"]),
    ]
    return out


COMMANDS = _commands()


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def _make_sessions(directory: Path) -> dict:
    paths = {}
    for name, setup in SESSIONS.items():
        path = str(directory / f"{name}.json")
        for argv in setup:
            code, _, err = _run(argv + ["-s", path])
            if code != 0:
                raise RuntimeError(f"session {name!r} setup failed: {err}")
        paths[name] = path
    return paths


def _output(argv, session, paths):
    path = paths.get(session)
    if path is not None:
        argv = argv + ["-s", path]
    code, out, err = _run(argv)
    if path is not None:
        out, err = out.replace(path, "<session>"), err.replace(path, "<session>")
    return code, out, err


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    return _make_sessions(tmp_path_factory.mktemp("cli-golden"))


@pytest.mark.parametrize("name,session,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_is_golden(name, session, argv, sessions):
    code, out, err = _output(argv, session, sessions)
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert err == (GOLDEN / f"{name}.stderr").read_text()
    assert code == int((GOLDEN / f"{name}.exit").read_text())


def _write_golden(names=()) -> None:
    """Write the golden files of the named commands, of every command when
    no name is given."""
    unknown = set(names) - {name for name, _, _ in COMMANDS}
    if unknown:
        raise SystemExit(f"no golden command named {', '.join(sorted(unknown))}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _make_sessions(Path(tmp))
        for name, session, argv in COMMANDS:
            if names and name not in names:
                continue
            code, out, err = _output(argv, session, paths)
            (GOLDEN / f"{name}.stdout").write_text(out)
            (GOLDEN / f"{name}.stderr").write_text(err)
            (GOLDEN / f"{name}.exit").write_text(f"{code}\n")


if __name__ == "__main__":
    _write_golden(sys.argv[1:])
