"""A seeded boundary harness for the command line.

Random texts are built from the expression language's names, numbers,
operators and functions, either along its grammar or as free token
runs, both with a length bound.  Each one goes through a session command
(``render``, ``let``, ``sharp``, ``conformal make``, ``bracket``,
``cup``, ``lift``; ``kernel --degree`` draws a degree) on a contact and
on a Laurent session, in-process through ``gjb.cli.main``.  Whatever
the text, the command keeps the exit-code contract of the ``cli``
docstring:

* ``main`` returns 0, 1 or 2 and raises nothing;
* an exit 2 prints exactly one ``error:`` line, and it is the last line
  of stderr;
* any nonzero exit leaves the session file byte-identical;
* an exit 1 comes only from a ``ValidationError``, from a verdict (a
  command that returns 1 itself), or from the text writer's refusal of a
  rational with more digits than the interpreter converts to text.

Each command is wrapped to record what it raises before ``main`` maps it
to an exit code, so the last property reads the exception, not its
message.
"""

import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, RecordingParser
from gjb import cli
from gjb.dsl import FUNCTIONS
from gjb.errors import DomainError, ValidationError

# session name -> the commands that create it; each stores conformal data
# as ``a``, so bracket, cup, lift and jb have an operand to read
SESSIONS = {
    "contact": [
        ["chart", "new", "--coordinates", "q,p,z"],
        ["theta", "set", "d(z) - p*d(q)"],
        ["conformal", "make", "--x", "e_z", "--store", "a"],
    ],
    "laurent": [
        ["chart", "new", "--coordinates", "q,p,z", "--nonvanishing", "z"],
        ["theta", "set", "z*d(z) - p*z^-1*d(q)"],
        ["conformal", "make", "--x", "e_q", "--store", "a"],
    ],
}

# ``x`` is bound nowhere; numbers stay small, so no power outgrows a test
NAMES = ["q", "p", "z", "dq", "dz", "e_q", "e_z", "a", "x"]
NUMBERS = ["0", "1", "2", "1/2"]
OPERATORS = ["+", "-", "*", "^"]
MAX_LENGTH = 48


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(OPERATORS), inner).map("".join),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"-{text}"),
        st.sampled_from(sorted(FUNCTIONS)).flatmap(
            lambda name: st.lists(inner, min_size=FUNCTIONS[name], max_size=FUNCTIONS[name]).map(
                lambda arguments: f"{name}({', '.join(arguments)})"
            )
        ),
    )


_grammar = st.recursive(st.sampled_from(NAMES + NUMBERS), _extend, max_leaves=5)
_tokens = st.lists(
    st.sampled_from(NAMES + NUMBERS + OPERATORS + ["(", ")", ", "] + [f"{name}(" for name in FUNCTIONS]),
    max_size=10,
).map("".join)
texts = st.one_of(_grammar, _tokens).filter(lambda text: len(text) <= MAX_LENGTH)
# operands of bracket, cup and lift: conformal data often enough to compute
data = st.one_of(st.sampled_from(["a", "-a", "a + a", "1/2*a", "jb(a, a)", "cup(a, a)"]), texts)

# a positional text is led by a space, so argparse never reads it as a flag
commands = st.one_of(
    st.tuples(st.sampled_from(["render", "sharp"]), texts).map(lambda t: [t[0], f" {t[1]}"]),
    data.map(lambda text: ["lift", f" {text}"]),
    texts.map(lambda text: ["conformal", "make", f"--x= {text}"]),
    st.tuples(st.sampled_from(["bracket", "cup"]), data, data).map(lambda t: [t[0], f" {t[1]}", f" {t[2]}"]),
    st.tuples(st.sampled_from(["b", "a", "q"]), texts).map(lambda t: ["let", f"{t[0]} = {t[1]}"]),
    st.tuples(st.integers(-2, 5), st.sampled_from(["theta", "dtheta", "both"])).map(
        lambda t: ["kernel", "--degree", str(t[0]), "--which", t[1]]
    ),
)

TOO_LONG = re.compile(r"a rational with more than \d+ digits has no text")


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """Each session's path and the bytes of its file."""
    out = {}
    for name, steps in SESSIONS.items():
        path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "-s", str(path)]) == 0, argv
        out[name] = (path, path.read_bytes())
    return out


@seed(SEED)
@given(st.sampled_from(sorted(SESSIONS)), commands)
@settings(max_examples=400, deadline=None)
# a refused degree is a usage error
@example("contact", ["kernel", "--degree", "0"])
@example("contact", ["kernel", "--degree", "4"])
@example("contact", ["sharp", "d(q)^d(p)"])
@example("contact", ["conformal", "make", "--x", "1"])
def test_every_command_keeps_the_exit_code_contract(sessions, session, argv):
    path, original = sessions[session]
    path.write_bytes(original)
    recording = RecordingParser()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_build_parser", lambda: recording):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "-s", str(path)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code:
        assert path.read_bytes() == original
    if code == 2:
        assert lines and [line for line in lines if line.startswith("error:")] == [lines[-1]]
    if code == 1:
        assert all(
            isinstance(raised, ValidationError) or (isinstance(raised, DomainError) and TOO_LONG.fullmatch(str(raised)))
            for raised in recording.raised
        ), recording.raised
