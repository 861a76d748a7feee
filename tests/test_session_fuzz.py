"""A seeded mutation harness for stored session payloads.

A contact and a Laurent session are saved with a scalar, a form, a
multivector and two conformal data bindings, in both file versions
(``gjb-session/2``, and ``gjb-session/1``, whose every value names the
chart).  Each case mutates one stored payload (θ or a binding) in one of
four ways:

* a stored ``coeff`` text becomes a random text built along the grammar
  from the vocabulary of ``test_cli_fuzz`` (its names, numbers, operators
  and functions, under its length bound);
* one character of a stored ``coeff`` text, which the package wrote in
  the form ``format_coefficient`` writes, is replaced, inserted or
  deleted;
* a member of a payload object is deleted;
* a member of a payload object is retyped (given a value of another JSON
  type).

The mutated file then goes through ``render``, ``bracket``, ``let`` or
``cup``, in-process through ``gjb.cli.main``.  Whatever the mutation,
each command keeps the exit-code contract of the ``cli`` docstring:

* ``main`` returns 0, 1 or 2 and raises nothing;
* an exit 2 prints exactly one ``error:`` line, and it is the last line
  of stderr;
* any nonzero exit leaves the session file byte-identical;
* an exit 1 comes only from a ``ValidationError`` (stored conformal data
  that no longer satisfies its equations) or from the text writer's
  refusal of a rational with more digits than the interpreter converts
  to text.
"""

import contextlib
import io
import json
import random
import time
from unittest import mock

from conftest import SEED, RecordingParser
from gjb import cli
from gjb.dsl import FUNCTIONS
from gjb.errors import DomainError, ValidationError
from test_cli_fuzz import MAX_LENGTH, NAMES, NUMBERS, OPERATORS, TOO_LONG
from test_session import _as_version_1

SESSIONS = {
    "contact": [
        ["chart", "new", "--coordinates", "q,p,z"],
        ["theta", "set", "d(z) - p*d(q)"],
        ["conformal", "make", "--x", "e_z", "--store", "a"],
        ["conformal", "make", "--x", "p*e_p + z*e_z", "--store", "b"],
    ],
    "laurent": [
        ["chart", "new", "--coordinates", "q,p,z", "--nonvanishing", "z"],
        ["theta", "set", "z*d(z) - p*z^-1*d(q)"],
        ["conformal", "make", "--x", "e_q", "--store", "a"],
        ["conformal", "make", "--x", "3*p*e_p + z*e_z", "--store", "b"],
    ],
}
BINDINGS = [["let", "c = 3/2*q*p^2 - z"], ["let", "w = q*d(p) - 1/2*z^2*d(q)"], ["let", "u = p*e_q^e_z"]]
# each command, and the bindings it reads
COMMANDS = [
    (["render", "c"], ["c"]),
    (["render", "w"], ["w"]),
    (["render", "u"], ["u"]),
    (["render", "a"], ["a"]),
    (["bracket", "a", "b"], ["a", "b"]),
    (["cup", "b", "a"], ["a", "b"]),
    (["let", "r = c*w + d(c)"], ["c", "w"]),
    (["let", "r = u + e_q^e_p"], ["u"]),
]
CASES = 300
# measured: 300 cases take 0.21-0.28 s (2-core x86-64, Python 3.11.7); the
# budget is about ten times that
BUDGET_S = 3.0
# one character of a written text becomes one of these
CHARACTERS = [*"0123456789/*^-+ _qpzx", "３", "٣", "("]
# a member's new value is of a type it does not have
VALUES = [None, True, 7, 1.5, "1", [], [0], {}]


def _files(tmp_path):
    """The bytes of each session file: every session in both versions."""
    out = {}
    path = tmp_path / "session.json"
    for name, steps in SESSIONS.items():
        for argv in steps + BINDINGS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "-s", str(path)]) == 0, argv
        payload = json.loads(path.read_text())
        out[f"{name}/2"] = path.read_bytes()
        out[f"{name}/1"] = json.dumps(_as_version_1(payload)).encode()
    return out


def _objects(value):
    """Every JSON object inside a stored value, the value included."""
    if isinstance(value, dict):
        yield value
        for member in value.values():
            yield from _objects(member)
    elif isinstance(value, list):
        for member in value:
            yield from _objects(member)


def _text(rng, leaves=3):
    """A random text along the grammar, from ``test_cli_fuzz``'s vocabulary."""
    if leaves <= 1 or rng.random() < 0.3:
        return rng.choice(NAMES + NUMBERS)
    kind = rng.randrange(4)
    if kind == 0:
        return f"{_text(rng, leaves - 1)}{rng.choice(OPERATORS)}{_text(rng, leaves - 1)}"
    if kind == 1:
        return f"-{_text(rng, leaves - 1)}"
    if kind == 2:
        name = rng.choice(sorted(FUNCTIONS))
        return f"{name}({', '.join(_text(rng, 1) for _ in range(FUNCTIONS[name]))})"
    return f"({_text(rng, leaves - 1)})"


def _mutate(rng, payload, names):
    """Mutate in place θ or one of the bindings ``names`` of ``payload``,
    which every load reads or the command does; returns the kind of
    mutation."""
    stored = [payload["theta"], *(payload["bindings"][name] for name in names)]
    objects = list(_objects(rng.choice(stored)))
    terms = [obj for obj in objects if "coeff" in obj]
    kind = rng.choice(["grammar", "character", "delete", "retype"])
    if kind in ("grammar", "character") and terms:
        term = rng.choice(terms)
        if kind == "grammar":
            text = _text(rng)
            while len(text) > MAX_LENGTH:
                text = _text(rng)
            term["coeff"] = text
        else:
            text = term["coeff"]
            at = rng.randrange(len(text) + 1)
            term["coeff"] = text[:at] + rng.choice(["", *CHARACTERS]) + text[at + rng.randint(0, 1) :]
        return kind
    obj = rng.choice(objects)
    key = rng.choice(sorted(obj))
    if kind == "delete":
        del obj[key]
        return kind
    obj[key] = rng.choice([value for value in VALUES if type(value) is not type(obj[key])])
    return "retype"


def _check(path, original, argv):
    recording = RecordingParser()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_build_parser", lambda: recording):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "-s", str(path)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert path.read_bytes() == original, (argv, lines)
    if code == 2:
        assert lines and [line for line in lines if line.startswith("error:")] == [lines[-1]], (argv, lines)
    if code == 1:
        assert recording.raised and all(
            isinstance(raised, ValidationError) or (isinstance(raised, DomainError) and TOO_LONG.fullmatch(str(raised)))
            for raised in recording.raised
        ), (argv, recording.raised)
    return code


def test_mutated_session_payloads_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    files = _files(tmp_path)
    path = tmp_path / "mutated.json"
    # the unmutated files read: every command succeeds on each
    for original in files.values():
        for argv, _ in COMMANDS:
            path.write_bytes(original)
            assert _check(path, original, argv) == 0, argv
    codes, kinds = set(), set()
    start = time.perf_counter()
    for _ in range(CASES):
        payload = json.loads(files[rng.choice(sorted(files))])
        argv, names = rng.choice(COMMANDS)
        kinds.add(_mutate(rng, payload, names))
        original = json.dumps(payload).encode()
        path.write_bytes(original)
        codes.add(_check(path, original, argv))
    elapsed = time.perf_counter() - start
    assert kinds == {"grammar", "character", "delete", "retype"}
    # the mutations reach every exit code
    assert codes == {0, 1, 2}, codes
    assert elapsed < BUDGET_S, f"{CASES} cases took {elapsed:.2f}s"
