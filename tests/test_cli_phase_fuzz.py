"""A seeded boundary harness for the phase-space commands.

Random ``--H``, ``--F`` and ``--G`` texts, built from the phase space's
coordinates, jet-like names, unknown names (which become parameters),
numbers, operators and functions, go through ``sigma``, ``hdw`` and
``dissipated`` at (n, m) = (2, 1) and (2, 2), in-process through
``gjb.cli.main``.  ``dissipated`` draws its conformal data by ``--row``
or by ``--F``/``--G``, with a wrong number of components now and then.
Whatever the texts, each command keeps the exit-code contract of the
``cli`` docstring:

* ``main`` returns 0, 1 or 2 and raises nothing;
* an exit 2 prints exactly one ``error:`` line, and it is the last line
  of stderr;
* an exit 1 comes only from a ``ValidationError``, from a ``dissipated:
  no`` verdict, or from the refusal of a G that does not generate a
  conformal transformation or is not affine in the momenta, checks on
  the data; an operand refused by its variables alone is bad input,
  exit 2.

The fixed cases are those operand refusals and the two refusals of G
that check the data; the random ones follow from the seed (``GJ_SEED``).
"""

import contextlib
import io
import random
import time
from unittest import mock

from conftest import SEED, RecordingParser
from gjb import cli
from gjb.dsl import FUNCTIONS
from gjb.errors import DomainError, ValidationError
from gjb.fieldtheory import PhaseSpaceSpec

SHAPES = [(2, 1), (2, 2)]
NUMBERS = ["0", "1", "2", "-1", "1/2"]
OPERATORS = ["+", "-", "*"]
# unknown names become parameters; the jet-like ones are refused by hdw
EXTRA_NAMES = ["k", "c", "dx0", "e_x0"]
ROWS = ["1", "2", "2:0,1", "3:0", "4:1", "9", "3:x"]
COMMANDS = 400
# measured: the fixed cases and 400 random commands take 0.26-0.33 s
# (2-core x86-64, Python 3.11.7); the budget is about ten times that
BUDGET_S = 3.0

FIXED = [
    ["sigma", "--n", "2", "--m", "1", "--H=p"],
    ["hdw", "--n", "2", "--m", "1", "--H=p"],
    ["dissipated", "--n", "2", "--m", "1", "--H=p", "--row", "1"],
    ["dissipated", "--n", "2", "--m", "1", "--H=y", "--F=p0", "--G=0", "--G=0"],
    ["dissipated", "--n", "2", "--m", "1", "--H=y", "--G=s0", "--G=0"],
    ["dissipated", "--n", "2", "--m", "2", "--H=y0", "--F=s1", "--G=0", "--G=0"],
    ["dissipated", "--n", "2", "--m", "1", "--H=y", "--G=p1", "--G=0"],  # G-generation: exit 1
    ["dissipated", "--n", "2", "--m", "2", "--H=p0_0", "--G=p0_0*p1_1", "--G=p1_0*p1_1"],  # not affine: exit 1
]
# the refusals of G that are checks on the data
G_CHECKS = ("G does not generate a conformal transformation", "G must be affine in the momenta")


def _names(n, m):
    """Every name a text draws from, and the x and y coordinates alone,
    which keep F and G inside their variables."""
    coordinates = PhaseSpaceSpec(n, m).coordinates
    xy = [name for name in coordinates if name[0] in "xy"]
    return list(coordinates) + [f"{xy[n]}_x0"] + EXTRA_NAMES, xy


def _text(rng, names, leaves=4):
    """A text along the expression grammar with at most ``leaves`` leaves,
    or now and then a free run of its tokens."""
    if rng.random() < 0.15:
        tokens = names + NUMBERS + OPERATORS + ["^", "(", ")", ", "] + [f"{name}(" for name in FUNCTIONS]
        return "".join(rng.choice(tokens) for _ in range(rng.randint(0, 8)))
    if leaves <= 1 or rng.random() < 0.3:
        return rng.choice(names + NUMBERS)
    kind = rng.randrange(5)
    if kind == 0:
        left = rng.randint(1, leaves - 1)
        return f"{_text(rng, names, left)} {rng.choice(OPERATORS)} {_text(rng, names, leaves - left)}"
    if kind == 1:
        return f"({_text(rng, names, leaves - 1)})^{rng.choice(['0', '1', '2', '3', '-1'])}"
    if kind == 2:
        return f"-({_text(rng, names, leaves - 1)})"
    if kind == 3:
        name = rng.choice(sorted(FUNCTIONS))
        return f"{name}({', '.join(_text(rng, names, 1) for _ in range(FUNCTIONS[name]))})"
    return f"({_text(rng, names, leaves - 1)})"


def _polynomial(rng, names):
    """A sum of up to three products of up to two names or numbers."""
    factors = names + ["1", "2", "1/2"]
    return " + ".join(
        "*".join(rng.choice(factors) for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 3))
    )


def _command(rng):
    n, m = rng.choice(SHAPES)
    names, xy = _names(n, m)
    argv = [rng.choice(["sigma", "hdw", "dissipated"]), "--n", str(n), "--m", str(m), f"--H={_text(rng, names)}"]
    if argv[0] != "dissipated":
        return argv + ["--format", rng.choice(["plain", "latex", "json"])]
    row = rng.random() < 0.3
    if row:
        argv += ["--row", rng.choice(ROWS)]
    if rng.random() < (0.15 if row else 0.9):
        # half the time F and G are polynomials in x and y, which pass
        # every refusal, so the dissipation check itself runs
        tame = rng.random() < 0.5
        operand = (lambda: _polynomial(rng, xy)) if tame else (lambda: _text(rng, names, 3))
        if rng.random() < 0.7:
            argv.append(f"--F={operand()}")
        count = n if rng.random() < 0.9 else rng.choice([n - 1, n + 1])
        argv += [f"--G={operand()}" for _ in range(count)]
    return argv


def _check(argv):
    recording = RecordingParser()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_build_parser", lambda: recording):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert lines and [line for line in lines if line.startswith("error:")] == [lines[-1]], (argv, lines)
    if code == 1:
        verdict = not recording.raised and out.getvalue().endswith("dissipated: no\n")
        checks = all(
            isinstance(raised, ValidationError)
            or (
                isinstance(raised, DomainError)
                and str(raised).startswith(G_CHECKS)
            )
            for raised in recording.raised
        )
        assert verdict or (recording.raised and checks), (argv, recording.raised, lines)
    return code


def test_phase_space_commands_keep_the_exit_code_contract():
    rng = random.Random(SEED)
    commands = FIXED + [_command(rng) for _ in range(COMMANDS)]
    start = time.perf_counter()
    codes = [_check(argv) for argv in commands]
    elapsed = time.perf_counter() - start
    assert codes[: len(FIXED)] == [2] * (len(FIXED) - 2) + [1, 1]
    # the draws reach every exit code
    assert {0, 1, 2} <= set(codes[len(FIXED) :]), codes
    assert elapsed < BUDGET_S, f"{len(commands)} commands took {elapsed:.2f}s"
