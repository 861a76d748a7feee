"""The three seeded workloads of the gjb benchmark.

A workload is built from its seed alone and hands the library only the
inputs it generated.  It yields its ops in blocks: a block has the same
op mix in every run and every seed (only the random data differs), and
a run measures whole blocks, so every run sees the same mix.

Every op is split in two.  ``call`` is the timed part: one library call
sequence, or one ``gjb`` command run in-process through ``gjb.cli.main``
with its output captured.  ``check`` runs afterwards, untimed, and
compares the result with an independent oracle; it returns whether the
result is right and the text that goes into the run's digest.

Library functions are always reached through their module
(``structures.jacobi_bracket``), never bound into this module, so that
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
from fractions import Fraction

from gjb import cli, dsl, exterior, fieldtheory, structures, symplectization
from gjb.coeffring import Chart, Coefficient
from gjb.exterior import DiffForm, MultiVector

TAIL_PERCENTILE = {"bracket_identities": 97, "phase_space_cli": 75, "session_script": 98}


class Op:
    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind, label, call, check):
        self.kind, self.label, self.call, self.check = kind, label, call, check


def _poly(rng: random.Random, chart: Chart, names, terms: int, max_degree: int, min_degree: int = 0) -> Coefficient:
    """A polynomial with exactly ``terms`` distinct monomials in ``names``
    (degrees from ``min_degree`` to ``max_degree``) and small nonzero
    rational coefficients."""
    positions = [chart.index(name) for name in names]
    out: dict[tuple[int, ...], Fraction] = {}
    while len(out) < terms:
        expo = [0] * chart.dimension
        for _ in range(rng.randint(min_degree, max_degree)):
            expo[rng.choice(positions)] += 1
        out.setdefault(tuple(expo), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
    return Coefficient(chart, out)


def _fg(rng: random.Random, C, degrees: tuple[int, int] = (0, 2)) -> tuple[Coefficient, list[Coefficient]]:
    """Seeded (F, G) with G^mu = A^mu + B_i p^mu_i; each of F, A^mu, B_i
    is one monomial in x, y with degree in the closed range ``degrees``."""
    xy = C.x_names + C.y_names
    low, high = degrees
    F = _poly(rng, C.chart, xy, 1, high, low)
    A = [_poly(rng, C.chart, xy, 1, high, low) for _ in C.x_names]
    B = [_poly(rng, C.chart, xy, 1, high, low) for _ in C.y_names]
    G = []
    for mu in range(C.spec.n):
        g = A[mu]
        for i in range(C.spec.m):
            g = g + B[i] * C.coordinate(C.momentum_name(mu, i))
        G.append(g)
    return F, G


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_text(result) -> str:
    code, out, err = result
    return f"exit {code}\n{out}{err}"


# ---------------------------------------------------------------------------
# bracket_identities: the criterion-3 identity suite as a library workload
# ---------------------------------------------------------------------------

# One block, by identity and operand degrees: the criterion-3 ratio of
# skew : expression : Jacobi : Leibniz = 60 : 60 : 25 : 25.  Degree-2
# operands appear in every kind; no op nests two degree-2 operands in
# one bracket chain (one such Jacobi op took 25-30 s when this benchmark
# was written).
BRACKET_BLOCK = (
    [("skew", (1, 1))] * 6 + [("skew", (1, 2))] * 3 + [("skew", (2, 1))] * 3
    + [("expression", (1, 1))] * 6 + [("expression", (1, 2))] * 3 + [("expression", (2, 1))] * 3
    + [("jacobi", (1, 1, 1))] * 3 + [("jacobi", (2, 1, 1)), ("jacobi", (1, 2, 1)), ("jacobi", (1, 1, 2))]
    + [("leibniz", (1, 1, 1))] * 3 + [("leibniz", (2, 1, 1))] * 2 + [("leibniz", (1, 2, 1))]
)


def _skew(a, b):
    p, q = a.degree, b.degree
    lhs = structures.jacobi_bracket(a, b).alpha
    return lhs == structures.jacobi_bracket(b, a).alpha.scale(-((-1) ** ((p - 1) * (q - 1)))), lhs


def _expression(a, b):
    p, q = a.degree, b.degree
    lhs = structures.jacobi_bracket(a, b).alpha
    rhs = (
        exterior.lie_derivative(a.x_field, b.alpha)
        - exterior.interior_product(a.v_field, b.alpha, strict=False)
    ).scale((-1) ** ((p - 1) * q))
    return lhs == rhs, lhs


def _jacobi(a, b, c):
    p, q, r = a.degree, b.degree, c.degree
    jb = structures.jacobi_bracket
    total = (
        jb(a, jb(b, c)).alpha.scale((-1) ** ((p - 1) * (r - 1)))
        + jb(c, jb(a, b)).alpha.scale((-1) ** ((r - 1) * (q - 1)))
        + jb(b, jb(c, a)).alpha.scale((-1) ** ((q - 1) * (p - 1)))
    )
    return total.is_zero(), total


def _leibniz(a, b, c):
    q, r = b.degree, c.degree
    jb, cup = structures.jacobi_bracket, structures.cup_product
    lhs = jb(a, cup(b, c)).alpha
    rhs = cup(jb(a, b), c).alpha + cup(b, jb(a, c)).alpha.scale((-1) ** ((r - 1) * q))
    return lhs == rhs, lhs


IDENTITIES = {"skew": _skew, "expression": _expression, "jacobi": _jacobi, "leibniz": _leibniz}


def _identity_check(result):
    holds, witness = result
    return holds, str(witness)


class BracketIdentities:
    """Skew, expression, Jacobi and Leibniz checks on seeded vertical
    (F, G) conformal data on canonical (2,1) and their cup products.

    Every op draws fresh operands, made untimed when its block is built:
    a fixed pool would let a few unusually large cup products set the
    cost of a whole run."""

    name = "bracket_identities"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.C = fieldtheory.build_canonical(2, 1)

    def _operand(self, rng, degree):
        if degree == 2:
            return structures.cup_product(self._operand(rng, 1), self._operand(rng, 1))
        return fieldtheory.vertical_conformal_from_FG(self.C, *_fg(rng, self.C, degrees=(0, 1)))[1]

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        shapes = list(BRACKET_BLOCK)
        rng.shuffle(shapes)
        ops = []
        for k, (kind, degrees) in enumerate(shapes):
            args = [self._operand(rng, d) for d in degrees]
            ops.append(Op(kind, f"{kind}{degrees}#{index}.{k}", lambda f=IDENTITIES[kind], a=args: f(*a), _identity_check))
        return ops

    def close(self):
        pass


# ---------------------------------------------------------------------------
# phase_space_cli: field-theory commands on canonical phase spaces
# ---------------------------------------------------------------------------

# (n, m) -> (repeats of tables and distortion, repeats of each of hdw,
# sigma and dissipated) in one block.  hdw at n = 4 is left out: one op
# took 57 s at (4,1) and 479 s at (4,2) when this benchmark was written.
PHASE_SIZES = {(2, 1): (1, 4), (2, 2): (1, 6), (3, 1): (1, 2), (3, 2): (3, 1), (4, 1): (1, 0)}


def _closed_form_sigma(C, H: Coefficient) -> DiffForm:
    """sigma_h = sum_mu dH/ds^mu dx^mu."""
    sigma = DiffForm.zero(C.chart, 1)
    for x, s in zip(C.x_names, C.s_names):
        sigma = sigma + DiffForm.differential(C.chart, x).scale(H.partial(s))
    return sigma


def _reference_hdw(C, H: Coefficient, chart: Chart) -> list[Coefficient]:
    """The covariant Hamilton system rebuilt from the closed forms in the
    ``hdw_residuals`` docstring."""
    coord = lambda name: Coefficient.coordinate(chart, name)
    Hj = H.rename_chart(chart)
    n, m = C.spec.n, C.spec.m
    e_s = Hj
    for mu in range(n):
        e_s = e_s + coord(fieldtheory.jet_name(C.s_names[mu], C.x_names[mu]))
        for i in range(m):
            pm = C.momentum_name(mu, i)
            e_s = e_s - coord(pm) * Hj.partial(pm)
    out = [e_s]
    for i in range(m):
        for mu in range(n):
            out.append(
                coord(fieldtheory.jet_name(C.y_names[i], C.x_names[mu]))
                - Hj.partial(C.momentum_name(mu, i))
            )
    for i in range(m):
        e_p = Hj.partial(C.y_names[i])
        for mu in range(n):
            pm = C.momentum_name(mu, i)
            e_p = e_p + coord(fieldtheory.jet_name(pm, C.x_names[mu])) + Hj.partial(C.s_names[mu]) * coord(pm)
        out.append(e_p)
    return out


class PhaseSpaceCli:
    """``tables``, ``hdw``, ``sigma``, ``dissipated`` and ``distortion``
    on canonical phase spaces, with seeded random Hamiltonians."""

    name = "phase_space_cli"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # unvalidated structures: only their charts and names feed the oracles
        self.C = {nm: fieldtheory.CanonicalStructure(fieldtheory.PhaseSpaceSpec(*nm)) for nm in PHASE_SIZES}

    def _hamiltonian(self, rng, C) -> Coefficient:
        names = [c for c in C.chart.coordinates if c != C.p_name]
        return _poly(rng, C.chart, names, 3, 2)

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        ops = []
        for (n, m), (fixed, repeats) in PHASE_SIZES.items():
            C = self.C[(n, m)]
            size = ["--n", str(n), "--m", str(m)]
            for _ in range(fixed):
                ops.append(self._op("tables", (n, m), ["tables", *size], self._check_tables, C))
                ops.append(self._op("distortion", (n, m), ["distortion", *size], self._check_distortion, C))
            for _ in range(repeats):
                H = self._hamiltonian(rng, C)
                ops.append(self._op("hdw", (n, m), ["hdw", *size, f"--H={H}", "--format", "json"],
                                    self._check_hdw, C, H))
                H = self._hamiltonian(rng, C)
                ops.append(self._op("sigma", (n, m), ["sigma", *size, f"--H={H}"], self._check_sigma, C, H))
                H = self._hamiltonian(rng, C)
                F, G = _fg(rng, C)
                argv = ["dissipated", *size, f"--H={H}", f"--F={F}"] + [f"--G={g}" for g in G]
                ops.append(self._op("dissipated", (n, m), argv, self._check_dissipated, C, H, F, G))
        return ops

    @staticmethod
    def _op(command, nm, argv, check, *extra):
        kind = f"{command}@{nm[0]},{nm[1]}"
        return Op(kind, " ".join(argv), lambda: run_cli(argv), lambda result: check(result, *extra))

    @staticmethod
    def _check_tables(result, C):
        code, out, _ = result
        lines = out.splitlines()
        factors = [line.strip() for line in lines if line.strip().startswith("factor = ")]
        rows = len(factors)
        mismatches = sum(1 for line in lines if "]  MISMATCH" in line)
        ok = (
            code == 0
            and rows > 0
            and factors.count("factor = -1") == 1
            and factors.count("factor = 0") == rows - 1
            and lines[-1] == f"{rows * rows} brackets, {mismatches} mismatch(es) against the reference table"
        )
        if (C.spec.n, C.spec.m) == (2, 1):
            ok = ok and lines[-1] == "36 brackets, 4 mismatch(es) against the reference table"
        return ok, _cli_text(result)

    @staticmethod
    def _check_distortion(result, C):
        code, out, _ = result
        n = C.spec.n
        expected = [f"C[{i}][{j}] = 0" for i in range(n) for j in range(n)] + ["all zero: yes"]
        return code == 0 and out.splitlines() == expected, _cli_text(result)

    @staticmethod
    def _check_hdw(result, C, H):
        code, out, _ = result
        if code != 0:
            return False, _cli_text(result)
        payload = json.loads(out)
        section = fieldtheory.HamiltonianSection(C, H)
        chart = fieldtheory.JetSection.for_hamiltonian_section(section).chart
        expected = [str(e) for e in _reference_hdw(C, H, chart)]
        got = [r["expression"] for r in payload["residuals"]]
        sigma_ok = payload["sigma"] == dsl.to_json(_closed_form_sigma(C, H))
        return sigma_ok and got == expected, _cli_text(result)

    @staticmethod
    def _check_sigma(result, C, H):
        code, out, _ = result
        return code == 0 and out == f"{_closed_form_sigma(C, H)}\n", _cli_text(result)

    @staticmethod
    def _check_dissipated(result, C, H, F, G):
        """Exit code 1 is a verdict.  The expected verdict is the
        ``dissipated_check`` condition -(L_X + r) h + (d + sigma ^) i_X h = 0
        evaluated with the closed-form sigma, so the oracle does not re-run
        the refined Reeb solve the command itself performs."""
        code, out, _ = result
        _, data = fieldtheory.vertical_conformal_from_FG(C, F, G)
        h = C.volume.scale(C.coordinate(C.p_name) + H)
        X = data.x_field
        inner = exterior.interior_product(X, h)
        residual = (
            -exterior.lie_derivative(X, h)
            + h.scale(data.v_field.scalar())
            + exterior.exterior_derivative(inner)
            + exterior.wedge(_closed_form_sigma(C, H), inner)
        )
        verdict = residual.is_zero()
        ok = code == (0 if verdict else 1) and f"dissipated: {'yes' if verdict else 'no'}" in out.splitlines()
        return ok, _cli_text(result)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# session_script: session commands on two growing session files
# ---------------------------------------------------------------------------

SESSION_STEPS = 16


def _contact_structure():
    chart = Chart(("q", "p", "z"))
    theta = DiffForm.differential(chart, "z") - DiffForm.differential(chart, "q").scale(
        Coefficient.coordinate(chart, "p")
    )
    return structures.NFormStructure(chart, theta)


def _contact_data(K, f: Coefficient):
    """The contact conformal triple (f, X_f, -df/dz) of a function f."""
    fq, fp, fz = (f.partial(name) for name in ("q", "p", "z"))
    p = Coefficient.coordinate(K.chart, "p")
    X = (
        MultiVector.basis_vector(K.chart, "q").scale(fp)
        - MultiVector.basis_vector(K.chart, "p").scale(fq + p * fz)
        + MultiVector.basis_vector(K.chart, "z").scale(p * fp - f)
    )
    return structures.make_conformal_data(K, DiffForm.from_scalar(f), X, -fz)


def _parse(chart: Chart, text: str):
    return dsl.evaluate(text, dsl.Environment(chart=chart))


class SessionScript:
    """Session commands on a canonical (2,1) and a contact (q, p, z)
    session file, writes interleaved with reads while the bindings grow."""

    name = "session_script"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = tempfile.mkdtemp(prefix="session-", dir=workdir)
        self.cs = os.path.join(self.dir, "canonical.json")
        self.ks = os.path.join(self.dir, "contact.json")
        self.C = fieldtheory.build_canonical(2, 1)
        self.K = _contact_structure()
        self.sym = {"c": symplectization.build(self.C), "k": symplectization.build(self.K)}

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        C, K, cs, ks = self.C, self.K, self.cs, self.ks
        ops = [
            self._cmd("chart-new@canonical", ["chart", "new", "--canonical", "2,1", "-s", cs], self._ok),
            self._cmd("chart-new@contact", ["chart", "new", "--coordinates", "q,p,z", "-s", ks], self._ok),
            self._cmd("theta-set@contact", ["theta", "set", "d(z) - p*d(q)", "-s", ks], self._ok),
        ]
        A, B = [], []
        for i in range(SESSION_STEPS):
            A.append(fieldtheory.vertical_conformal_from_FG(C, *_fg(rng, C))[1])
            B.append(_contact_data(K, _poly(rng, K.chart, K.chart.coordinates, 3, 2)))
            g = _poly(rng, K.chart, K.chart.coordinates, 3, 2)
            ops.append(self._cmd("make@canonical", ["conformal", "make", f"--x={A[i].x_field}", "--store", f"a{i}", "-s", cs],
                                 self._expect, lambda a=A[i], i=i: f"conformal: yes\n{dsl.render(a)}\nstored as a{i}\n"))
            ops.append(self._cmd("make@contact", ["conformal", "make", f"--x={B[i].x_field}", "--store", f"b{i}", "-s", ks],
                                 self._expect, lambda b=B[i], i=i: f"conformal: yes\n{dsl.render(b)}\nstored as b{i}\n"))
            ops.append(self._cmd("let@contact", ["let", f"g{i} = {g}", "-s", ks],
                                 self._expect, lambda g=g, i=i: f"g{i} =\n{dsl.render(g)}\nstored as g{i}\n"))
            ops.append(self._cmd("sharp@contact", ["sharp", f"d(g{i})", "-s", ks], self._check_sharp, g))
            ops.append(self._cmd("render@contact", ["render", f"i_(e_q, d(g{i}))", "-s", ks],
                                 self._expect, lambda g=g: f"{DiffForm.from_scalar(g.partial('q'))}\n"))
            if i == 0:
                continue
            j, k = rng.randrange(i), rng.randrange(i)
            ops.append(self._cmd("bracket@canonical", ["bracket", f"a{i}", f"a{j}", "-s", cs], self._expect,
                                 lambda a=A[i], b=A[j]: f"{dsl.render(structures.jacobi_bracket(a, b))}\n"))
            ops.append(self._cmd("let@canonical", ["let", f"c{i} = jb(a{i}, a{j})", "-s", cs], self._expect,
                                 lambda a=A[i], b=A[j], i=i: f"c{i} =\n{dsl.render(structures.jacobi_bracket(a, b))}\nstored as c{i}\n"))
            ops.append(self._cmd("cup@contact", ["cup", f"b{i}", f"b{k}", "-s", ks], self._expect,
                                 lambda a=B[i], b=B[k]: f"{dsl.render(structures.cup_product(a, b))}\n"))
            if i % 2:
                ops.append(self._cmd("psi-check@canonical", ["psi-check", f"a{i}", f"a{j}", "-s", cs], self._check_psi))
                ops.append(self._cmd("poisson@contact", ["poisson", f"b{i}", f"b{k}", "-s", ks], self._expect,
                                     lambda a=B[i], b=B[k]: f"{dsl.render(self._poisson_oracle(a, b))}\n"))
            else:
                ops.append(self._cmd("psi-check@contact", ["psi-check", f"b{i}", f"b{k}", "-s", ks], self._check_psi))
                ops.append(self._cmd("lift@canonical", ["lift", f"a{i}", "-s", cs], self._expect,
                                     lambda a=A[i]: f"lift = {self._lift_oracle(a)}\n"))
            if i % 4 == 0:
                ops.append(self._cmd("kernel@canonical", ["kernel", "--degree", "1", "--which", "both", "-s", cs],
                                     self._check_kernel))
        return ops

    def _cmd(self, kind, argv, check, *extra):
        """A session command; the digest text does not depend on where the
        temporary session files live."""

        def checked(result):
            ok, text = check(result, *extra)
            return ok, text.replace(self.dir, "<dir>")

        return Op(kind, " ".join(argv[:-2]), lambda: run_cli(argv), checked)

    @staticmethod
    def _ok(result):
        return result[0] == 0, _cli_text(result)

    @staticmethod
    def _expect(result, expected):
        code, out, _ = result
        return code == 0 and out == expected(), _cli_text(result)

    @staticmethod
    def _check_psi(result):
        code, out, _ = result
        return code == 0 and out == "residual = 0\ncorrespondence holds: yes\n", _cli_text(result)

    def _check_sharp(self, result, g):
        """(X, gamma) must solve d g = i_X dTheta + gamma Theta with i_X Theta = 0."""
        code, out, _ = result
        lines = out.splitlines()
        if code != 0 or len(lines) != 2 or not lines[0].startswith("sharp = ") or not lines[1].startswith("reeb factor = "):
            return False, _cli_text(result)
        K = self.K
        X = _parse(K.chart, lines[0][len("sharp = "):])
        if isinstance(X, Coefficient):
            X = MultiVector.zero(K.chart, 1) if X.is_zero() else None
        gamma = _parse(K.chart, lines[1][len("reeb factor = "):])
        if isinstance(gamma, DiffForm):
            gamma = gamma.scalar()
        if X is None or not isinstance(gamma, Coefficient):
            return False, _cli_text(result)
        dg = exterior.exterior_derivative(DiffForm.from_scalar(g))
        ok = (
            exterior.interior_product(X, K.dtheta) + K.theta.scale(gamma) == dg
            and exterior.interior_product(X, K.theta).is_zero()
        )
        return ok, _cli_text(result)

    def _check_kernel(self, result):
        """dim ker1 Theta = m + 1 + n m and dim ker1 dTheta = n on canonical
        (n, m); every listed vector annihilates its target."""
        code, out, _ = result
        C = self.C
        n, m = C.spec.n, C.spec.m
        lines = out.splitlines()
        expected_heads = [
            (f"kernel of degree 1 against theta: dimension {m + 1 + n * m}", C.theta, m + 1 + n * m),
            (f"kernel of degree 1 against d(theta): dimension {n}", C.dtheta, n),
        ]
        ok, pos = code == 0, 0
        for head, target, dim in expected_heads:
            if not ok or pos >= len(lines) or lines[pos] != head:
                return False, _cli_text(result)
            for line in lines[pos + 1: pos + 1 + dim]:
                u = _parse(C.chart, line.strip())
                ok = ok and isinstance(u, MultiVector) and exterior.interior_product(u, target).is_zero()
            pos += 1 + dim
        return ok and pos == len(lines), _cli_text(result)

    def _poisson_oracle(self, a, b):
        """{Psi(a), Psi(b)}_P = Psi({a, b}) + (-1)^q d Psi(a v b)."""
        sym = self.sym["k"]
        psi_bracket = symplectization.psi_map(sym, structures.jacobi_bracket(a, b))[0]
        psi_cup = symplectization.psi_map(sym, structures.cup_product(a, b))[0]
        exact = exterior.exterior_derivative(psi_cup).scale((-1) ** b.degree)
        # a contraction past the bottom degree is a zero of another degree
        if exact.is_zero():
            return psi_bracket
        return exact if psi_bracket.is_zero() else psi_bracket + exact

    def _lift_oracle(self, a):
        """X^h + (-1)^p Delta ^ V^h."""
        sym = self.sym["c"]
        return sym.horizontal(a.x_field) + exterior.wedge(sym.liouville, sym.horizontal(a.v_field)).scale(
            (-1) ** a.degree
        )

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BracketIdentities, PhaseSpaceCli, SessionScript)}

