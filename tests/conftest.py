"""Shared fixtures and random generators for the test suite.

Set GJ_SEED to reproduce a randomized run exactly.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from gjb import cli
from gjb.coeffring import Chart, Coefficient
from gjb.exterior import DiffForm, MultiVector, interior_product, wedge
from gjb.fieldtheory import build_canonical, vertical_conformal_from_FG
from gjb.structures import NFormStructure, make_conformal_data

SEED = int(os.environ.get("GJ_SEED", "20250815"))


@pytest.fixture
def rng():
    return random.Random(SEED)


class RecordingParser:
    """The command-line parser, with each parsed command wrapped to record
    the exception it raises before ``main`` maps it to an exit code, so a
    harness reads the exception, not its message.  Patched in for
    ``cli._build_parser``."""

    def __init__(self):
        self.parser = cli._build_parser()
        self.raised = []

    def parse_args(self, argv):
        args = self.parser.parse_args(argv)
        command = args.func

        def recorded(parsed):
            try:
                return command(parsed)
            except Exception as err:
                self.raised.append(err)
                raise

        args.func = recorded
        return args


def rand_coefficient(rng, chart, max_terms=3, max_degree=2, laurent=False):
    """Random sparse polynomial scalar; negative exponents only on request
    and only on nonvanishing coordinates."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * chart.dimension
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(chart.dimension)] += 1
        if laurent and chart.nonvanishing and rng.random() < 0.3:
            name = rng.choice(sorted(chart.nonvanishing))
            expo[chart.index(name)] -= rng.randint(1, 2)
        value = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if value:
            terms[tuple(expo)] = value
    return Coefficient(chart, terms)


def rand_form(rng, chart, degree, max_terms=3, **kw):
    keys = list(itertools.combinations(range(chart.dimension), degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(keys)] = rand_coefficient(rng, chart, **kw)
    return DiffForm(chart, degree, terms)


def rand_multivector(rng, chart, degree, max_terms=3, **kw):
    keys = list(itertools.combinations(range(chart.dimension), degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(keys)] = rand_coefficient(rng, chart, **kw)
    return MultiVector(chart, degree, terms)


# --- reference structures -------------------------------------------------


def contact_structure():
    """(q, p, z) with the contact form dz − p dq."""
    chart = Chart(("q", "p", "z"))
    eta = DiffForm.differential(chart, "z") - DiffForm.differential(chart, "q").scale(
        Coefficient.coordinate(chart, "p")
    )
    return NFormStructure(chart, eta)


def contact_data(S, f):
    """The contact conformal triple of a function f on the (q, p, z) chart."""
    fq, fp, fz = (f.partial(name) for name in ("q", "p", "z"))
    p = Coefficient.coordinate(S.chart, "p")
    X = (
        MultiVector.basis_vector(S.chart, "q").scale(fp)
        - MultiVector.basis_vector(S.chart, "p").scale(fq + p * fz)
        + MultiVector.basis_vector(S.chart, "z").scale(p * fp - f)
    )
    return make_conformal_data(S, DiffForm.from_scalar(f), X, -fz)


def phase_field_names(n, m):
    """(y names, momentum names) of the degree-n phase space with m fields."""
    ys = ["y"] if m == 1 else [f"y{i}" for i in range(m)]
    ps = [f"p{mu}" if m == 1 else f"p{mu}_{i}" for mu in range(n) for i in range(m)]
    return ys, ps


def canonical_structure(n, m):
    """The phase-space structure with Θ = ds^μ∧d^{n−1}x_μ − p·dⁿx − p^μ_i·dy^i∧d^{n−1}x_μ."""
    return build_canonical(n, m)


def xmu_form(S, n, mu):
    """d^{n−1}x_μ on a canonical structure."""
    dnx = DiffForm.volume(S.chart, tuple(f"x{k}" for k in range(n)))
    return interior_product(MultiVector.basis_vector(S.chart, f"x{mu}"), dnx)


def fg_conformal_data(S, n, m, F, A, B):
    """Vertical conformal data on a canonical structure from scalars F, A^μ, B_i.

    With G^μ = A^μ + B_i·p^μ_i (all of F, A, B functions of x, y only) the
    form is α = (−F·s^μ − G^μ)·d^{n−1}x_μ, the witness is V = F, and the
    field follows the unique vertical-transformation shape.  The returned
    triple is validated, so a bad input dies here.
    """
    chart = S.chart
    ys, ps = phase_field_names(n, m)
    coord = lambda name: Coefficient.coordinate(chart, name)
    G = [
        A[mu] + sum((B[i] * coord(ps[mu * m + i]) for i in range(m)), Coefficient.zero(chart))
        for mu in range(n)
    ]
    return vertical_conformal_from_FG(S, F, G)[1]


def rand_xy_coefficient(rng, S, n, m, max_terms=2, max_degree=2):
    """Random polynomial in the x and y coordinates only."""
    chart = S.chart
    ys, _ = phase_field_names(n, m)
    positions = [chart.index(f"x{mu}") for mu in range(n)] + [chart.index(y) for y in ys]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * chart.dimension
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.choice(positions)] += 1
        value = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if value:
            terms[tuple(expo)] = value
    return Coefficient(chart, terms)


def rand_fg_data(rng, S, n, m, max_degree=2):
    F = rand_xy_coefficient(rng, S, n, m, max_degree=max_degree)
    A = [rand_xy_coefficient(rng, S, n, m, max_degree=max_degree) for _ in range(n)]
    B = [rand_xy_coefficient(rng, S, n, m, max_degree=max_degree) for _ in range(m)]
    return fg_conformal_data(S, n, m, F, A, B)


def translations_and_vertical_data(n, m=1):
    """Degree-1 data at (n, m): the translations T_μ = (−ι_{∂x^μ}Θ, ∂x^μ, 0),
    conformal because Θ does not depend on x, then four vertical (F, G)
    data on the first field y, G^μ = A^μ + B·p^μ: F = −1, F = −y,
    G^μ = −1, G^μ = −p^μ.  A cup with a translation has α ≠ 0, unlike a
    cup of two vertical data."""
    S = canonical_structure(n, m)
    chart = S.chart
    zero, one = Coefficient.zero(chart), Coefficient.one(chart)
    y = Coefficient.coordinate(chart, phase_field_names(n, m)[0][0])
    translations = []
    for mu in range(n):
        e = MultiVector.basis_vector(chart, f"x{mu}")
        translations.append(make_conformal_data(S, -interior_product(e, S.theta), e, 0))
    fg = [
        (-one, [zero] * n, [zero] * m),
        (-y, [zero] * n, [zero] * m),
        (zero, [-one] * n, [zero] * m),
        (zero, [zero] * n, [-one] + [zero] * (m - 1)),
    ]
    return translations + [fg_conformal_data(S, n, m, F, A, B) for F, A, B in fg]
