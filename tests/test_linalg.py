"""Exact elimination over the scalar fraction field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb import linalg
from gjb.coeffring import Chart, Coefficient, parse_coefficient
from gjb.errors import DomainError, StructuralError
from gjb.linalg import (
    Frac,
    exact_divide,
    is_in_span,
    nullspace,
    reduce_mod_span,
    rref,
    solve_affine,
)

CHART = Chart(("x", "y", "z"), frozenset({"z"}))


def C(text):
    return parse_coefficient(CHART, text)


def test_exact_divide_polynomials():
    assert exact_divide(C("x^2 - y^2"), C("x - y")) == C("x + y")
    assert exact_divide(C("x^2 + 2*x*y + y^2"), C("x + y")) == C("x + y")
    with pytest.raises(DomainError):
        exact_divide(C("x^2 + 1"), C("x + y"))


def test_exact_divide_laurent():
    assert exact_divide(C("z^-1"), C("z^-2")) == C("z")
    assert exact_divide(C("x*z^-1 + 1"), C("z^-1")) == C("x + z")
    with pytest.raises(DomainError):
        exact_divide(C("1"), C("x"))  # would need x^-1, x is not flagged


def test_frac_normalization_cancels():
    f = Frac(C("x^2 - 1"), C("x - 1"))
    assert f.num == C("x + 1") and f.den == C("1")
    g = Frac(C("2*x"), C("4"))
    assert g.num == C("1/2*x") and g.den == C("1")


def test_frac_arithmetic():
    a = Frac(C("1"), C("x + 1"))
    b = Frac(C("1"), C("x - 1"))
    s = a + b
    assert s == Frac(C("2*x"), C("x^2 - 1"))
    assert (a * b).den == C("x^2 - 1")
    assert a - a == Frac(Coefficient.zero(CHART))
    assert (a / b) == Frac(C("x - 1"), C("x + 1"))


def test_equal_fracs_are_not_hashable():
    # normalization cancels no common factor that does not divide, so
    # equal values can keep different parts and no hash of them is sound
    a = Frac(C("x*y + x + y + 1"), C("x*z + x + z + 1"))
    b = Frac(C("y + 1"), C("z + 1"))
    assert a == b
    assert (a.num, a.den) != (b.num, b.den)
    with pytest.raises(TypeError):
        {a, b}


def test_rref_rank_and_unit_pivots():
    rows = [[C("0"), C("2")], [C("3"), C("1")], [C("3"), C("3")]]
    result = rref(rows, CHART)
    assert result.rank == 2
    assert not result.generic_only
    # an available unit pivot is preferred over an earlier polynomial one
    result2 = rref([[C("x"), C("1")]], CHART)
    assert not result2.generic_only
    assert result2.pivot_columns == [1]
    # only polynomial entries available: the result is generic-rank only
    result3 = rref([[C("x"), C("y")]], CHART)
    assert result3.generic_only


def test_nullspace_is_cleared_and_exact():
    rows = [[C("1"), C("x"), C("0")], [C("0"), C("0"), C("1")]]
    basis = nullspace(rows, CHART)
    assert len(basis) == 1
    vec = basis[0]
    assert all(isinstance(entry, Coefficient) for entry in vec)
    for row in rows:
        acc = Coefficient.zero(CHART)
        for a, v in zip(row, vec):
            acc = acc + a * v
        assert acc.is_zero()
    # sign convention: first nonzero entry has positive leading coefficient
    assert vec == [C("x"), C("-1"), C("0")]


def test_solve_affine_consistent():
    rows = [[C("1"), C("1")], [C("1"), C("-1")]]
    sol = solve_affine(rows, [C("2*x"), C("0")], CHART)
    assert sol.particular is not None
    assert sol.coefficient_solution() == [C("x"), C("x")]
    assert sol.homogeneous == []


def test_solve_affine_inconsistent():
    rows = [[C("1"), C("1")], [C("2"), C("2")]]
    sol = solve_affine(rows, [C("1"), C("3")], CHART)
    assert sol.particular is None
    assert len(sol.homogeneous) == 1


def test_solve_affine_underdetermined():
    sol = solve_affine([[C("1"), C("1"), C("0")]], [C("y")], CHART)
    x = sol.coefficient_solution()
    assert x[0] + x[1] == C("y") and x[2].is_zero()
    assert len(sol.homogeneous) == 2


def test_reduce_mod_span_zeroes_pivot_columns():
    basis = [[C("1"), C("0"), C("2")], [C("0"), C("1"), C("-1")]]
    reduced = reduce_mod_span([C("y"), C("x"), C("0")], basis, CHART)
    assert reduced[0].is_zero() and reduced[1].is_zero()
    assert reduced[2] == Frac(C("-2*y + x"))
    assert is_in_span([C("3"), C("1"), C("5")], basis, CHART)
    assert not is_in_span([C("0"), C("0"), C("1")], basis, CHART)


small = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60)
def test_nullspace_annihilates_random_integer_matrices(raw):
    rows = [[Coefficient.constant(CHART, v) for v in row] for row in raw]
    for vec in nullspace(rows, CHART):
        for row in rows:
            acc = Coefficient.zero(CHART)
            for a, v in zip(row, vec):
                acc = acc + a * v
            assert acc.is_zero()


@given(
    st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(small, min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_solve_affine_solutions_check_out(raw, target):
    rows = [[Coefficient.constant(CHART, v) for v in row] for row in raw]
    rhs = [Coefficient.constant(CHART, v) for v in target]
    sol = solve_affine(rows, rhs, CHART)
    if sol.particular is None:
        return
    x = [entry.to_coefficient() for entry in sol.particular]
    for row, b in zip(rows, rhs):
        acc = Coefficient.zero(CHART)
        for a, v in zip(row, x):
            acc = acc + a * v
        assert acc == b


# Laurent entries: z is nonvanishing on CHART, x and y are not
LAURENT = ["1", "-2", "1/3", "x", "x + 1", "y - x", "z", "z^-1", "2*x*z^-1 + y", "x^2 - 1"]


@st.composite
def _sparse_system(draw):
    """A matrix with at least half its entries zero, and a vector."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    live = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells) // 2))
    raw = [["0"] * ncols for _ in range(nrows)]
    for r, c in live:
        raw[r][c] = draw(st.sampled_from(LAURENT))
    vector = draw(st.lists(st.sampled_from(["0"] + LAURENT), min_size=ncols, max_size=ncols))
    return raw, vector


def _annihilates(vec, rows):
    for row in rows:
        acc = Coefficient.zero(CHART)
        for a, v in zip(row, vec):
            acc = acc + a * v
        assert acc.is_zero()


_integer_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(st.sampled_from([str(v) for v in range(-3, 4)]),
                                    min_size=ncols, max_size=ncols), min_size=1, max_size=4)
)


# Laurent matrices are kept sparse, as kernel and contraction matrices are:
# a dense 4x5 one with non-unit pivots takes seconds to clear denominators
@given(st.one_of(_integer_matrices, _sparse_system().map(lambda system: system[0])))
@settings(max_examples=60, deadline=None)
def test_nullity_is_the_size_of_the_lazy_basis(raw):
    rows = [[C(text) for text in row] for row in raw]
    sol = solve_affine(rows, [Coefficient.zero(CHART)] * len(rows), CHART)
    assert "homogeneous" not in vars(sol)  # nothing built before it is read
    assert sol.nullity == len(raw[0]) - rref(rows, CHART).rank
    assert sol.nullity == len(sol.homogeneous)
    for vec in sol.homogeneous:
        _annihilates(vec, rows)


def _dense_rref(rows):
    """Reference elimination: the same pivot policy as ``linalg._eliminate``
    with every row operation applied to every entry, zeros included."""
    mat = [[Frac(entry) for entry in row] for row in rows]
    ncols = len(mat[0])
    pivots, used_rows, used_cols = [], set(), set()
    generic = False

    def run_pass(honest_only):
        nonlocal generic
        progressed = False
        for col in range(ncols):
            if col in used_cols:
                continue
            candidates = [r for r in range(len(mat)) if r not in used_rows and not mat[r][col].is_zero()]
            if honest_only:
                candidates = [r for r in candidates if mat[r][col].honest_unit()]
            if not candidates:
                continue
            row = candidates[0]
            generic = generic or not honest_only
            inv = mat[row][col].inverse()
            mat[row] = [entry * inv for entry in mat[row]]
            for r in range(len(mat)):
                if r != row and not mat[r][col].is_zero():
                    factor = mat[r][col]
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
            used_rows.add(row)
            used_cols.add(col)
            pivots.append((row, col))
            progressed = True
        return progressed

    while run_pass(True):
        pass
    while run_pass(False):
        while run_pass(True):
            pass
    return mat, sorted(pivots, key=lambda rc: rc[1]), generic


def _dense_reduce(vector, rows):
    """Reference reduction: one fresh elimination per call, every entry
    updated."""
    vec = [Frac(entry) for entry in vector]
    mat, pivots, _ = _dense_rref(rows)
    for r, c in pivots:
        factor = vec[c]
        if not factor.is_zero():
            vec = [a - factor * b for a, b in zip(vec, mat[r])]
    return vec


def _same_fracs(a, b):
    # equal values and equal parts: the parts decide cleared kernel vectors
    return a == b and [(f.num, f.den) for f in a] == [(f.num, f.den) for f in b]


@given(_sparse_system())
@settings(max_examples=80, deadline=None)
def test_zero_skipping_elimination_matches_the_dense_reference(system):
    raw, raw_vector = system
    rows = [[C(text) for text in row] for row in raw]
    mat, pivots, generic = _dense_rref(rows)
    result = rref(rows, CHART)
    assert result.pivots == pivots
    assert result.generic_only == generic
    for got, want in zip(result.rows, mat):
        assert _same_fracs(got, want)
    ncols = len(raw[0])
    assert nullspace(rows, CHART) == linalg._kernel_basis(mat, pivots, ncols, CHART)
    vector = [C(text) for text in raw_vector]
    reduced = result.reduce(vector)
    assert _same_fracs(reduced, _dense_reduce(vector, rows))
    assert _same_fracs(reduced, reduce_mod_span(vector, rows, CHART))
    assert is_in_span(vector, rows, CHART) == all(f.is_zero() for f in reduced)


def test_reduce_rejects_a_vector_of_the_wrong_length():
    span = rref([[C("1"), C("x")]], CHART)
    with pytest.raises(StructuralError):
        span.reduce([C("1")])


def test_cleared_kernel_keeps_no_common_factor():
    # pivots x + 1 and (x + 1)(y + 1) come before the free column, so the
    # kernel vector has denominators x + 1 and (x + 1)(y + 1); their
    # product as the multiplier would leave x + 1 in every entry
    rows = [[C("x + 1"), C("0"), C("y")], [C("0"), C("(x + 1)*(y + 1)"), C("y")]]
    assert rref(rows, CHART).generic_only
    assert nullspace(rows, CHART) == [[C("y^2 + y"), C("y"), C("-x*y - x - y - 1")]]
