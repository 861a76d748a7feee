"""Exact elimination over the Laurent ring, checked against a fraction-field
reference, a dense copy of itself and pointwise ranks at rational points.

``rref`` reads map rows; the tests write most matrices densely and key
column c of a dense row by c (``_rows``), so the dense references below
read the same matrices."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjb.coeffring import Chart, Coefficient
from gjb.dsl import parse_coefficient
from gjb.errors import DomainError, StructuralError
from gjb.linalg import exact_divide, rref

CHART = Chart(("x", "y", "z"), frozenset({"z"}))


def C(text):
    return parse_coefficient(CHART, text)


def _augmented(rows, *rhs):
    """[A | b_0 ... b_k] for rref(..., unknowns=<columns of A>)."""
    return [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]


def _rows(dense):
    """The map rows of a dense matrix: column c is key c, and a zero is no
    entry."""
    return [{c: entry for c, entry in enumerate(row) if not entry.is_zero()} for row in dense]


def _dense(vector, ncols):
    """A map vector over keys 0..ncols-1 written densely."""
    return [vector.get(c, Coefficient.zero(CHART)) for c in range(ncols)]


def _solve(dense, *rhs):
    """One elimination of [A | b_0 ... b_k] with the columns of A as its
    unknowns; b_j is key ncols + j."""
    return rref(_rows(_augmented(dense, *rhs)), CHART, unknowns=range(len(dense[0])))


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


def test_rref_rank_and_unit_pivots():
    rows = [[C("0"), C("2")], [C("3"), C("1")], [C("3"), C("3")]]
    result = rref(_rows(rows), CHART)
    assert result.rank == 2
    assert not result.generic_only
    # an available unit pivot is preferred over an earlier polynomial one
    result2 = rref(_rows([[C("x"), C("1")]]), CHART)
    assert not result2.generic_only
    assert [c for _, c in result2.pivots] == [1]
    # only polynomial entries available: the result is generic-rank only
    result3 = rref(_rows([[C("x"), C("y")]]), CHART)
    assert result3.generic_only


def test_nullspace_is_cleared_and_exact():
    rows = [[C("1"), C("x"), C("0")], [C("0"), C("0"), C("1")]]
    basis = rref(_rows(rows), CHART).kernel
    assert len(basis) == 1
    vec = basis[0]
    assert all(isinstance(entry, Coefficient) for entry in vec.values())
    _annihilates(_dense(vec, 3), rows)
    # sign convention: first nonzero entry has positive leading coefficient;
    # a kernel vector holds only its nonzero entries, in unknowns order
    assert vec == {0: C("x"), 1: C("-1")} and list(vec) == [0, 1]


def test_unknowns_order_drives_pivots_and_the_kernel_sign():
    # scanned as (1, 0), the pivot is on column 1, and the kernel vector's
    # first entry in that order, x_1, is the one made positive
    result = rref(_rows([[C("1"), C("1")]]), CHART, unknowns=(1, 0))
    assert [c for _, c in result.pivots] == [1]
    (vec,) = result.kernel
    assert vec == {1: C("1"), 0: C("-1")} and list(vec) == [1, 0]
    # sorted keys by default, so the same matrix pivots on column 0
    assert [c for _, c in rref(_rows([[C("1"), C("1")]]), CHART).pivots] == [0]


def test_an_unknown_no_row_holds_is_free():
    # key 2 is in no row: it counts in the nullity, the kernel gets e_2 in
    # its place in unknowns order, and a solve sets it to 0
    rows = _rows([[C("1"), C("x")]])
    rows[0]["b"] = C("y")
    result = rref(rows, CHART, unknowns=(2, 0, 1))
    assert result.nullity == 2 and result.rank == 1
    assert result.kernel == [{2: C("1")}, {0: C("x"), 1: C("-1")}]
    assert list(result.kernel[1]) == [0, 1]
    assert result.solution("b") == {0: C("y")}
    # with no rows at all, every unknown is free
    empty = rref([], CHART, unknowns=("u", "v"))
    assert empty.nullity == 2 and empty.kernel == [{"u": C("1")}, {"v": C("1")}]
    assert empty.solution("b") == {}


def test_rows_and_unknowns_are_checked():
    with pytest.raises(StructuralError, match="must be Coefficient"):
        rref([{0: 1}], CHART)
    with pytest.raises(StructuralError, match="twice"):
        rref([{0: C("1")}], CHART, unknowns=(0, 0))
    with pytest.raises(StructuralError, match="unknown"):
        rref([{0: C("1")}], CHART).solution(0)
    # a zero entry is no entry
    result = rref([{0: C("0"), 1: C("2")}], CHART)
    assert result.rows == [{1: C("1")}] and result.unknowns == (1,)


def test_solve_affine_consistent():
    rows = [[C("1"), C("1")], [C("1"), C("-1")]]
    sol = _solve(rows, [C("2*x"), C("0")])
    assert sol.solution(2) == {0: C("x"), 1: C("x")}
    assert sol.kernel == []


def test_solve_affine_inconsistent():
    rows = [[C("1"), C("1")], [C("2"), C("2")]]
    sol = _solve(rows, [C("1"), C("3")])
    with pytest.raises(DomainError, match="inconsistent"):
        sol.solution(2)
    assert len(sol.kernel) == 1


def test_solve_affine_underdetermined():
    sol = _solve([[C("1"), C("1"), C("0")]], [C("y")])
    x = _dense(sol.solution(3), 3)
    assert x[0] + x[1] == C("y") and x[2].is_zero()
    assert len(sol.kernel) == 2


def test_reduce_mod_span_zeroes_pivot_columns():
    basis = [[C("1"), C("0"), C("2")], [C("0"), C("1"), C("-1")]]
    span = rref(_rows(basis), CHART)
    reduced, den = span.reduce({0: C("y"), 1: C("x")})
    assert den == C("1")  # every pivot is a unit
    assert reduced == {2: C("-2*y + x")}
    assert span.contains({0: C("3"), 1: C("1"), 2: C("5")})
    assert not span.contains({2: C("1")})
    # a key the span does not hold keeps its value
    assert span.reduce({"w": C("x"), 0: C("1")}) == ({"w": C("x"), 2: C("-2")}, C("1"))


small = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60)
def test_nullspace_annihilates_random_integer_matrices(raw):
    rows = [[Coefficient.constant(CHART, v) for v in row] for row in raw]
    for vec in rref(_rows(rows), CHART, unknowns=range(3)).kernel:
        _annihilates(_dense(vec, 3), rows)


@given(
    st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(small, min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_solve_affine_solutions_check_out(raw, target):
    rows = [[Coefficient.constant(CHART, v) for v in row] for row in raw]
    rhs = [Coefficient.constant(CHART, v) for v in target]
    sol = _solve(rows, rhs)
    if rref(_rows(_augmented(rows, rhs)), CHART).rank > rref(_rows(rows), CHART).rank:  # inconsistent
        with pytest.raises(DomainError):
            sol.solution(3)
        return
    x = _dense(sol.solution(3), 3)
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


# Laurent matrices are kept sparse, as kernel and contraction matrices are;
# the dense 4x5 matrix of test_dense_laurent_kernel_stays_small, whose
# pivots are not units, clears its kernel in about 0.2 s (2-core x86-64,
# Python 3.11)
@given(st.one_of(_integer_matrices, _sparse_system().map(lambda system: system[0])))
@settings(max_examples=60, deadline=None)
def test_nullity_is_the_size_of_the_lazy_basis(raw):
    rows = [[C(text) for text in row] for row in raw]
    ncols = len(raw[0])
    sol = _solve(rows, [Coefficient.zero(CHART)] * len(rows))
    assert "kernel" not in vars(sol)  # nothing built before it is read
    assert sol.nullity == ncols - rref(_rows(rows), CHART).rank
    assert sol.nullity == len(sol.kernel)
    for vec in sol.kernel:
        _annihilates(_dense(vec, ncols), rows)


def test_dense_laurent_kernel_stays_small():
    # elimination cross-multiplies by two non-unit pivots; the kernel
    # entries have 45-80 terms, and 251 is the largest that elimination
    # over the fraction field produced
    raw = [
        ["-2", "z^-1", "x^2 - 1", "x + 1", "-2"],
        ["0", "0", "x + 1", "2*x*z^-1 + y", "y - x"],
        ["x + 1", "1/3", "y - x", "0", "x"],
        ["z", "y - x", "x^2 - 1", "0", "0"],
    ]
    rows = [[C(text) for text in row] for row in raw]
    sol = rref(_rows(rows), CHART)
    assert sol.generic_only
    assert sol.nullity == 1
    (vec,) = sol.kernel
    _annihilates(_dense(vec, 5), rows)
    assert max(len(entry.terms) for entry in vec.values()) <= 251


@given(_sparse_system())
@settings(max_examples=60, deadline=None)
def test_laurent_solutions_check_out(system):
    # b = A x0 is consistent; a solution leaves the ring only through a
    # non-unit pivot
    raw, raw_vector = system
    rows = [[C(text) for text in row] for row in raw]
    x0 = [C(text) for text in raw_vector]
    rhs = [sum((a * v for a, v in zip(row, x0)), Coefficient.zero(CHART)) for row in rows]
    ncols = len(raw[0])
    assert rref(_rows(_augmented(rows, rhs)), CHART).rank == rref(_rows(rows), CHART).rank  # consistent
    sol = _solve(rows, rhs)
    try:
        x = _dense(sol.solution(ncols), ncols)
    except DomainError:
        assert sol.generic_only
        return
    for row, b in zip(rows, rhs):
        assert sum((a * v for a, v in zip(row, x)), Coefficient.zero(CHART)) == b


class _Ratio:
    """num/den over the ring, the fraction-field reference: a denominator
    that divides its numerator is cancelled, nothing else is."""

    def __init__(self, num, den=None):
        one = Coefficient.one(CHART)
        den = one if den is None else den
        if num.is_zero():
            den = one
        else:
            try:
                num, den = exact_divide(num, den), one
            except DomainError:
                pass
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def is_unit(self):
        """Is the value a unit of the ring?"""
        try:
            return exact_divide(self.num, self.den).is_unit()
        except DomainError:
            return False

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + _Ratio(-other.num, other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)

    def inverse(self):
        return _Ratio(self.den, self.num)

    def __eq__(self, other):
        return self.num * other.den == other.num * self.den


def _run_passes(ncols, nrows, pivot_on):
    """The pivot policy of ``linalg._eliminate``: honest-unit pivots first,
    columns left to right; ``pivot_on(row, col, honest_only)`` returns
    whether (row, col) may be a pivot, and clears it if so."""
    pivots, used_rows, used_cols = [], set(), set()
    generic = False

    def run_pass(honest_only):
        nonlocal generic
        progressed = False
        for col in range(ncols):
            if col in used_cols:
                continue
            row = next(
                (r for r in range(nrows) if r not in used_rows and pivot_on(r, col, honest_only)), None
            )
            if row is None:
                continue
            generic = generic or not honest_only
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
    return sorted(pivots, key=lambda rc: rc[1]), generic


def _dense_rref(rows):
    """Fraction-field reference: every pivot scaled to 1 and every row
    operation applied to every entry, zeros included."""
    mat = [[_Ratio(entry) for entry in row] for row in rows]

    def pivot_on(row, col, honest_only):
        entry = mat[row][col]
        if entry.is_zero() or (honest_only and not entry.is_unit()):
            return False
        inv = entry.inverse()
        mat[row] = [e * inv for e in mat[row]]
        for r in range(len(mat)):
            if r != row and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        return True

    pivots, generic = _run_passes(len(mat[0]), len(mat), pivot_on)
    return mat, pivots, generic


def _dense_ring_rref(rows):
    """Ring reference: the elimination of ``linalg._eliminate`` (unit
    pivots scaled to 1, non-unit pivots cross-multiplied) with every row
    operation applied to every entry, zeros included."""
    mat = [list(row) for row in rows]

    def pivot_on(row, col, honest_only):
        entry = mat[row][col]
        if entry.is_zero() or (honest_only and not entry.is_unit()):
            return False
        if entry.is_unit():
            inv = entry.unit_inverse()
            mat[row] = [e * inv for e in mat[row]]
        for r in range(len(mat)):
            if r != row and not mat[r][col].is_zero():
                factor = mat[r][col]
                if entry.is_unit():
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
                else:
                    mat[r] = [entry * a - factor * b for a, b in zip(mat[r], mat[row])]
        return True

    pivots, generic = _run_passes(len(mat[0]), len(mat), pivot_on)
    return mat, pivots, generic


def _dense_reduce(vector, rows):
    """Fraction-field reference reduction: one fresh elimination per call,
    every entry updated."""
    vec = [_Ratio(entry) for entry in vector]
    mat, pivots, _ = _dense_rref(rows)
    for r, c in pivots:
        factor = vec[c]
        if not factor.is_zero():
            vec = [a - factor * b for a, b in zip(vec, mat[r])]
    return vec


def _signed_content(c):
    """c's rational content, signed like its leading term in lex order,
    and its componentwise minimal exponent vector."""
    terms = c.exponent_terms()
    values = [Fraction(v) for v in terms.values()]
    content = Fraction(math.gcd(*(v.numerator for v in values)), math.lcm(*(v.denominator for v in values)))
    if terms[max(terms)] < 0:
        content = -content
    return content, tuple(min(ks) for ks in zip(*terms))


def _dense_kernel(mat, pivots, ncols):
    """Dense reference kernel of a reduced ring matrix, one vector per
    free column left to right: x_col = 1 and x_c = -mat[r][col] /
    mat[r][c] at each pivot (r, c), multiplied through by a common
    multiple of the denominators that do not divide, stripped of common
    content, and signed so that the first nonzero entry is positive."""

    def divides(d, f):
        try:
            exact_divide(f, d)
        except DomainError:
            return False
        return True

    pivot_cols = {c for _, c in pivots}
    basis = []
    for col in range(ncols):
        if col in pivot_cols:
            continue
        ratios = [(c, -mat[r][col], mat[r][c]) for r, c in pivots if not mat[r][col].is_zero()]
        dens = [p for _, a, p in ratios if not p.is_unit() and not divides(p, a)]
        multiplier = Coefficient.one(CHART)
        for d in sorted(dens, key=Coefficient.max_degree, reverse=True):
            if not divides(d, multiplier):
                multiplier = multiplier * d
        cleared = [Coefficient.zero(CHART)] * ncols
        cleared[col] = multiplier
        for c, a, p in ratios:
            cleared[c] = exact_divide(a * multiplier, p)
        contents = [_signed_content(c) for c in cleared if not c.is_zero()]
        rational = contents[0][0]
        for c, _ in contents[1:]:
            rational = Fraction(
                math.gcd(abs(rational.numerator), abs(c.numerator)),
                math.lcm(rational.denominator, c.denominator),
            )
        mono = tuple(min(ms) for ms in zip(*(m for _, m in contents)))
        divisor = Coefficient(CHART, {mono: abs(rational)})
        vec = [exact_divide(c, divisor) for c in cleared]
        basis.append([-c for c in vec] if contents[0][0] < 0 else vec)
    return basis


def _same_values(entries, den, ratios):
    """entries / den equals ratios entry by entry (cross-multiplied)."""
    return all(a * r.den == r.num * den for a, r in zip(entries, ratios))


@given(_sparse_system())
@settings(max_examples=80, deadline=None)
def test_zero_skipping_elimination_matches_the_dense_reference(system):
    raw, raw_vector = system
    rows = [[C(text) for text in row] for row in raw]
    ncols = len(raw[0])
    mat, pivots, generic = _dense_rref(rows)
    ring_mat, ring_pivots, ring_generic = _dense_ring_rref(rows)
    result = rref(_rows(rows), CHART, unknowns=range(ncols))
    assert result.pivots == pivots == ring_pivots
    assert result.generic_only == generic == ring_generic
    # the map rows hold exactly the nonzero entries of the dense ones
    assert result.rows == _rows(ring_mat)
    # a pivot row stands for itself divided by its pivot entry; the others are zero
    pivot_of = dict(pivots)
    for r, (got, want) in enumerate(zip(result.rows, mat)):
        den = got[pivot_of[r]] if r in pivot_of else Coefficient.one(CHART)
        assert _same_values(_dense(got, ncols), den, want)
    # kernel vectors hold the dense reference's nonzero entries, in its order
    assert result.kernel == _rows(_dense_kernel(ring_mat, pivots, ncols))
    assert [list(vec) for vec in result.kernel] == [list(vec) for vec in _rows(_dense_kernel(ring_mat, pivots, ncols))]
    vector = [C(text) for text in raw_vector]
    (sparse_vector,) = _rows([vector])
    reduced, den = result.reduce(sparse_vector)
    assert not any(f.is_zero() for f in reduced.values())
    assert _same_values(_dense(reduced, ncols), den, _dense_reduce(vector, rows))
    assert result.contains(sparse_vector) == (not reduced)
    # a trailing right-hand side is carried, never pivoted on, and changes
    # nothing in the leading columns
    column = [vector[i % ncols] for i in range(len(rows))]
    carried = _solve(rows, column)
    assert carried.pivots == result.pivots and carried.generic_only == result.generic_only
    assert [{k: v for k, v in row.items() if k != ncols} for row in carried.rows] == result.rows
    assert carried.nullity == result.nullity


# pivots of 1 and -1, a unit off the constants (z is nonvanishing), other
# unit constants, and non-units, which force cross-multiplied pivots
PIVOT_ENTRIES = ["0", "0", "0", "1", "1", "-1", "2", "z", "-z^-1", "x", "x + 1"]


def test_a_pivot_of_one_is_not_rescaled(rng, monkeypatch):
    """``_eliminate`` multiplies a unit pivot row by the pivot's inverse
    except when the pivot is 1; its rows, pivots and ``generic_only``
    match ``_dense_ring_rref``, which rescales every unit pivot."""
    one = Coefficient.one(CHART)
    inverted = []
    unit_inverse = Coefficient.unit_inverse
    seen = {"one": 0, "other unit": 0, "generic": 0}
    for _ in range(150):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[C(rng.choice(PIVOT_ENTRIES)) for _ in range(ncols)] for _ in range(nrows)]
        mat, pivots, generic = _dense_ring_rref(rows)
        with monkeypatch.context() as patched:
            patched.setattr(Coefficient, "unit_inverse", lambda c: inverted.append(c) or unit_inverse(c))
            result = rref(_rows(rows), CHART, unknowns=range(ncols))
        assert result.pivots == pivots
        assert result.generic_only == generic
        assert result.rows == _rows(mat)
        assert one not in inverted
        if generic:
            seen["generic"] += 1
        else:
            # every pivot is a unit and ends as 1; only those that were not 1 are inverted
            assert all(result.rows[r][c] == one for r, c in pivots)
            seen["one"] += len(pivots) - len(inverted)
            seen["other unit"] += len(inverted)
        inverted.clear()
    assert min(seen.values()) >= 5, seen


def _rational_rank(matrix):
    """Rank over the rationals by plain Fraction elimination."""
    mat, rank = [list(row) for row in matrix], 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / mat[rank][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_points = st.tuples(_rationals, _rationals, _rationals.filter(lambda v: v != 0))


@given(_sparse_system(), st.lists(_points, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rank_matches_the_pointwise_rank(system, points):
    # an honest elimination holds at every chart point; a generic one
    # bounds the rank at each point from above
    raw, raw_vector = system
    rows = [[C(text) for text in row] for row in raw]
    ncols = len(raw[0])
    result = rref(_rows(rows), CHART, unknowns=range(ncols))
    # two right-hand sides A·x, consistent by construction, in one elimination
    xs = [[C(text) for text in raw_vector], [C(text) for text in reversed(raw_vector)]]
    rhs = [[sum((a * v for a, v in zip(row, x)), Coefficient.zero(CHART)) for row in rows] for x in xs]
    solved = _solve(rows, *rhs)
    solutions = [] if result.generic_only else [_dense(solved.solution(ncols + j), ncols) for j in range(len(rhs))]
    for x, y, z in points:
        point = {"x": x, "y": y, "z": z}

        def at(vector):
            return [entry.evaluate(point) for entry in vector]

        def apply(matrix, vector):
            return [sum(a * v for a, v in zip(row, vector)) for row in matrix]

        matrix = [at(row) for row in rows]
        rank = _rational_rank(matrix)
        if result.generic_only:
            assert rank <= result.rank
            continue
        assert rank == result.rank
        assert result.nullity == solved.nullity == ncols - rank
        kernel = [at(_dense(vec, ncols)) for vec in solved.kernel]
        for vec in kernel:
            assert not any(apply(matrix, vec))
        if kernel:
            assert _rational_rank(kernel) == len(kernel)
        for solution, b in zip(solutions, rhs):
            assert apply(matrix, at(solution)) == at(b)


def test_cleared_kernel_keeps_no_common_factor():
    # pivots x + 1 and (x + 1)(y + 1) come before the free column, so the
    # kernel vector has denominators x + 1 and (x + 1)(y + 1); their
    # product as the multiplier would leave x + 1 in every entry
    rows = _rows([[C("x + 1"), C("0"), C("y")], [C("0"), C("(x + 1)*(y + 1)"), C("y")]])
    assert rref(rows, CHART).generic_only
    assert rref(rows, CHART).kernel == [{0: C("y^2 + y"), 1: C("y"), 2: C("-x*y - x - y - 1")}]
