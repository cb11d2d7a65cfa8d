"""The fraction-free elimination kernel against the slow Fraction oracle."""

from fractions import Fraction

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import corpus, matops
from brattice.errors import RankDeficient, Singular
from brattice.pathspace import build_minimal_diagram
from brattice.reduction import minimal_reduce, pivot_row

INTS = st.integers(min_value=-3, max_value=3)
FRACS = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3))


@st.composite
def matrices(draw, rows=None, cols=None, fractions=True):
    """Small matrices with negative entries, often rank-deficient: a row or
    a column may be a multiple of another."""
    r = draw(st.integers(1, 6)) if rows is None else rows
    c = draw(st.integers(1, 6)) if cols is None else cols
    entry = st.one_of(INTS, FRACS) if fractions and draw(st.booleans()) else INTS
    m = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if r > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(r)))[:2]
        k = draw(INTS)
        m[a] = [k * x for x in m[b]]
    if c > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(c)))[:2]
        k = draw(INTS)
        for row in m:
            row[a] = k * row[b]
    return m


@st.composite
def squares(draw, fractions=True):
    n = draw(st.integers(1, 6))
    return draw(matrices(rows=n, cols=n, fractions=fractions))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_oracle(m):
    assert matops.rank(m) == oracle.rank(m)


@settings(max_examples=300, deadline=None)
@given(squares())
def test_det_matches_oracle(m):
    got = matops.det(m)
    assert isinstance(got, Fraction)
    assert got == oracle.det(m)


@settings(max_examples=300, deadline=None)
@given(squares())
def test_inverse_matches_oracle(m):
    if oracle.det(m) == 0:
        with pytest.raises(Singular):
            matops.inverse(m)
    else:
        assert matops.inverse(m) == oracle.inverse(m)
        nums, d = matops.int_inverse(m)
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in nums for x in row)
        assert [[Fraction(x, d) for x in row] for row in nums] == oracle.inverse(m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_independent_rows_match_greedy_scan(data):
    m = data.draw(matrices())
    order = data.draw(st.permutations(range(len(m))))
    assert matops.independent_rows(m, order) == oracle.independent_rows(m, order)


def test_independent_rows_default_order_and_full_rank_stop():
    m = [[1, 0], [2, 0], [0, 1], [1, 1]]
    assert matops.independent_rows(m) == [0, 2]
    assert matops.independent_rows(m, order=[3, 2, 1, 0]) == [3, 2]
    assert matops.independent_rows([[0, 0], [0, 0]]) == []


@settings(max_examples=300, deadline=None)
@given(squares())
def test_pivot_row_matches_minors_scan(b):
    want = oracle.pivot_row(b)
    if want is None:
        with pytest.raises(Singular):
            pivot_row(b)
    else:
        assert pivot_row(b) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_left_null_vector(data):
    r = data.draw(st.integers(1, 6))
    m = data.draw(matrices(rows=r, cols=r - 1)) if r > 1 else [[]]
    if r > 1 and oracle.rank(m) < r - 1:
        with pytest.raises(Singular):
            matops.left_null_vector(m)
        return
    y = matops.left_null_vector(m)
    assert any(y)
    assert all(isinstance(x, int) for x in y)
    assert all(sum(y[i] * m[i][j] for i in range(r)) == 0 for j in range(r - 1))


def test_one_by_one_and_single_row_cases():
    assert matops.rank([[0]]) == 0
    assert matops.rank([[Fraction(1, 3)]]) == 1
    assert matops.det([[Fraction(-2, 3)]]) == Fraction(-2, 3)
    assert matops.inverse([[Fraction(-2, 3)]]) == [[Fraction(-3, 2)]]
    with pytest.raises(Singular):
        matops.inverse([[0]])
    # s == 1: the empty block is invertible, so only the entry itself counts
    assert pivot_row([[5]]) == 1
    assert pivot_row([[Fraction(1, 2)]]) == 1
    with pytest.raises(Singular):
        pivot_row([[0]])


def test_sixteen_by_sixteen_inverse_matches_oracle():
    # a lower 0/1 ladder times an upper triangle with 2 on the diagonal
    n = 16
    lower = [[int(j <= i) for j in range(n)] for i in range(n)]
    upper = [[2 if i == j else (7 * i + 3 * j) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]
    u = matops.mat_mul(lower, upper)
    assert matops.det(u) == oracle.det(u) == 2**n
    assert matops.inverse(u) == oracle.inverse(u)


@st.composite
def tall_matrices(draw):
    """(c+1) x c nonnegative matrices up to c = 14: dense 0..3 entries, a
    band around the gicar diagonal, or one entry per row plus a few more,
    which forces the assignment part of the way through the reduction."""
    c = draw(st.integers(1, 14), label="c")
    shape = draw(st.sampled_from(["dense", "banded", "near_monomial"]), label="shape")
    entry = st.integers(0, 3)
    if shape == "dense":
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=c + 1, max_size=c + 1))
    if shape == "banded":
        below = draw(st.integers(0, 2), label="below")
        above = draw(st.integers(0, 1), label="above")
        return [
            [draw(entry) if -above <= i - j <= below else 0 for j in range(c)]
            for i in range(c + 1)
        ]
    rows = [[0] * c for _ in range(c + 1)]
    for i, j in enumerate(draw(st.lists(st.integers(0, c - 1), min_size=c + 1, max_size=c + 1))):
        rows[i][j] = draw(st.integers(1, 3))
    extra = st.tuples(st.integers(0, c), st.integers(0, c - 1), st.integers(1, 3))
    for i, j, x in draw(st.lists(extra, max_size=3), label="extra"):
        rows[i][j] = x
    return rows


@settings(max_examples=300, deadline=None)
@given(tall_matrices())
def test_minimal_reduce_matches_rescanning_reduction(rows):
    c = len(rows[0])
    if oracle.rank(rows) < c:
        with pytest.raises(RankDeficient):
            minimal_reduce(rows)
    elif not all(any(row) for row in rows):
        with pytest.raises(ValueError, match="has no edge"):
            minimal_reduce(rows)
    else:
        assert minimal_reduce(rows).parents == oracle.minimal_reduce_parents(rows)


@pytest.mark.parametrize("name", ["gicar", "propersub", "dyadic"])
def test_theorem_tree_levels_match_rescanning_reduction(name):
    d = corpus.get(name).diagram()
    tree = build_minimal_diagram(d, "theorem").ensure_depth(40)
    for level in range(40):
        mat = d.matrix(level)
        assert mat.nrows == mat.ncols + 1
        assert tree.parents_at(level + 1) == oracle.minimal_reduce_parents(mat.to_lists())


def test_rank_deficiency_outranks_a_zero_row():
    with pytest.raises(RankDeficient):
        minimal_reduce([[1, 0], [0, 0], [2, 0]])
    with pytest.raises(ValueError, match="row 2 has no edge"):
        minimal_reduce([[1, 0], [0, 0], [0, 1]])
