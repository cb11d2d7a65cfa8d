"""Minimal reductions against a brute-force oracle."""

import itertools
import random
import sys

import exact_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brattice import corpus, matops
from brattice.diagram import MultiplicityMatrix, multiplicity_rank, zero_lines
from brattice.errors import LimitExceeded, RankDeficient, Singular
from brattice.reduction import (
    _augment,
    enumerate_minimal_reductions,
    first_minimal_reductions,
    is_unique_minimal,
    iter_minimal_reductions,
    minimal_reduce,
    minimal_reduce_square,
    pivot_row,
    reduction_is_valid,
)


def oracle_enumeration(mat):
    """Every row->column map that stays inside supports and covers all columns."""
    supports = [tuple(q + 1 for q in s) for s in mat.supports]
    out = []
    for combo in itertools.product(*supports):
        if len(set(combo)) == mat.ncols:
            out.append(combo)
    return out


def rand_single_surplus(rng, max_rows=5, entry_hi=3):
    while True:
        cols = rng.randint(1, max_rows - 1)
        rows = cols + 1
        m = [[rng.randint(0, entry_hi) for _ in range(cols)] for _ in range(rows)]
        mm = MultiplicityMatrix(m)
        if oracle.has_positive_rows_and_cols(mm):
            return mm


def test_pivot_row_frozen():
    assert pivot_row([[1, 0], [0, 1]]) == 2
    assert pivot_row([[0, 1], [1, 0]]) == 1
    with pytest.raises(Singular):
        pivot_row([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        pivot_row([[1, 0, 0], [0, 1, 0]])


def test_pivot_row_matches_scan():
    rng = random.Random(1312)
    hits = 0
    for _ in range(200):
        s = rng.randint(1, 4)
        rows = [[rng.randint(0, 2) for _ in range(s)] for _ in range(s)]
        expected = None
        for k in range(1, s + 1):
            if rows[k - 1][s - 1] == 0:
                continue
            minor = [r[: s - 1] for i, r in enumerate(rows, start=1) if i != k]
            from brattice import matops

            if s == 1 or matops.det(minor) != 0:
                expected = k
                break
        if expected is None:
            with pytest.raises(Singular):
                pivot_row(rows)
        else:
            assert pivot_row(rows) == expected
            hits += 1
    assert hits > 50


def test_minimal_reduce_frozen():
    out = minimal_reduce(corpus.get("twocol").matrix())
    assert out.parents == (2, 1, 1)
    assert out.branch_col == 1
    assert out.method == "tall"

    out = minimal_reduce(corpus.get("forced").matrix())
    assert out.parents == (1, 2, 2)
    assert out.branch_col == 2

    out = minimal_reduce(corpus.get("threebranch").matrix())
    assert out.parents == (2, 1, 1)
    assert out.branch_col == 1


def test_minimal_reduce_square_frozen():
    out = minimal_reduce_square(corpus.get("squareswap").matrix())
    assert out.parents == (2, 1)
    assert out.branch_col is None
    assert out.method == "square"
    with pytest.raises(RankDeficient):
        minimal_reduce_square(MultiplicityMatrix([[1, 1], [1, 1]]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: minimal_reduce(MultiplicityMatrix([[1, 0], [0, 1]])),
            "^expected one more row than columns, got 2x2$",
            id="minimal_reduce-square",
        ),
        pytest.param(
            lambda: minimal_reduce_square(MultiplicityMatrix([[1], [1]])),
            "^expected a square matrix, got 2x1$",
            id="minimal_reduce_square-oblong",
        ),
    ],
)
def test_reductions_refuse_the_wrong_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fan43_negative_control():
    mat = corpus.get("fan43").matrix()
    assert multiplicity_rank(mat) == 2
    with pytest.raises(RankDeficient):
        minimal_reduce(mat)
    assert enumerate_minimal_reductions(mat) == []


def test_reduction_is_valid():
    mat = corpus.get("threebranch").matrix()
    assert reduction_is_valid(mat, (2, 1, 1))
    assert not reduction_is_valid(mat, (1, 1, 1))  # misses column 2
    assert not reduction_is_valid(mat, (2, 1))
    assert not reduction_is_valid(mat, (2, 1, 2))  # row 3 has no edge to 2


def test_enumeration_matches_oracle():
    rng = random.Random(88172)
    for _ in range(150):
        rows = rng.randint(2, 5)
        cols = rng.randint(1, rows)
        m = [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)]
        mm = MultiplicityMatrix(m)
        got = list(enumerate_minimal_reductions(mm))
        want = oracle_enumeration(mm)
        assert got == sorted(want)
        assert got == sorted(got)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=2),
        min_size=2,
        max_size=4,
    )
)
def test_enumeration_oracle_hypothesis(rows):
    mm = MultiplicityMatrix(rows)
    assert list(enumerate_minimal_reductions(mm)) == sorted(oracle_enumeration(mm))


def test_enumeration_limit():
    wide = MultiplicityMatrix([[1, 1], [1, 1], [1, 1]])
    assert len(enumerate_minimal_reductions(wide)) == 6
    with pytest.raises(LimitExceeded):
        enumerate_minimal_reductions(wide, limit=5)
    # exactly at the cap is fine
    assert len(enumerate_minimal_reductions(wide, limit=6)) == 6


def test_minimal_reduce_lands_in_enumeration():
    rng = random.Random(424242)
    produced = 0
    for _ in range(200):
        mm = rand_single_surplus(rng)
        if multiplicity_rank(mm) < mm.ncols:
            with pytest.raises(RankDeficient):
                minimal_reduce(mm)
            continue
        out = minimal_reduce(mm)
        produced += 1
        assert reduction_is_valid(mm, out.parents)
        assert out.parents in set(oracle_enumeration(mm))
        # exactly one column is hit twice, the rest once
        counts = sorted(out.parents.count(j) for j in range(1, mm.ncols + 1))
        assert counts == [1] * (mm.ncols - 1) + [2]
        assert out.parents.count(out.branch_col) == 2
    assert produced > 100


def test_is_unique_minimal():
    assert is_unique_minimal(corpus.get("forced").matrix()) == (True, 2)
    assert is_unique_minimal(corpus.get("twocol").matrix()) == (False, None)
    propersub = corpus.get("propersub").diagram()
    assert is_unique_minimal(propersub.matrix(0)) == (True, 1)
    assert is_unique_minimal(propersub.matrix(2)) == (True, 3)


def test_unique_minimal_flag_implies_singleton_enumeration():
    rng = random.Random(9000)
    flagged = 0
    for _ in range(300):
        mm = rand_single_surplus(rng, max_rows=5, entry_hi=2)
        flag, branch = is_unique_minimal(mm)
        if not flag:
            continue
        flagged += 1
        maps = oracle_enumeration(mm)
        assert len(maps) == 1
        assert maps[0].count(branch) == 2
    assert flagged > 5


def deadend(k):
    """(k+1) x 4: k rows on columns {3, 4} and one on {1, 2}; no map exists,
    but an unpruned walk tries about 2^k partial choices."""
    return MultiplicityMatrix([[0, 0, 1, 1]] * k + [[1, 1, 0, 0]])


@st.composite
def matrices(draw, max_rows=6, max_cols=5, square=False):
    r = draw(st.integers(min_value=1, max_value=max_rows))
    c = r if square else draw(st.integers(min_value=1, max_value=max_cols))
    entry = st.integers(min_value=0, max_value=2)
    row = st.lists(entry, min_size=c, max_size=c)
    return MultiplicityMatrix(draw(st.lists(row, min_size=r, max_size=r)))


# zero row, zero column, wide, 1x1 and dead-end shapes, beside the drawn ones
EDGE_CASES = (
    [[1, 0], [0, 1], [0, 0]],
    [[1, 0], [1, 0], [1, 0]],
    [[1, 1, 1]],
    [[1]],
    [[0]],
    deadend(6).to_lists(),
)


def _with_edge_cases(test):
    for rows in EDGE_CASES:
        test = example(MultiplicityMatrix(rows))(test)
    return test


@settings(max_examples=150, deadline=None)
@_with_edge_cases
@given(matrices())
def test_enumeration_matches_unpruned_walker(mm):
    assert enumerate_minimal_reductions(mm) == oracle.enumerate_reductions(mm)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(min_value=0, max_value=6))
def test_first_maps_and_count_match_unpruned_walker(mm, keep):
    maps = oracle.enumerate_reductions(mm)
    # exactly at the cap is fine, one below it raises
    assert first_minimal_reductions(mm, keep, len(maps)) == (maps[:keep], len(maps))
    if maps:
        with pytest.raises(LimitExceeded):
            first_minimal_reductions(mm, keep, len(maps) - 1)


@settings(max_examples=150, deadline=None)
@_with_edge_cases
@given(matrices(max_rows=8))
def test_first_map_matches_lex_first_walk(mm):
    assert next(iter_minimal_reductions(mm), None) == oracle.lex_first_reduction(mm)


@settings(max_examples=150, deadline=None)
@example(MultiplicityMatrix([[1]]))
@example(MultiplicityMatrix([[1, 0], [0, 0]]))
@example(MultiplicityMatrix([[0, 1, 1], [1, 1, 0], [1, 0, 0]]))
@given(matrices(max_rows=7, square=True))
def test_minimal_reduce_square_matches_backtracker(mm):
    bijection = oracle.square_bijection(mm)
    if matops.det(mm.to_lists()) == 0:
        with pytest.raises(RankDeficient):
            minimal_reduce_square(mm)
        return
    # a nonzero determinant has a nonzero Leibniz term
    assert bijection is not None
    assert minimal_reduce_square(mm).parents == bijection


def _walk_with_opened_rows(mm):
    """The maps, the row of every node the walk opened, and the function
    that started each augmenting search: the walk's root or `advance`."""
    opened, searches = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "open_row":
            opened.append(frame.f_locals["i"])
        if event == "call" and frame.f_code is _augment.__code__:
            searches.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        maps = list(iter_minimal_reductions(mm))
    finally:
        sys.setprofile(None)
    return maps, opened, searches


@settings(max_examples=150, deadline=None)
@_with_edge_cases
@given(matrices(max_rows=7))
def test_walk_opens_no_dead_end(mm):
    # every opened node is a prefix of some map (the last row is filled in
    # without opening a node), so the delay between maps is polynomial
    maps, opened, _ = _walk_with_opened_rows(mm)
    prefixes = [{m[:i] for m in maps} for i in range(max(mm.nrows - 1, 1))]
    assert sorted(opened) == sorted(i for i, ps in enumerate(prefixes) for _ in ps)


def _hall(mm, cols, first):
    """Whether distinct rows from `first` (0-based) on meet the 1-based
    columns `cols`, one each, by trying every pick of rows."""
    return any(
        all(mm.rows[row][j - 1] for row, j in zip(pick, sorted(cols)))
        for pick in itertools.permutations(range(first, mm.nrows), len(cols))
    )


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=6, max_cols=6), st.data())
def test_augmenting_searches_match_brute_force_hall(mm, data):
    # the walk's root matches the columns one search each, and a branch
    # gives the column its row held to a row below with one more search
    r, c = mm.nrows, mm.ncols
    first = data.draw(st.integers(min_value=0, max_value=r))
    cols = data.draw(st.sets(st.integers(min_value=1, max_value=c), min_size=1))
    col_rows = mm.column_supports
    held, owner, log = [-1] * r, [-1] * c, []
    covered = all(_augment(col_rows, held, owner, log, j - 1, first) for j in sorted(cols))
    assert covered == _hall(mm, cols, first)
    if not covered:
        return
    assert sorted(q + 1 for q in held if q >= 0) == sorted(cols)
    assert all(held[i] < 0 or (i >= first and mm.rows[i][held[i]]) for i in range(r))
    assert all(held[owner[j - 1]] == j - 1 for j in cols)
    if first == r or held[first] < 0:
        return
    k, held[first] = held[first], -1
    before = list(held)
    found = _augment(col_rows, held, owner, log, k, first + 1)
    assert found == _hall(mm, cols, first + 1)
    if not found:
        assert held == before  # a failed search changes nothing
    else:
        assert sorted(q + 1 for q in held if q >= 0) == sorted(cols) and held[first] < 0


def test_deadend_family_is_polynomial():
    # the unpruned walk would try about 2^40 partial choices here
    assert enumerate_minimal_reductions(deadend(40)) == []
    assert next(iter_minimal_reductions(deadend(40)), None) is None


def test_dead_end_costs_one_root_matching():
    # columns 1 and 2 share one row: the root's second search fails, and
    # the walk opens no row
    for k in (1, 2, 5, 17, 64, 200):
        assert _walk_with_opened_rows(deadend(k)) == ([], [], ["<genexpr>"] * 2)


@pytest.mark.parametrize("name", ["gicar", "dyadic", "propersub"])
def test_first_maps_of_family_levels_match_lex_first_walk(name):
    diagram = corpus.get(name).diagram()
    for level in (0, 1, 2, 5, 16, 32, 63):
        mm = diagram.matrix(level)
        assert next(iter_minimal_reductions(mm), None) == oracle.lex_first_reduction(mm)


def test_one_augmenting_search_per_branch_on_gicar_levels():
    # the root matches each column once; below it, a branch tried at an
    # opened row costs at most one search, when tried or when replayed
    gicar = corpus.get("gicar").diagram()
    for level in (1, 2, 3, 8, 15, 31, 63):
        mm = gicar.matrix(level)
        maps, opened, searches = _walk_with_opened_rows(mm)
        assert len(maps) == mm.ncols  # one map per choice of branch parent
        assert searches.count("<genexpr>") == mm.ncols
        tried = sum(len(mm.supports[i]) for i in opened)
        assert searches.count("advance") <= tried
        assert len(searches) == mm.ncols + searches.count("advance")


def _band(rng, r):
    """r x c rows, each meeting a window of 1 to 3 columns that slides
    down the matrix; a few windows are thinned."""
    c = rng.randint(r // 2, r - 1)
    rows = []
    for i in range(r):
        lo = i * c // r
        window = range(max(lo - rng.randint(0, 1), 0), min(lo + rng.randint(1, 2), c))
        rows.append([int(q in window and rng.random() > 0.1) or int(q == lo) for q in range(c)])
    return rows


def _sparse(rng, r):
    """r x c rows, each meeting 1 or 2 random columns; c of the rows, in a
    random order, meet the columns in turn, so some map exists."""
    c = rng.randint(r // 2, r - 1)
    planted = rng.sample(range(r), c)
    rows = [[0] * c for _ in range(r)]
    for row in rows:
        for q in rng.sample(range(c), rng.randint(1, 2)):
            row[q] = 1
    for q, i in enumerate(planted):
        rows[i][q] = 1
    return rows


def test_first_maps_and_counts_of_sparse_and_band_matrices_match_unpruned_walker():
    # deeper walks than the drawn matrices: the degree bound lets several
    # rows through before the matching is needed, which then replays them
    rng = random.Random("walker-8-14")
    replays = []

    def profile(frame, event, arg):
        # a replay advances the matching past a row above the walk's row
        if event == "call" and frame.f_code.co_name == "advance":
            walk = frame.f_back.f_locals
            if frame.f_locals["a"] < walk["i"]:
                replays.append(walk["i"] - walk["synced"])

    for r in range(8, 15):
        for shape in (_band, _sparse) * 6:
            mm = MultiplicityMatrix(shape(rng, r))
            maps = oracle.enumerate_reductions(mm)
            sys.setprofile(profile)
            try:
                got = first_minimal_reductions(mm, 5, len(maps))
            finally:
                sys.setprofile(None)
            assert got == (maps[:5], len(maps))
    # some branch replayed two ancestors or more
    assert max(replays) >= 2


def test_enumeration_is_lazy():
    # about 1.3e9 maps: only a lazy walk returns the first one
    ones = MultiplicityMatrix([[1] * 6] * 12)
    first = (1,) * 7 + (2, 3, 4, 5, 6)
    assert next(iter_minimal_reductions(ones)) == first
    assert oracle.lex_first_reduction(ones) == first


def test_minimal_reduce_rejects_zero_row():
    with pytest.raises(ValueError, match="row 3 has no edge, so no reduction exists"):
        minimal_reduce(MultiplicityMatrix([[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="row 1 has no edge"):
        minimal_reduce(MultiplicityMatrix([[0, 0], [1, 0], [0, 1]]))
    # a rank-deficient matrix keeps its rank verdict
    with pytest.raises(RankDeficient):
        minimal_reduce(MultiplicityMatrix([[1, 1], [1, 1], [0, 0]]))


# --- the sparse view ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@_with_edge_cases
@given(matrices(max_rows=7, max_cols=6))
def test_sparse_view_matches_dense_scans(mm):
    supports = oracle.dense_supports(mm.rows)
    columns = oracle.dense_column_supports(mm.rows)
    assert [tuple(q + 1 for q in s) for s in mm.supports] == supports
    assert list(mm.column_supports) == columns
    assert [oracle.col_support(mm, j) for j in range(1, mm.ncols + 1)] == [
        tuple(i + 1 for i in col) for col in columns
    ]


@st.composite
def tall_rows(draw, max_cols=7):
    """(c+1) x c rows, from sparse to dense, sometimes one entry per row;
    zero rows and columns and rank deficiency all occur."""
    c = draw(st.integers(min_value=1, max_value=max_cols))
    zeros = draw(st.integers(min_value=0, max_value=5))
    entry = st.sampled_from((0,) * zeros + (1, 2, 3))
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(c + 1)]
    picks = draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=c + 1, max_size=c + 1))
    return [[draw(st.integers(min_value=1, max_value=3)) if q == p else 0 for q in range(c)] for p in picks]


def _reduce_verdict(mat):
    try:
        return minimal_reduce(mat).parents
    except RankDeficient:
        return "rank deficient"
    except ValueError as exc:
        return str(exc)


def _oracle_reduce_verdict(rows):
    if oracle.rank(rows) < len(rows[0]):
        return "rank deficient"
    zero = next((i for i, row in enumerate(rows, start=1) if not any(row)), None)
    if zero is not None:
        return f"row {zero} has no edge, so no reduction exists"
    return oracle.minimal_reduce_parents(rows)


@settings(max_examples=200, deadline=None)
@example([[1, 0], [0, 1], [0, 0]])
@example([[1, 0], [1, 0], [0, 1]])
@example(deadend(5).to_lists()[:5])
@given(tall_rows())
def test_reductions_on_fresh_and_read_views_match_dense_oracles(rows):
    mm = MultiplicityMatrix(rows)
    want = (
        _oracle_reduce_verdict(rows),
        oracle.enumerate_reductions(mm),
        oracle.unique_minimal(rows),
        oracle.zero_lines(rows),
    )

    def answers(mat):
        return _reduce_verdict(mat), list(iter_minimal_reductions(mat)), is_unique_minimal(mat), zero_lines(mat)

    # the first pass builds the view, the second reads the kept one; a
    # matrix whose columns were read first has both parts built up front
    assert answers(mm) == want
    assert answers(mm) == want
    read = MultiplicityMatrix(rows)
    assert read.column_supports is read.column_supports
    assert answers(read) == want
    # a walk on a fresh matrix with no zero row builds the view and keeps it
    fresh = MultiplicityMatrix(rows)
    list(iter_minimal_reductions(fresh))
    if all(map(any, rows)):
        assert fresh._columns is not None
        assert fresh.column_supports is fresh._columns
