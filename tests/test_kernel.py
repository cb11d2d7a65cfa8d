"""The fraction-free elimination kernel against the slow Fraction oracle."""

import random
from fractions import Fraction
from pathlib import Path

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import corpus, matops, reduction
from brattice.diagram import MultiplicityMatrix
from brattice.errors import RankDeficient, Singular
from brattice.pathspace import build_minimal_diagram, format_tree_dump
from brattice.reduction import _pivot, _triangular_matching, minimal_reduce, pivot_row

DATA = Path(__file__).parent / "data"
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_left_null_vector_is_the_signed_cofactor_vector(data):
    r = data.draw(st.integers(1, 7))
    m = data.draw(matrices(rows=r, cols=r - 1, fractions=False)) if r > 1 else [[]]
    v = data.draw(st.lists(INTS, min_size=r, max_size=r))
    if r > 1 and oracle.rank(m) < r - 1:
        return
    z = matops.left_null_vector(m)
    assert z == oracle.signed_minors(m)
    # Laplace expansion along the new column
    assert sum(a * b for a, b in zip(z, v)) == oracle.det([row + [x] for row, x in zip(m, v)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_resumed_elimination_matches_a_fresh_one(data):
    # eliminate, delete a row and maybe a column, and resume from the first
    # pivot either held; the first pivot's row or column restarts from 0
    cut = data.draw(st.booleans(), label="cut a column")
    n = data.draw(st.integers(2 + cut, 7), label="n")  # a row is left
    m = data.draw(matrices(rows=n - cut, cols=n, fractions=False))
    r = len(m)
    work, tags = [list(row) for row in m], list(range(r))
    cols = matops._eliminate(work, tags=tags)[0]
    x = data.draw(st.sampled_from([tags[0], *range(r)]), label="row")
    d = data.draw(st.sampled_from([*cols[:1], *range(n)]), label="column") if cut else None
    k = min(tags.index(x), len(cols))
    if d in cols:
        k = min(k, cols.index(d))
    keep = [j for j in range(n) if j != d]

    def sub(row):
        return [row[j] for j in keep]

    order = tags[:k] + [i for i in tags[k:] if i != x]
    # the same rows, eliminated from scratch in the order the prefix left them
    fresh, fresh_tags = [sub(m[i]) for i in order], list(order)
    resumed = [sub(row) for row in work[:k]] + [sub(m[i]) for i in order[k:]]
    got = matops._eliminate(resumed, done=k, tags=order)
    assert matops._eliminate(fresh, tags=fresh_tags) == got
    assert resumed == fresh and order == fresh_tags
    reduced = [sub(m[i]) for i in range(r) if i != x]
    assert len(got[0]) == oracle.rank(reduced)
    if len(got[0]) == r - 1 == len(keep) - 1:
        cols, sign, last = got
        y = matops._cofactors(resumed, cols, len(keep), sign * last)
        z = matops._null_vector([list(row) for row in reduced], len(keep))
        assert y in (z, [-v for v in z])


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


@st.composite
def banded(draw):
    """Integer matrices up to 6 x 8 whose rows have zero runs at both ends:
    all-zero rows, full rows and 1 x 1 matrices among them."""
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 8))
    rows = []
    for _ in range(r):
        lo = draw(st.integers(0, c))
        hi = draw(st.integers(lo, c))
        inner = draw(st.lists(st.integers(-9, 9), min_size=hi - lo, max_size=hi - lo))
        rows.append([0] * lo + inner + [0] * (c - hi))
    return rows


@settings(max_examples=300, deadline=None)
@given(banded(), st.data())
def test_band_product_matches_dense_product(m, data):
    v = data.draw(st.lists(st.integers(-(10**30), 10**30), min_size=len(m[0]), max_size=len(m[0])))
    c, rows = matops.band_rows(m)
    assert c == len(m[0])
    for row, (lo, entries) in zip(m, rows):
        # the band keeps exactly the first through the last nonzero entry
        if entries:
            assert entries[0] and entries[-1]
        assert [0] * lo + list(entries) + [0] * (c - lo - len(entries)) == row
    assert matops.band_vec((c, rows), v) == matops.mat_vec(m, v)


def test_band_product_edge_cases():
    for m, v, want in (
        ([[0]], [7], [0]),
        ([[5]], [7], [35]),
        ([[0, 0, 0], [1, 2, 3], [0, 4, 0]], [1, 1, 2], [0, 9, 4]),
    ):
        assert matops.band_vec(matops.band_rows(m), v) == want == matops.mat_vec(m, v)
    band = matops.band_rows([[0, 1], [0, 0]])
    assert band == (2, ((1, (1,)), (0, ())))
    for short in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="shape mismatch: 2x2 times vector"):
            matops.band_vec(band, short)


def test_sixteen_by_sixteen_inverse_matches_oracle():
    # a lower 0/1 ladder times an upper triangle with 2 on the diagonal
    n = 16
    lower = [[int(j <= i) for j in range(n)] for i in range(n)]
    upper = [[2 if i == j else (7 * i + 3 * j) % 5 - 2 if j > i else 0 for j in range(n)] for i in range(n)]
    u = matops.mat_mul(lower, upper)
    assert matops.det(u) == oracle.det(u) == 2**n
    assert matops.inverse(u) == oracle.inverse(u)


def shuffled_ladder(rng, c):
    """A (c+1) x c matrix whose top square is triangular up to permutation:
    c rows of a lower band of width 2 or 3 with entries 1..3, one more row
    with one or two positive entries placed anywhere among them, and the
    columns shuffled."""
    width = rng.randint(2, 3)
    rows = [[rng.randint(1, 3) if 0 <= i - j < width else 0 for j in range(c)] for i in range(c)]
    rng.shuffle(rows)
    extra = [0] * c
    for j in rng.sample(range(c), min(c, rng.randint(1, 2))):
        extra[j] = rng.randint(1, 3)
    rows.insert(rng.randint(0, c), extra)
    order = list(range(c))
    rng.shuffle(order)
    return [[row[q] for q in order] for row in rows]


@st.composite
def tall_matrices(draw):
    """(c+1) x c nonnegative matrices up to c = 14: dense 0..3 entries, a
    band around the gicar diagonal, one entry per row plus a few more,
    which forces the assignment part of the way through the reduction, a
    shuffled triangle, or a shuffled ladder, whose sparse levels take the
    matching."""
    c = draw(st.integers(1, 14), label="c")
    shape = draw(st.sampled_from(["dense", "banded", "near_monomial", "triangle", "ladder"]), label="shape")
    entry = st.integers(0, 3)
    if shape == "ladder":
        return shuffled_ladder(draw(st.randoms(use_true_random=False)), c)
    if shape == "dense":
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=c + 1, max_size=c + 1))
    if shape == "triangle":
        # a lower triangle with pivots 1..4 and one more row, rows and
        # columns shuffled: nonsingular and triangular up to permutation
        rows = [[draw(st.integers(1, 4)) if i == j else draw(entry) if j < i else 0 for j in range(c)]
                for i in range(c)]
        rows.append(draw(st.lists(entry, min_size=c, max_size=c)))
        order = draw(st.permutations(range(c)))
        return [[row[q] for q in order] for row in draw(st.permutations(rows))]
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


def seeded_tall(rng, c, shape):
    """A (c+1) x c matrix, entries 0..3: dense with no zero row, upper or
    lower dense (from the diagonal below the main one on, or up to the
    main one, which is nonzero), or a band of width 2 or 3 with c entries
    of noise.  A quarter of the draws double one row into another, or blank
    a row.

    A lower draw instead keeps full rank, and no triangular matching
    decides it: a nonzero top-right corner gives the last column a second
    row among the first c, so no column of their square has a single
    nonzero, and the last row meets at least one column."""
    def entry(i, j):
        if shape == "upper":
            return rng.randint(j == i - 1, 3) if j >= i - 1 else 0
        if shape == "lower":
            return rng.randint(j == i, 3) if j <= i else 0
        if shape == "band":
            return rng.randint(1, 3) if 0 <= i - j < width else 0
        return rng.randint(0, 3)

    width = rng.randint(2, 3)
    rows = [[entry(i, j) for j in range(c)] for i in range(c + 1)]
    if shape == "dense":
        rows = [row if any(row) else [1] * c for row in rows]
    if shape == "band":
        for _ in range(c):
            rows[rng.randrange(c + 1)][rng.randrange(c)] = rng.randint(0, 3)
    if shape == "lower":
        rows[0][c - 1] = rng.randint(1, 3)
        rows[c][rng.randrange(c)] = rng.randint(1, 3)
        return rows
    spoil = rng.randrange(8)
    if spoil == 0:
        a, b = rng.sample(range(c + 1), 2)
        rows[a] = [2 * x for x in rows[b]]
    elif spoil == 1:
        rows[rng.randrange(c + 1)] = [0] * c
    return rows


@pytest.mark.parametrize("shape", ["dense", "upper", "lower", "band"])
def test_minimal_reduce_matches_rescanning_reduction_up_to_24_columns(shape, monkeypatch):
    # the sizes where the resumed elimination gains most over one
    # elimination per step; the oracle takes about 0.4 s at c = 24
    rng = random.Random(f"tall-{shape}")
    calls = []
    eliminate = matops._eliminate
    monkeypatch.setattr(matops, "_eliminate", lambda *a, **kw: calls.append(a) or eliminate(*a, **kw))
    for c in (12, 14, 16, 18, 20, 22, 24):
        rows = seeded_tall(rng, c, shape)
        if shape == "lower":
            # every lower draw is a full-rank level that an elimination decides
            want = oracle.minimal_reduce_parents(rows)
            calls.clear()
            assert minimal_reduce(rows).parents == want
            assert calls, f"c = {c} ran no elimination"
        elif oracle.rank(rows) < c:
            with pytest.raises(RankDeficient):
                minimal_reduce(rows)
        elif not all(any(row) for row in rows):
            with pytest.raises(ValueError, match="has no edge"):
                minimal_reduce(rows)
        else:
            assert minimal_reduce(rows).parents == oracle.minimal_reduce_parents(rows)


def pool_shaped(rng, c):
    """A (c+1) x c matrix of entries 0..3 with no zero row, the shape of the
    benchmark's dense pool."""
    rows = []
    while len(rows) < c + 1:
        row = [rng.randint(0, 3) for _ in range(c)]
        if any(row):
            rows.append(row)
    return rows


def test_dense_steps_stop_at_their_pick_and_match_the_rescanning_reduction():
    # each step reads its cofactors from the free column back and stops at
    # the first top row that meets its column
    rng = random.Random("dense-steps")
    dense = 0
    for c in range(4, 13):
        for _ in range(12):
            mat = MultiplicityMatrix(pool_shaped(rng, c))
            rows = mat.to_lists()
            assert minimal_reduce(mat).parents == oracle.minimal_reduce_parents(rows)
            dense += mat._columns is None  # decided by elimination, not the matching
    assert dense >= 100  # of 108 draws, all of full rank


def test_dense_step_past_a_vanishing_cofactor():
    # pool matrix 0 of size 6: rows 4 and 6 agree on columns 3-6, so the
    # step for column 2 passes rows 2 and 3, which meet it but whose
    # cofactors vanish (they come before the free column's row 4), and
    # gives the column to row 4
    rows = [list(map(int, line.split())) for line in (DATA / "dense-vanishing-minor.txt").read_text().splitlines()]
    mat = MultiplicityMatrix(rows)
    trace = []
    assert minimal_reduce(mat).parents == oracle.minimal_reduce_parents(rows, trace) == (1, 6, 3, 2, 4, 5, 5)
    assert mat._columns is None
    assert trace[1] == (2, [(2, False, True), (3, False, True), (4, True, True), (5, False, False), (6, True, True)])


def test_dense_step_whose_free_column_row_misses_the_column():
    # pool matrix 14 of size 4, first step (column 1): row 1, the free
    # column's, misses column 1; back substitution goes on to row 2, which
    # meets it with a zero cofactor, and then to row 3, the pick
    rows = [[0, 2, 3, 1], [2, 2, 0, 2], [2, 0, 3, 3], [1, 2, 2, 0], [3, 3, 3, 3]]
    mat = MultiplicityMatrix(rows)
    trace = []
    assert minimal_reduce(mat).parents == oracle.minimal_reduce_parents(rows, trace) == (2, 4, 1, 3, 3)
    assert mat._columns is None
    assert trace[0] == (1, [(1, True, False), (2, False, True), (3, True, True), (4, True, True)])


def matching(rows, out):
    """The triangular matching of the rows other than `out`, on the sparse
    view of integer rows of any sign, read by dense scans."""
    supports = [tuple(q for q, x in enumerate(row) if x) for row in rows]
    return _triangular_matching(oracle.dense_column_entries(rows), supports, out)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tall_matrices(), st.builds(shuffled_ladder, st.randoms(use_true_random=False), st.integers(1, 14))))
def test_first_rows_matching_makes_them_the_top_rows(rows):
    # a triangular square on the first c rows is nonsingular, so the scan
    # from the top keeps them all: minimal_reduce takes them with no
    # elimination
    c = len(rows[0])
    match = matching(rows, c)
    if match is None:
        return
    assert matops.independent_rows(rows) == list(range(c))
    if any(rows[c]):
        assert minimal_reduce(rows).parents == oracle.minimal_reduce_parents(rows)
    else:
        with pytest.raises(ValueError, match="row .* has no edge"):
            minimal_reduce(rows)


@pytest.mark.parametrize("name", ["gicar", "propersub", "dyadic"])
def test_theorem_tree_levels_match_rescanning_reduction(name):
    # gicar goes deepest: its levels take the matching, and the oracle
    # reaches depth 48 in about 5 s
    depth = 48 if name == "gicar" else 40
    d = corpus.get(name).diagram()
    tree = build_minimal_diagram(d, "theorem").ensure_depth(depth)
    for level in range(depth):
        mat = d.matrix(level)
        assert mat.nrows == mat.ncols + 1
        assert tree.parents_at(level + 1) == oracle.minimal_reduce_parents(mat.to_lists())


@pytest.mark.parametrize("name", ["gicar", "propersub", "dyadic"])
def test_theorem_tree_matches_frozen_dump_at_full_depth(monkeypatch, name):
    # frozen from the per-step elimination, at the default depth limit
    monkeypatch.delenv("BRATTICE_DEPTH_LIMIT", raising=False)
    tree = build_minimal_diagram(corpus.get(name).diagram(), "theorem")
    assert tree.diagram.level_bound() == 64
    frozen = (DATA / f"theorem-{name}-63.tree").read_text()
    assert format_tree_dump(tree, 63) == frozen


def _spy_matchings(monkeypatch):
    """The matchings minimal_reduce finds, None for each square that has
    none, in call order."""
    found = []

    def spy(columns, supports, out):
        found.append(_triangular_matching(columns, supports, out))
        return found[-1]

    monkeypatch.setattr(reduction, "_triangular_matching", spy)
    return found


def test_matching_decides_shuffled_ladders(monkeypatch):
    found = _spy_matchings(monkeypatch)
    rng = random.Random(20)
    draws = [shuffled_ladder(rng, rng.randint(1, 14)) for _ in range(150)]
    decided = 0
    for rows in draws:
        assert oracle.rank(rows) == len(rows[0])  # the band square is nonsingular
        del found[:]
        assert minimal_reduce(rows).parents == oracle.minimal_reduce_parents(rows)
        # a draw whose extra row sits above the band finds no matching on
        # its first c rows, and one on its top rows after one elimination
        decided += any(found)
    # in the rest the extra row lands in a top square that is not
    # triangular
    assert decided >= 109


@st.composite
def triangular_squares(draw):
    """n x n integer squares that are lower triangular with a nonzero
    diagonal up to a permutation of rows and columns, and a column j0."""
    n = draw(st.integers(1, 9))
    below = draw(st.sampled_from([st.just(0), st.integers(-3, 3)]))
    pivot = st.integers(-4, 4).filter(bool)
    square = [[draw(pivot) if i == j else draw(below) if j < i else 0 for j in range(n)] for i in range(n)]
    order = draw(st.permutations(range(n)))
    square = [[row[q] for q in order] for row in draw(st.permutations(square))]
    return square, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(triangular_squares())
def test_matching_picks_the_row_elimination_picks(case):
    square, j0 = case
    n = len(square)
    columns = [list(col) for col in zip(*square)]
    # the square under a zero row, which the pass leaves out
    match = matching(square + [[0] * n], n)
    assert sorted(match) == list(range(n))
    assert all(square[i][q] for q, i in enumerate(match))
    # the first step: the one dependency among the rows without column j0
    y = matops._null_vector([col for q, col in enumerate(columns) if q != j0], n)
    assert match[j0] == _pivot(y, columns[j0])


def test_matching_frozen():
    # column 1 meets only row 0, which leaves row 1 to column 0
    assert matching([[1, 1], [1, 0], [0, 0]], 2) == [1, 0]
    # a full 2 x 2 pattern, and a column no row meets
    assert matching([[1, 1], [1, 1], [0, 0]], 2) is None
    assert matching([[1, 0], [0, 0], [0, 0]], 2) is None
    # two columns left with the same one row
    assert matching([[1, 1], [0, 0], [0, 0]], 2) is None
    # the row left out is passed over wherever it stands
    rows = [[1, 1], [1, 0], [0, 1]]
    assert [matching(rows, out) for out in range(3)] == [[1, 2], [0, 2], [1, 0]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    triangular_squares().map(lambda case: case[0] + [[0] * len(case[0])]),
    st.builds(shuffled_ladder, st.randoms(use_true_random=False), st.integers(1, 14)),
    tall_matrices(),
))
def test_every_matched_square_has_a_one_column_row(rows):
    # the gate minimal_reduce puts before the pass loses no square: in the
    # order the pass matches them, a matched square is triangular, so its
    # last matched row has one nonzero entry
    for out in range(len(rows)):
        if matching(rows, out) is not None:
            square = rows[:out] + rows[out + 1:]
            assert any(sum(map(bool, row)) == 1 for row in square)


def test_extra_row_inside_the_ladder_takes_one_elimination(monkeypatch):
    # the dependency leaves out row 6, so the first 6 rows are dependent and
    # have no matching; their elimination falls short of full rank, one
    # elimination by independent_rows finds the top rows, and their square
    # has a matching, so no step eliminates
    text = (DATA / "ladder-extra-row.txt").read_text()
    rows = [list(map(int, line.split())) for line in text.splitlines()]
    assert matops.independent_rows(rows) == [0, 1, 2, 3, 4, 6]
    found = _spy_matchings(monkeypatch)
    assert minimal_reduce(rows).parents == oracle.minimal_reduce_parents(rows)
    assert len(found) == 2 and found[0] is None and found[1]


def test_rank_deficiency_outranks_a_zero_row():
    with pytest.raises(RankDeficient):
        minimal_reduce([[1, 0], [0, 0], [2, 0]])
    with pytest.raises(ValueError, match="row 2 has no edge"):
        minimal_reduce([[1, 0], [0, 0], [0, 1]])


def _refuse(*args):
    raise AssertionError("unexpected call")


def test_ladder_levels_reduce_without_elimination(monkeypatch):
    # every theorem level of the three ladders, from the first, has a
    # one-column row among its first c rows: their matching picks the top
    # rows and decides every step
    levels = [corpus.get(name).diagram().matrix(level)
              for name in ("gicar", "dyadic", "propersub") for level in range(24)]
    want = [oracle.minimal_reduce_parents(mat.to_lists()) for mat in levels]
    for name in ("_eliminate", "_cofactors", "_null_vector", "independent_rows"):
        monkeypatch.setattr(matops, name, _refuse)
    found = _spy_matchings(monkeypatch)
    assert [minimal_reduce(mat).parents for mat in levels] == want
    assert len(found) == 72
    assert all(found)


def test_dense_levels_skip_the_matching(monkeypatch):
    # no row has a single column, so the matching is not tried and the
    # column view is not built
    rng = random.Random(8)
    rows = [[rng.randint(1, 3) for _ in range(8)] for _ in range(9)]
    assert oracle.rank(rows) == 8
    want = oracle.minimal_reduce_parents(rows)
    monkeypatch.setattr(reduction, "_triangular_matching", _refuse)
    mat = MultiplicityMatrix(rows)
    assert minimal_reduce(mat).parents == want
    assert mat._columns is None
