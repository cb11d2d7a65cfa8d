"""Exact linear algebra against independent brute-force oracles."""

import itertools
import random
import re
from fractions import Fraction

import exact_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brattice import matops
from brattice.errors import Singular


# --- oracles ---------------------------------------------------------------


def perm_sign(perm):
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def perm_det(m):
    """Determinant by the full permutation expansion (small sizes only)."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(m):
    """Largest k with a nonzero k-by-k minor."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rsub in itertools.combinations(range(rows), k):
            for csub in itertools.combinations(range(cols), k):
                if perm_det([[m[i][j] for j in csub] for i in rsub]) != 0:
                    return k
    return 0


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


# --- frozen cases ----------------------------------------------------------


def test_det_frozen():
    assert matops.det([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert matops.det([[Fraction(2)]]) == 2
    assert matops.det([[Fraction(2), Fraction(0)], [Fraction(2), Fraction(1)]]) == 2


def test_inverse_frozen():
    inv = matops.inverse([[Fraction(2), Fraction(0)], [Fraction(2), Fraction(1)]])
    assert inv == [
        [Fraction(1, 2), Fraction(0)],
        [Fraction(-1), Fraction(1)],
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: matops.dims([]), "^empty matrix$", id="empty"),
        pytest.param(lambda: matops.dims([[1, 2], [3]]), "^ragged matrix$", id="ragged"),
        pytest.param(lambda: matops.mat_mul([[1, 2]], [[1, 2]]), "^shape mismatch: 1x2 times 1x2$", id="mat_mul"),
        pytest.param(
            lambda: matops.mat_vec([[1, 2]], [1]), "^shape mismatch: 1x2 times vector of length 1$", id="mat_vec"
        ),
        pytest.param(lambda: matops.det([[1, 2]]), "^determinant of a non-square matrix$", id="det"),
        pytest.param(lambda: matops.int_inverse([[1, 2]]), "^inverse of a non-square matrix$", id="int_inverse"),
        pytest.param(
            lambda: matops.left_null_vector([[1, 2], [3, 4]]),
            r"^left_null_vector needs an r x \(r-1\) matrix, got 2x2$",
            id="left_null_vector",
        ),
    ],
)
def test_shape_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, "1"], ids=["fraction", "float", "string"])
@pytest.mark.parametrize(
    "kernel, rows",
    [
        pytest.param(kernel, 3 if kernel is matops.left_null_vector else 2, id=kernel.__name__)
        for kernel in (
            matops.rank,
            matops.det,
            matops.inverse,
            matops.int_inverse,
            matops.independent_rows,
            matops.left_null_vector,
        )
    ],
)
def test_kernels_refuse_a_non_integer_entry_by_its_place(kernel, rows, entry):
    # the entry sits at row 2, column 1, which a transposed read would misname
    m = [[1, 2], [entry, 4], [5, 6]][:rows]
    with pytest.raises(ValueError, match=rf"^row 2, column 1: {re.escape(repr(entry))} is not an integer$"):
        kernel(m)


def test_inverse_singular():
    with pytest.raises(Singular):
        matops.inverse([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])


def test_rank_frozen():
    assert matops.rank([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]) == 2
    assert matops.rank([[Fraction(0)]]) == 0


# --- randomized agreement with the oracles ---------------------------------


def test_det_matches_permutation_expansion():
    rng = random.Random(20260817)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert matops.det(m) == perm_det(m)


def test_rank_matches_minor_scan():
    rng = random.Random(4101)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, lo=-2, hi=2)
        assert matops.rank(m) == minor_rank(m)


def test_inverse_and_solve():
    rng = random.Random(77)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        if matops.det(m) == 0:
            continue
        checked += 1
        inv = matops.inverse(m)
        assert oracle.mat_eq(matops.mat_mul(m, inv), matops.identity(n))
        assert oracle.mat_eq(matops.mat_mul(inv, m), matops.identity(n))
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = oracle.solve(m, b)
        assert matops.mat_vec(m, x) == b


def test_adjugate_law():
    rng = random.Random(90125)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        d = matops.det(m)
        adj = oracle.adjugate(m)
        prod = matops.mat_mul(m, adj)
        assert oracle.mat_eq(prod, oracle.scale(matops.identity(n), d))


def test_transpose_involution():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert oracle.transpose(oracle.transpose(m)) == m


def test_integrality_helpers():
    assert oracle.is_integral([[Fraction(2), Fraction(-1)]])
    assert not oracle.is_integral([[Fraction(1, 2)]])


class FractionSub(Fraction):
    """A Fraction subclass, which clear_denominators reads through Fraction()."""


_NUM = st.integers(-60, 60)
_DEN = st.integers(1, 12)
ENTRIES = st.one_of(
    _NUM,
    st.booleans(),
    st.builds(Fraction, _NUM, _DEN),
    st.builds(FractionSub, _NUM, _DEN),
    st.builds("{}/{}".format, _NUM, _DEN),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=8))
@example([])
@example([True, False])
@example([Fraction(-3, 4), FractionSub(5, 6), "-7/9", 2])
def test_clear_denominators_matches_rebuilding_every_value(v):
    got = matops.clear_denominators(v)
    assert got == oracle.clear_denominators(v)
    ints, d = got
    assert all(type(x) is int for x in ints) and type(d) is int and d > 0
    assert [Fraction(x, d) for x in ints] == [Fraction(x) for x in v]
