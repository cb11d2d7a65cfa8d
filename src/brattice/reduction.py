"""Minimal reductions of multiplicity matrices.

A reduction assigns to every lower vertex (row) one upper vertex (column)
inside its support, covering every column.  The reduced graph keeps one
edge per row, which is the least structure an intertwining embedding can
use.  All vertex labels in results are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matops
from .diagram import MultiplicityMatrix, multiplicity_rank
from .errors import LimitExceeded, RankDeficient, Singular


@dataclass(frozen=True)
class ReductionOutcome:
    """parents[i-1] is the chosen column (1-based) for row i."""

    parents: tuple
    branch_col: int | None
    method: str


def _as_mm(m):
    return m if isinstance(m, MultiplicityMatrix) else MultiplicityMatrix(m)


def reduction_is_valid(mat, parents):
    """Support and surjectivity check for a row->column assignment."""
    mat = _as_mm(mat)
    if len(parents) != mat.nrows:
        return False
    seen = set()
    for i, j in enumerate(parents, start=1):
        if not (1 <= j <= mat.ncols) or mat.at(i, j) == 0:
            return False
        seen.add(j)
    return len(seen) == mat.ncols


def pivot_row(b):
    """Smallest k whose removal (with the last column) leaves an invertible
    block while b[k, last] stays nonzero.

    The rows of b without its last column are s vectors in dimension s-1;
    the rows other than k are a basis exactly when the one dependency among
    all s rows, the left null vector y, has y[k] != 0.
    """
    rows = [list(r) for r in (b.rows if isinstance(b, MultiplicityMatrix) else b)]
    s = len(rows)
    if any(len(r) != s for r in rows):
        raise ValueError("pivot_row needs a square matrix")
    y = matops.left_null_vector([r[: s - 1] for r in rows])
    for k in range(s):
        if rows[k][s - 1] != 0 and y[k] != 0:
            return k + 1
    raise Singular("no pivot row: matrix is singular")


def _reduce_single_surplus(rows, row_ids, col_ids, assign, top=None):
    """Recursive step on a (c+1) x c full-rank block; mutates `assign`.

    `top` is the lexicographically first set of c independent rows, when
    the caller already knows it.
    """
    c = len(col_ids)
    if c == 1:
        for rid in row_ids:
            assign[rid] = col_ids[0]
        return

    supports = [[q for q in range(c) if row[q]] for row in rows]
    # a column is removable when no row's support lies entirely inside it
    blocked = set()
    for sup in supports:
        if len(sup) <= 1:
            blocked.update(sup or range(c))
    j0 = next((jj for jj in range(c) if jj not in blocked), None)

    if j0 is None:
        # every column is the full support of some row: assignments are forced
        for jj in range(c):
            owner = next(i for i, sup in enumerate(supports) if sup == [jj])
            assign[row_ids[owner]] = col_ids[jj]
        for i, sup in enumerate(supports):
            if row_ids[i] not in assign:
                assign[row_ids[i]] = col_ids[sup[0]]
        return

    others = [jj for jj in range(c) if jj != j0]
    if top is None:
        # lexicographically first independent row subset, scanning from the top
        top = matops.independent_rows(rows)
    leftover = next(i for i in range(len(rows)) if i not in set(top))

    block = [[rows[i][q] for q in others] + [rows[i][j0]] for i in top]
    k = pivot_row(block)
    bottom = top[k - 1]
    assign[row_ids[bottom]] = col_ids[j0]

    sub_rows_idx = [i for i in top if i != bottom] + [leftover]
    sub_rows = [[rows[i][q] for q in others] for i in sub_rows_idx]
    _reduce_single_surplus(
        sub_rows,
        [row_ids[i] for i in sub_rows_idx],
        [col_ids[q] for q in others],
        assign,
        # the top rows but `bottom` stay independent without column j0: they
        # are the sub-block's first c - 1 rows
        top=list(range(c - 1)),
    )


def minimal_reduce(mat):
    """Deterministic minimal reduction of a (c+1) x c full-rank matrix."""
    mat = _as_mm(mat)
    r, c = mat.nrows, mat.ncols
    if r != c + 1:
        raise ValueError(f"expected one more row than columns, got {r}x{c}")
    if multiplicity_rank(mat) < c:
        raise RankDeficient(f"rank is below {c}")
    assign = {}
    _reduce_single_surplus(mat.to_lists(), list(range(1, r + 1)), list(range(1, c + 1)), assign)
    parents = tuple(assign[i] for i in range(1, r + 1))
    counts = {}
    for j in parents:
        counts[j] = counts.get(j, 0) + 1
    branch = next(j for j, n in counts.items() if n == 2)
    return ReductionOutcome(parents, branch, "tall")


def minimal_reduce_square(mat):
    """Lexicographically first support bijection of a nonsingular square matrix."""
    mat = _as_mm(mat)
    if mat.nrows != mat.ncols:
        raise ValueError(f"expected a square matrix, got {mat.nrows}x{mat.ncols}")
    if matops.det(mat.to_lists()) == 0:
        raise RankDeficient("square matrix is singular")
    n = mat.nrows
    used = [False] * (n + 1)
    choice = [0] * n

    def place(i):
        if i == n:
            return True
        for j in mat.row_support(i + 1):
            if not used[j]:
                used[j] = True
                choice[i] = j
                if place(i + 1):
                    return True
                used[j] = False
        return False

    if not place(0):
        raise RankDeficient("no support bijection")
    return ReductionOutcome(tuple(choice), None, "square")


def enumerate_minimal_reductions(mat, limit=10**6):
    """All surjective support assignments, in lexicographic order.

    Purely combinatorial: rank plays no role, and an empty list is a
    legitimate answer.  Raises LimitExceeded if more than `limit` maps
    exist.
    """
    mat = _as_mm(mat)
    r, c = mat.nrows, mat.ncols
    supports = [mat.row_support(i) for i in range(1, r + 1)]
    tail_union = [set() for _ in range(r + 1)]
    for i in range(r - 1, -1, -1):
        tail_union[i] = tail_union[i + 1] | set(supports[i])

    results = []
    choice = [0] * r

    def walk(i, uncovered):
        if len(uncovered) > r - i or not uncovered <= tail_union[i]:
            return
        if i == r:
            if len(results) >= limit:
                raise LimitExceeded(f"more than {limit} reductions")
            results.append(tuple(choice))
            return
        for j in supports[i]:
            choice[i] = j
            walk(i + 1, uncovered - {j})

    walk(0, set(range(1, c + 1)))
    return results


def is_unique_minimal(mat):
    """Structural forcing test: (flag, branch column).

    The flag is set when every row meets a single column, which pins the
    assignment completely.  The branch column is reported when exactly one
    column carries two rows and the rest carry one.
    """
    mat = _as_mm(mat)
    if not all(mat.is_row_monomial(i) for i in range(1, mat.nrows + 1)):
        return False, None
    counts = [len(mat.col_support(j)) for j in range(1, mat.ncols + 1)]
    doubled = [j for j, n in enumerate(counts, start=1) if n == 2]
    if len(doubled) == 1 and all(n in (1, 2) for n in counts):
        return True, doubled[0]
    return True, None
