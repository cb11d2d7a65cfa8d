"""Minimal reductions of multiplicity matrices.

A reduction assigns to every lower vertex (row) one upper vertex (column)
inside its support, covering every column.  The reduced graph keeps one
edge per row, which is the least structure an intertwining embedding can
use.  All vertex labels in results are 1-based.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import mul

from . import matops
from .diagram import MultiplicityMatrix
from .errors import LimitExceeded, RankDeficient, Singular
from .record import Record


class ReductionOutcome(Record):
    """parents[i-1] is the chosen column (1-based) for row i."""

    parents: tuple
    branch_col: int | None
    method: str


def _as_mm(m):
    return m if isinstance(m, MultiplicityMatrix) else MultiplicityMatrix(m)


def reduction_is_valid(mat, parents):
    """Support and surjectivity check for a row->column assignment."""
    mat = _as_mm(mat)
    return (
        len(parents) == mat.nrows
        and all(j - 1 in support for j, support in zip(parents, mat.supports))
        and len(set(parents)) == mat.ncols
    )


def _pivot(y, last):
    """First k (0-based) with last[k] != 0 and y[k] != 0, where y is the one
    dependency among a square block's rows without their last entries."""
    for k, (b, yk) in enumerate(zip(last, y)):
        if b and yk:
            return k
    raise Singular("no pivot row: matrix is singular")


def pivot_row(b):
    """Smallest k whose removal (with the last column) leaves an invertible
    block while b[k, last] stays nonzero.

    The rows of b without its last column are s vectors in dimension s-1;
    the rows other than k are a basis exactly when the one dependency among
    all s rows, the left null vector y, has y[k] != 0.
    """
    rows = b.rows if isinstance(b, MultiplicityMatrix) else b
    s = len(rows)
    if any(len(r) != s for r in rows):
        raise ValueError("pivot_row needs a square matrix")
    y = matops.left_null_vector([r[: s - 1] for r in rows])
    return _pivot(y, [r[s - 1] for r in rows]) + 1


def _triangular_matching(columns, supports, out):
    """The one row-column matching of the square of the rows other than
    `out`, when its nonzero pattern is triangular up to a permutation of its
    rows and columns, as a list: column -> row; None when it is not.

    `columns[q]` lists the rows meeting column q and `supports[i]` the
    columns meeting row i: a matrix's kept sparse view, read in place.  A
    column with one unmatched row left can only be matched to that row;
    the pass matches such columns until every column is matched or none is
    left to match.  No arithmetic is done.
    """
    used = [False] * len(supports)  # the rows matched, and `out`
    used[out] = True
    left = list(map(len, columns))  # unused rows left in each column
    for q in supports[out]:
        left[q] -= 1
    match = [0] * len(columns)
    ready = [q for q, n in enumerate(left) if n == 1]
    for q in ready:  # the loop also visits the columns appended below
        for row in columns[q]:
            if not used[row]:
                break
        else:
            return None  # its one row went to another column: singular pattern
        match[q] = row
        used[row] = True
        for p in supports[row]:
            left[p] -= 1
            if left[p] == 1:
                ready.append(p)
    # a column enters `ready` once, when one row is left in it
    return match if len(ready) == len(columns) else None


def minimal_reduce(mat):
    """Deterministic minimal reduction of a (c+1) x c full-rank matrix.

    Each step removes one column j0 that no row needs alone, and gives it to
    the first of the c independent rows `top` whose removal keeps the others
    independent without j0; the row outside `top` stays to the end.  When
    every column is some row's whole support, each row takes the first
    column of its support.

    The row a step gives j0 to is found in one of two ways.  In general it
    is the first row of column j0 on which y, the one dependency among the
    top rows without j0, is nonzero.  One elimination per level finds every
    y: that of W = B0ᵀ for the top square B0 = M[top, :], whose columns
    are the top rows from the last.  A step deletes the row of j0 and the
    column of the previous step's row, resumes from the first pivot either
    held (see matops._eliminate), and reads y by back substitution.  Steps
    take columns in rising order and often the first top row, so W's rows
    go from the last column, and a step mostly resumes at its last pivot.
    Only y's zero pattern is read, so W's order leaves the answer alone.

    A step reads y only up to its pick.  After the resumed elimination, W
    has one free column f, the one without a pivot: row w pivots at column
    w before f and at w + 1 after it, so f is what the pivot columns miss.

    - y is zero on every column after f: from the last row back, each
      echelon row is zero before its pivot and y is zero after it, so the
      row sets y zero at its pivot;
    - so on the columns up to f, y is the dependency of W's first f
      echelon rows, an echelon block of f rows and f + 1 columns; as in
      matops._cofactors, y[f] is their last pivot up to sign (1 when f is
      0), which is nonzero, and back substitution divides exactly;
    - the top rows from the first are W's columns from the last, so back
      substitution from f visits them in top order, after the top rows on
      which y is zero.

    So a step checks f's top row first, and substitutes one column further
    back only while the top rows it reads miss j0 or have y zero.

    A level whose top square B0 is triangular up to permutation decides
    every step from the one matching of B0, `match`, found before the first
    step by a structural pass, because:

    - y satisfies y·B = λ·e_j0 with λ != 0, for the invertible square B
      of the top rows on the columns left (those other than j0 are the
      block that y annihilates);
    - solving y·B = λ·e_j0 in the triangular order, column by column, gives
      0 to every row matched before column j0, and no row matched after j0
      meets column j0;
    - so match[j0] is the only row of column j0 with y != 0, which is the
      row the elimination picks;
    - deleting that row and column leaves a square that is still
      triangular under the same matching, so one matching decides every
      step.

    The pass is tried exactly when the square has a row with one column.
    That is necessary, not a guess: in the order the pass matches them, the
    rows and columns make the square triangular, so its last matched row
    meets only its own column.  The test counts the one-column rows while
    `blocked` is built, and a dense level fails it without building the
    column view.

    A level first looks for the matching of its first c rows.  When there
    is one, those rows are `top`, with no arithmetic: in the order they
    were matched, the rows and columns make that square triangular with
    the matched entries on its diagonal, so its determinant is their
    product up to sign, nonzero, and a scan from the top keeps all c rows.
    Otherwise W's full rank proves them `top`.  When they are dependent,
    matops.independent_rows finds `top`, and the matching of its square is
    looked for before W is eliminated again.

    The steps keep flat lists: a row is still to assign while its parent is
    0, a column is `removed` once a step gives it away and `blocked` once
    some row has only it left, and the columns are scanned once, in rising
    order, because a column blocked during a step lies after that step's j0.
    """
    mat = _as_mm(mat)
    rows = mat.rows
    r, c = len(rows), len(rows[0])
    if r != c + 1:
        raise ValueError(f"expected one more row than columns, got {r}x{c}")
    supports = mat.supports
    # a column is removable when no row's remaining support lies entirely
    # inside it; those only shrink, so a blocked column stays blocked
    blocked = [False] * c
    singles = 0  # the rows with a single column
    for support in supports:
        if len(support) == 1:
            blocked[support[0]] = True
            singles += 1
    # the matching of the square of the rows other than `out` is tried when
    # one of them has a single column
    top, out, match = list(range(c)), c, None
    if singles > (len(supports[out]) == 1):
        match = _triangular_matching(mat.column_supports, supports, out)
    if not match:
        work, tags, cols = _eliminate_top(rows, top, blocked)
        if len(cols) < c:
            # the lexicographically first independent rows, scanning from the top
            top = matops.independent_rows(rows)
            if len(top) < c:
                raise RankDeficient(f"rank is below {c}")
            out = next(i for i in range(r) if i not in top)
            if singles > (len(supports[out]) == 1):
                match = _triangular_matching(mat.column_supports, supports, out)
            if not match:
                work, tags, cols = _eliminate_top(rows, top, blocked)
    columns = mat.column_supports if match else None
    # checked after the rank so a rank-deficient matrix keeps that verdict
    if () in supports:
        raise ValueError(f"row {supports.index(()) + 1} has no edge, so no reduction exists")
    removed = [False] * c
    left = list(map(len, supports))  # the columns each row has not lost
    gone = None  # the column of W that the previous step's row held
    free = None  # W's one column without a pivot, after a step
    parents = [0] * r
    for j0 in range(c):
        # a column blocked by a step lies after that step's j0: the ones
        # before it were removed or blocked already
        if blocked[j0]:
            continue
        if match:
            bottom = match[j0]
        else:
            # every row of W pivots, so the row of j0 held pivot k; W's row
            # w pivots at column w before the free column, at w + 1 after it
            k = tags.index(j0)
            if gone is not None:
                if gone < free:
                    k = min(k, gone)
                for row in work[:k]:
                    del row[gone]
            # the rows after the prefix enter again as input rows, if any
            rest = tags[k:]
            rest.remove(j0)
            del work[k:], tags[k:]
            n = len(top)
            if rest:
                tags += rest
                work += [[rows[i][q] for i in reversed(top)] for q in rest]
                free = n * (n - 1) // 2 - sum(matops._eliminate(work, done=k, tags=tags)[0])
            else:
                free = k
            # y from the free column back, until a top row meets j0
            w = free
            ys = [work[w - 1][w - 1] if w else 1]
            while not (ys[-1] and rows[top[n - 1 - w]][j0]):
                if not w:
                    raise Singular("no pivot row: matrix is singular")
                w -= 1
                row = work[w]
                ys.append(-sum(map(mul, row[free:w:-1], ys)) // row[w])
            bottom = top.pop(n - 1 - w)
            gone = w
        removed[j0] = True
        parents[bottom] = j0 + 1
        # only the rows meeting j0 lose a column, and may block another
        meets = columns[j0] if match else [i for i in (*top, out) if rows[i][j0]]
        for i in meets:
            if not parents[i]:
                left[i] -= 1
                if left[i] == 1:
                    for q in supports[i]:
                        if not removed[q]:
                            blocked[q] = True
                            break
    # every column left is the whole support of some row: assignments are
    # forced; c + 1 rows cover c columns, so exactly one column takes two rows
    takes = [0] * (c + 1)
    for i, support in enumerate(supports):
        if not parents[i]:
            for q in support:
                if not removed[q]:
                    parents[i] = q + 1
                    break
        takes[parents[i]] += 1
    return ReductionOutcome(tuple(parents), takes.index(2), "tall")


def _eliminate_top(rows, top, blocked):
    """W for the rows `top`, eliminated, as (work, tags, pivot columns);
    tags[k] is the column q of W's row k.  The rows go in the reverse of the
    order minimal_reduce's steps delete them: first the blocked columns,
    which no step removes."""
    tags = sorted(range(len(blocked)), key=lambda q: (not blocked[q], -q))
    work = [[rows[i][q] for i in reversed(top)] for q in tags]
    return work, tags, matops._eliminate(work, tags=tags)[0]


def minimal_reduce_square(mat):
    """Lexicographically first support bijection of a nonsingular square matrix.

    A nonzero determinant has a nonzero Leibniz term, which is a support
    bijection, so the search below always finds one.
    """
    mat = _as_mm(mat)
    if mat.nrows != mat.ncols:
        raise ValueError(f"expected a square matrix, got {mat.nrows}x{mat.ncols}")
    if matops.det(mat.to_lists()) == 0:
        raise RankDeficient("square matrix is singular")
    return ReductionOutcome(next(iter_minimal_reductions(mat)), None, "square")


def _augment(col_rows, held, owner, log, j, first):
    """Match the free column j into the rows from `first` on by a shortest
    augmenting path.  Without one, no matching covers j with the columns
    matched already (Berge): return False and change nothing.  `held` maps
    rows to columns or -1 and `owner` matched columns to rows; each change
    of `held` is logged as (row, its column before)."""
    came, queue = {}, [j]  # came[row]: the column that reached the row
    for q in queue:
        for row in col_rows[q]:
            if row >= first and row not in came:
                came[row] = q
                if held[row] < 0:
                    # each row on the path takes the column that reached it,
                    # and that column's row before takes the next
                    while True:
                        q = came[row]
                        log.append((row, held[row]))
                        held[row] = q
                        owner[q], row = row, owner[q]
                        if q == j:
                            return True
                queue.append(held[row])
    return False


def iter_minimal_reductions(mat):
    """Yield every surjective support assignment, in lexicographic order.

    Each map is a tuple of 1-based columns, one per row.  The walk enters
    `row i -> column j` only when the rows below can still cover the columns
    left uncovered, so every node it visits leads to a map: the delay
    between maps is polynomial and a dead end costs one feasibility test.
    The walk runs on 0-based columns and records each choice 1-based.

    Feasibility is kept as one matching of the uncovered columns into the
    rows below.  Where a degree bound cannot decide a branch, the matching
    replays the choices above row i that the bound let through, then gives
    the column row i held a row below by one augmenting search, which reads
    each column's rows from the matrix's kept `column_supports`.
    """
    mat = _as_mm(mat)
    supports = mat.supports
    r, c = len(supports), mat.ncols
    if () in supports:
        return
    held, owner, log = [-1] * r, [-1] * c, []  # the matching, as in _augment
    augment = partial(_augment, mat.column_supports, held, owner, log)
    if not all(augment(j, 0) for j in range(c)):
        return  # no cover: found before the O(r·c) degree table is built
    degrees = [[0] * c]  # degrees[i][j]: rows i.. supporting column j
    for sup in reversed(supports):
        degrees.append(degrees[-1][:])
        for j in sup:
            degrees[-1][j] += 1
    degrees.reverse()
    uncovered = set(range(c))

    def open_row(i):
        # The uncovered columns stay the same while row i tries its branches.
        # A column no row below supports must be taken by row i itself.  A
        # child leaving `need` columns uncovered passes the degree test when
        # at most one of them has fewer than `need` supporting rows below
        # and none has none: a set of columns violating Hall's condition
        # holds at least two such columns.  One pass finds the weakest
        # column, the first in `uncovered`'s order among equals, and the
        # second-lowest degree, capped at n + 1, which no need reaches.
        below = degrees[i + 1]
        n = len(uncovered)
        least = floor = n + 1
        for q in uncovered:
            d = below[q]
            if d < floor:
                if d < least:
                    weakest, least, floor = q, d, least
                else:
                    floor = d
        return iter((weakest,) if not least else supports[i]), n, floor

    def advance(a, j, fresh):
        # row a takes column j, `fresh` when it was uncovered, and the
        # column row a held needs a row below
        marks[a] = len(log)
        if fresh:
            log.append((owner[j], j))
            held[owner[j]] = -1
        k = held[a]
        log.append((a, k))
        held[a] = -1
        return k < 0 or augment(k, a + 1)

    def rewind(a):
        # undo the matching's changes since it served row a, which it
        # serves again
        while len(log) > marks[a]:
            row, j = log.pop()
            held[row] = j
            if j >= 0:
                owner[j] = row
        return a

    choice = [0] * r  # 1-based
    first_cover = [False] * r  # whether choice[i] was the first row on its column
    marks = [0] * r  # marks[a]: len(log) when the matching served row a
    synced = 0  # the row whose uncovered columns the matching covers
    frames = [open_row(0)]
    while frames:
        i = len(frames) - 1
        if first_cover[i]:  # back out of the previous branch at row i
            uncovered.add(choice[i] - 1)
        if synced > i:  # the matching moved past row i with its last branch
            synced = rewind(i)
        branches, n, floor = frames[i]
        for j in branches:
            need = n - (j in uncovered)
            if need <= floor:
                break
            if need < r - i:
                for a in range(synced, i):
                    if not advance(a, choice[a] - 1, first_cover[a]):
                        raise RuntimeError(f"replaying row {a + 1}'s choice found no augmenting path")
                synced = i + 1
                if advance(i, j, j in uncovered):
                    break
                synced = rewind(i)
        else:
            first_cover[i] = False
            frames.pop()
            continue
        choice[i] = j + 1
        first_cover[i] = j in uncovered
        uncovered.discard(j)
        if i + 1 == r:
            yield tuple(choice)
        elif i + 2 == r:
            # the last row finishes the cover: it takes the one uncovered
            # column, or any column of its support when none is left
            for k in tuple(uncovered) or supports[-1]:
                choice[-1] = k + 1
                yield tuple(choice)
        else:
            frames.append(open_row(i + 1))


def first_minimal_reductions(mat, keep, limit=10**6):
    """The first `keep` surjective support assignments, in lexicographic
    order, and the number of all of them; the others are counted, not kept.

    Raises LimitExceeded if more than `limit` maps exist.  Every node of the
    walk leads to a map, so the walk visits at most rows * (limit + 1)
    nodes: the cap bounds work as well as output.
    """
    maps = iter_minimal_reductions(mat)
    first = list(islice(maps, min(keep, limit + 1)))
    count = len(first) + sum(1 for _ in islice(maps, limit + 1 - len(first)))
    if count > limit:
        raise LimitExceeded(f"more than {limit} reductions")
    return first, count


def enumerate_minimal_reductions(mat, limit=10**6):
    """All surjective support assignments, in lexicographic order.

    Purely combinatorial: rank plays no role, and an empty list is a
    legitimate answer.  Raises LimitExceeded if more than `limit` maps
    exist, after a walk bounded as in first_minimal_reductions.
    """
    return first_minimal_reductions(mat, limit, limit)[0]


def is_unique_minimal(mat):
    """Structural forcing test: (flag, branch column).

    The flag is set when every row meets a single column, which pins the
    assignment completely.  The branch column is reported when exactly one
    column carries two rows and the rest carry one.
    """
    mat = _as_mm(mat)
    supports = mat.supports
    if any(len(support) != 1 for support in supports):
        return False, None
    counts = list(map(len, mat.column_supports))  # the rows on each column
    if counts.count(2) == 1 and counts.count(1) == len(counts) - 1:
        return True, counts.index(2) + 1
    return True, None
