"""Slow exact oracles: textbook Gauss elimination over fractions.Fraction,
the unpruned reduction walkers, and the K0 query path over Fractions.

These are the library's former rank, det and inverse, kept here so the
fraction-free kernel in brattice.matops is checked against an independent
implementation, together with the greedy row scan and the pivot-row minors
scan the kernel replaced, and the small matrix helpers only tests use,
among them an adjugate and the signed cofactors of a bordered column, both
by minors.  Then come the former recursive minimal reduction, which
rescans every sub-block, and the former Auto completion by trial
determinants.  The walkers that follow are the former enumeration,
lex-first and square-bijection searches that the Hall-pruned
brattice.reduction.iter_minimal_reductions replaced; they, and the
forcing test beside them, find supports by scanning every entry, which
MultiplicityMatrix's kept sparse view replaced.  Before them stands the
matrix's former row-by-row check of its entries, which its whole-matrix
passes replaced.
The last section is the former Fraction realization path: chain products
and inverses over Fractions, the constant-width fold of per-square
inverses, and r_map, to_R_basis, refine and indicator
walking every vertex up to its ancestor, which the integer top-down passes
in brattice.k0 and brattice.pathspace replaced, and the exactness report
that ties a chain's determinants, adjugates and scales together, and
the level-by-level passes over 1-based parent tuples, one list per level,
that reading along the tree's lineages replaced in r_map, the to_R_basis
peel and refine; the peel clears denominators through the former
matops.clear_denominators, which rebuilt every value through Fraction().
Beside them stand the former peel through per-level `up` maps, and a
per-vertex first-child walk that gives each vertex's lineage.  After
them comes the former automorphism probe, which realized every candidate,
subset indicators included, where brattice.k0 realizes only pair and
basis vectors.  The
module ends with helpers the library dropped once only tests called them:
matrix equality, integrality and scaling, positive rows and columns,
column supports, size vectors, distinguished vertices, and equality, sums
and multiples of functions.  Last come the three hand-written level builders of the
built-in tail families, which brattice.diagram's band descriptions
replaced.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import lcm

from brattice import diagram, k0, pathspace
from brattice.errors import Singular
from brattice.pathspace import Cylinder, LocallyConstantFunction


def _copy(m):
    return [[Fraction(x) for x in row] for row in m]


def rank(m):
    """Row-reduce a copy and count pivots."""
    work = _copy(m)
    r, c = len(work), len(work[0])
    piv = 0
    for col in range(c):
        row = next((i for i in range(piv, r) if work[i][col] != 0), None)
        if row is None:
            continue
        work[piv], work[row] = work[row], work[piv]
        lead = work[piv][col]
        for i in range(piv + 1, r):
            f = work[i][col] / lead
            if f == 0:
                continue
            for j in range(col, c):
                work[i][j] -= f * work[piv][j]
        piv += 1
        if piv == r:
            break
    return piv


def det(m):
    """Signed determinant as a Fraction."""
    work = _copy(m)
    n = len(work)
    sign = 1
    d = Fraction(1)
    for col in range(n):
        row = next((i for i in range(col, n) if work[i][col] != 0), None)
        if row is None:
            return Fraction(0)
        if row != col:
            work[col], work[row] = work[row], work[col]
            sign = -sign
        lead = work[col][col]
        d *= lead
        for i in range(col + 1, n):
            f = work[i][col] / lead
            if f == 0:
                continue
            for j in range(col, n):
                work[i][j] -= f * work[col][j]
    return sign * d


def inverse(m):
    """Gauss-Jordan inverse; raises Singular when there is none."""
    work = _copy(m)
    n = len(work)
    aug = [work[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        row = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if row is None:
            raise Singular("matrix is singular")
        aug[col], aug[row] = aug[row], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for i in range(n):
            if i == col:
                continue
            f = aug[i][col]
            if f == 0:
                continue
            aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def adjugate(m):
    """Transposed cofactor matrix, by minors (exact, any square input)."""
    r = len(m)
    if any(len(row) != r for row in m):
        raise ValueError("adjugate of a non-square matrix")
    return [
        [
            (-1) ** (i + j) * det([row[:i] + row[i + 1:] for p, row in enumerate(m) if p != j])
            for j in range(r)
        ]
        for i in range(r)
    ]


def signed_minors(m):
    """z[i] = (-1)**(i+r-1) * det(m without row i) for an r x (r-1) matrix:
    the cofactors of a new last column, so det([m | v]) = z·v."""
    r = len(m)
    return [(-1) ** (i + r - 1) * det(m[:i] + m[i + 1:]) for i in range(r)]


def transpose(m):
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def mat_mul(a, b):
    return transpose([mat_vec(a, list(col)) for col in zip(*b)])


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(a))]


def solve(a, b):
    """Solve a square nonsingular system a·x = b exactly."""
    return mat_vec(inverse(a), b)


def parse_frac(tok):
    return Fraction(tok)


def independent_rows(m, order):
    """Greedy scan: keep each row that raises the rank of the rows kept,
    which is each row left nonzero after reducing it against an echelon
    basis of the rows kept."""
    kept = []
    basis = {}  # pivot column -> basis row with 1 there
    for i in order:
        if len(kept) == len(m[0]):
            break
        v = [Fraction(x) for x in m[i]]
        for col, row in basis.items():
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            basis[col] = [x / v[col] for x in v]
            kept.append(i)
    return kept


def pivot_row(b):
    """Smallest 1-based k with b[k, last] != 0 whose removal, with the last
    column, leaves a nonzero minor; None when there is no such k."""
    s = len(b)
    for k in range(1, s + 1):
        if b[k - 1][s - 1] == 0:
            continue
        if s == 1:
            return k
        minor = [row[: s - 1] for idx, row in enumerate(b, start=1) if idx != k]
        if det(minor) != 0:
            return k
    return None


def minimal_reduce_parents(rows, trace=None):
    """The former deterministic minimal reduction of a full-rank (c+1) x c
    matrix, re-ranking every trial row: the 1-based parent of each row.

    When `trace` is a list, each step that picks a row for its column
    appends the column and, for the top rows in order, a triple: the row,
    whether the minor without it is nonzero (its cofactor in y), and
    whether it meets the column; rows and columns are 1-based."""
    assign = {}

    def step(rows, row_ids, col_ids):
        c = len(col_ids)
        if c == 1:
            for rid in row_ids:
                assign[rid] = col_ids[0]
            return
        j0 = next(
            (jj for jj in range(c) if all(any(row[q] for q in range(c) if q != jj) for row in rows)),
            None,
        )
        if j0 is None:
            for jj in range(c):
                owner = next(
                    i for i, row in enumerate(rows)
                    if row[jj] and not any(row[q] for q in range(c) if q != jj)
                )
                assign[row_ids[owner]] = col_ids[jj]
            for i, row in enumerate(rows):
                if row_ids[i] not in assign:
                    assign[row_ids[i]] = col_ids[next(jj for jj in range(c) if row[jj])]
            return
        others = [jj for jj in range(c) if jj != j0]
        top = independent_rows(rows, range(len(rows)))
        leftover = next(i for i in range(len(rows)) if i not in top)
        b = [[rows[i][q] for q in others] + [rows[i][j0]] for i in top]
        if trace is not None:
            minors = [det([row[:-1] for row in b[:k] + b[k + 1:]]) for k in range(len(b))]
            trace.append((col_ids[j0], [(row_ids[i], m != 0, rows[i][j0] != 0) for i, m in zip(top, minors)]))
        bottom = top[pivot_row(b) - 1]
        assign[row_ids[bottom]] = col_ids[j0]
        sub = [i for i in top if i != bottom] + [leftover]
        step([[rows[i][q] for q in others] for i in sub], [row_ids[i] for i in sub], [col_ids[q] for q in others])

    step(rows, list(range(1, len(rows) + 1)), list(range(1, len(rows[0]) + 1)))
    return tuple(assign[i] for i in range(1, len(rows) + 1))


def auto_completion(rows):
    """The former Auto completion: the first unit column whose square has a
    nonzero determinant, by trial determinants; None when there is none."""
    for i in range(len(rows)):
        square = [list(row) + [int(p == i)] for p, row in enumerate(rows)]
        if det(square) != 0:
            return square
    return None


def multiplicity_rows(rows):
    """The former MultiplicityMatrix check, one row at a time: each row
    through diagram.int_row, then the shape and sign of the whole."""
    data = tuple(diagram.int_row(row, i) for i, row in enumerate(rows, start=1))
    if not data or not data[0]:
        raise ValueError("matrix must have at least one row and column")
    width = len(data[0])
    for row in data:
        if len(row) != width:
            raise ValueError("ragged matrix")
        if min(row) < 0:
            raise ValueError("multiplicities must be nonnegative")
    return data


def dense_supports(rows):
    """Each row's 1-based support columns, scanning every entry."""
    return [tuple(j for j, x in enumerate(row, start=1) if x) for row in rows]


def dense_column_supports(rows):
    """Each column's 0-based rows with a nonzero entry, scanning every
    entry."""
    return [tuple(i for i, x in enumerate(col) if x) for col in zip(*rows)]


def zero_lines(rows):
    """diagram.zero_lines by dense scans: each zero row, then each zero
    column, 1-based."""
    return [f"row {i} is zero" for i, row in enumerate(rows, start=1) if not any(row)] + [
        f"column {j} is zero" for j, col in enumerate(zip(*rows), start=1) if not any(col)
    ]


def unique_minimal(rows):
    """The forcing test by dense scans: whether every row has one nonzero
    entry, and then the one column with two rows when every other column
    has one."""
    if any(sum(1 for x in row if x) != 1 for row in rows):
        return False, None
    counts = [sum(1 for x in col if x) for col in zip(*rows)]
    doubled = [j for j, n in enumerate(counts, start=1) if n == 2]
    if len(doubled) == 1 and all(n in (1, 2) for n in counts):
        return True, doubled[0]
    return True, None


def enumerate_reductions(mat):
    """Every surjective support assignment in lexicographic order, walking
    each partial choice with only the count and union tests."""
    r, c = mat.nrows, mat.ncols
    supports = dense_supports(mat.rows)
    tail_union = [set() for _ in range(r + 1)]
    for i in range(r - 1, -1, -1):
        tail_union[i] = tail_union[i + 1] | set(supports[i])
    results = []
    choice = [0] * r

    def walk(i, uncovered):
        if len(uncovered) > r - i or not uncovered <= tail_union[i]:
            return
        if i == r:
            results.append(tuple(choice))
            return
        for j in supports[i]:
            choice[i] = j
            walk(i + 1, uncovered - {j})

    walk(0, set(range(1, c + 1)))
    return results


def lex_first_reduction(mat):
    """First surjective support assignment in lexicographic order, or None."""
    r, c = mat.nrows, mat.ncols
    supports = dense_supports(mat.rows)
    tail_union = [set() for _ in range(r + 1)]
    for i in range(r - 1, -1, -1):
        tail_union[i] = tail_union[i + 1] | set(supports[i])
    choice = [0] * r

    def walk(i, uncovered):
        if len(uncovered) > r - i or not uncovered <= tail_union[i]:
            return None
        if i == r:
            return tuple(choice)
        for j in supports[i]:
            choice[i] = j
            got = walk(i + 1, uncovered - {j})
            if got is not None:
                return got
        return None

    return walk(0, set(range(1, c + 1)))


def square_bijection(mat):
    """Lexicographically first support bijection of a square matrix by
    backtracking, or None when there is none."""
    n = mat.nrows
    supports = dense_supports(mat.rows)
    used = [False] * (n + 1)
    choice = [0] * n

    def place(i):
        if i == n:
            return True
        for j in supports[i]:
            if not used[j]:
                used[j] = True
                choice[i] = j
                if place(i + 1):
                    return True
                used[j] = False
        return False

    return tuple(choice) if place(0) else None


# ---------------------------------------------------------------------------
# the K0 query path over Fractions


# a chain never changes, so its products and inverses are computed once
@cache
def u_matrix(chain, n):
    """The chain's product at depth n over Fractions, padded with identity
    lines up to each next square's size."""
    u = [[Fraction(1)]]
    for sq in chain.squares[:n]:
        while len(u) < len(sq):
            u = [row + [Fraction(0)] for row in u] + [[Fraction(0)] * len(u) + [Fraction(1)]]
        u = mat_mul([list(row) for row in sq], u)
    return u


@cache
def a_matrix(chain, n):
    return inverse(u_matrix(chain, n))


def r_map(beta, tree):
    """Each vertex sums the coefficients of the levels whose distinguished
    vertex is its ancestor, found by walking up from the vertex."""
    n = len(beta) - 1
    rs = [1] + [tree.branch(lev).big_child for lev in range(1, n + 1)]
    tree.ensure_depth(n)
    values = []
    for j in range(1, tree.level_count(n) + 1):
        total = Fraction(0)
        for lev in range(n + 1):
            if tree.ancestor(n, j, lev) == rs[lev]:
                total += Fraction(beta[lev])
        values.append(total)
    return LocallyConstantFunction(n, tuple(values))


def phi(alpha, chain, tree):
    n = len(alpha) - 1
    return r_map(mat_vec(a_matrix(chain, n), [Fraction(x) for x in alpha]), tree)


def phi_type1(a, chain, tree):
    """The former constant-width realization: the inverse of each square,
    in level order, applied to the value vector.  The function sits at the
    level the chain reaches, one past its depth when the root is narrower
    than the squares (a bootstrap column comes first)."""
    if len({len(sq) for sq in chain.squares}) > 1:
        raise ValueError("growing chains use phi")
    values = [Fraction(x) for x in a]
    for k in range(chain.depth - 1, -1, -1):
        values = mat_vec(inverse([list(r) for r in chain.squares[k]]), values)
    d = chain.depth + (len(chain.squares[0]) != 1)
    tree.ensure_depth(d)
    if len(values) != tree.level_count(d):
        raise ValueError("vector length does not match the level width")
    return LocallyConstantFunction(d, tuple(values))


def to_R_basis(func, tree):
    """Invert r_map over Fractions: peel one level at a time from the deepest."""
    n = func.depth
    tree.ensure_depth(n)
    gamma = list(func.values)
    beta = [Fraction(0)] * (n + 1)
    for lev in range(n, 0, -1):
        b = tree.branch(lev)
        beta[lev] = gamma[b.big_child - 1] - gamma[b.small_child - 1]
        shallower = [Fraction(0)] * tree.level_count(lev - 1)
        for child in range(1, tree.level_count(lev) + 1):
            if child != b.big_child:
                shallower[tree.ancestor(lev, child, lev - 1) - 1] = gamma[child - 1]
        gamma = shallower
    beta[0] = gamma[0]
    return tuple(beta)


def witness_vector(func, chain, tree):
    return tuple(mat_vec(u_matrix(chain, func.depth), list(to_R_basis(func, tree))))


def refine(func, to_depth, tree):
    if to_depth == func.depth:
        return func
    tree.ensure_depth(to_depth)
    values = []
    for j in range(1, tree.level_count(to_depth) + 1):
        values.append(func.values[tree.ancestor(to_depth, j, func.depth) - 1])
    return LocallyConstantFunction(to_depth, tuple(values))


def indicator(cylinders, tree):
    cyls = [cylinders] if isinstance(cylinders, Cylinder) else list(cylinders)
    depth = max(c.level for c in cyls)
    tree.ensure_depth(depth)
    values = [Fraction(0)] * tree.level_count(depth)
    for j in range(1, tree.level_count(depth) + 1):
        for c in cyls:
            if tree.ancestor(depth, j, c.level) == c.vertex:
                values[j - 1] = Fraction(1)
                break
    return LocallyConstantFunction(depth, tuple(values))


def r_map_loop(beta, tree, denominator=1):
    """The former r_map pass: each level's sums built one vertex at a time
    from its 1-based parent tuple, one list per level, where brattice.k0
    keeps one sum per lineage."""
    n = len(beta) - 1
    levels, branches = tree.levels(n)
    rs = [1] + [b.big_child for b in branches]
    sums = [beta[0]]
    for lev, parents in enumerate(levels, start=1):
        sums = [sums[p - 1] for p in parents]
        sums[rs[lev] - 1] += beta[lev]
    return LocallyConstantFunction(n, tuple(Fraction(v, denominator) for v in sums))


def clear_denominators(v):
    """The former matops.clear_denominators: every entry rebuilt through
    Fraction(), whatever its type."""
    if set(map(type, v)) <= {int}:
        return list(v), 1
    fr = [Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr], d


def R_numerators_loop(func, tree):
    """The former integer peel: each child but the level's larger branch
    child hands its value to its parent, one vertex at a time; a childless
    parent keeps 0."""
    n = func.depth
    levels, branches = tree.levels(n)
    counts = [1] + [len(parents) for parents in levels]
    gamma, d = clear_denominators(func.values)
    beta = [0] * (n + 1)
    for lev in range(n, 0, -1):
        b = branches[lev - 1]
        beta[lev] = gamma[b.big_child - 1] - gamma[b.small_child - 1]
        shallower = [0] * counts[lev - 1]
        for child, parent in enumerate(levels[lev - 1], start=1):
            if child != b.big_child:
                shallower[parent - 1] = gamma[child - 1]
        gamma = shallower
    beta[0] = gamma[0]
    return beta, d


def R_numerators_gathers(func, tree):
    """The former gather-map peel: each level's values move one level up
    through its `up` map, each parent's 0-based first child, or one past
    the level's last vertex, where a 0 is appended, when it has none."""
    n = func.depth
    levels, branches = tree.levels(n)
    gamma, d = clear_denominators(func.values)
    beta = [0] * (n + 1)
    for lev in range(n, 0, -1):
        down = [p - 1 for p in levels[lev - 1]]
        up = [len(down)] * (len(levels[lev - 2]) if lev > 1 else 1)
        for child in range(len(down) - 1, -1, -1):
            up[down[child]] = child
        b = branches[lev - 1]
        beta[lev] = gamma[b.big_child - 1] - gamma[b.small_child - 1]
        gamma.append(0)
        gamma = list(map(gamma.__getitem__, up))
    beta[0] = gamma[0]
    return beta, d


def lineage_walk(tree, level, vertex):
    """A vertex's lineage, one ancestor step at a time: climb while the
    vertex is its parent's first child.  The root is lineage 0, and a
    vertex that is not its parent's first child started the lineage whose
    number counts the children that are not first, at the levels above and
    at its own level through itself."""
    levels, _ = tree.levels(level)
    while level > 0:
        parents = levels[level - 1]
        parent = parents[vertex - 1]
        if parents.index(parent) != vertex - 1:
            above = sum(len(ps) - len(set(ps)) for ps in levels[: level - 1])
            before = sum(parents.index(p) != c for c, p in enumerate(parents[:vertex]))
            return above + before
        vertex, level = parent, level - 1
    return 0


def lineages_walk(tree, n):
    """Each level's vertex lineages through level n, and `born`: for each
    child that is not its parent's first, in level order, its parent's
    lineage, all by lineage_walk."""
    levels, _ = tree.levels(n)
    lineages, born = [], []
    for lev, parents in enumerate(levels, start=1):
        lineages.append(tuple(lineage_walk(tree, lev, v) for v in range(1, len(parents) + 1)))
        for c, p in enumerate(parents):
            if parents.index(p) != c:
                born.append(lineage_walk(tree, lev - 1, p))
    return lineages, born


def refine_loop(func, to_depth, tree):
    """The former refine pass: each vertex takes its parent's value, one
    vertex at a time and one list per level, where brattice.pathspace reads
    each vertex's lineage once."""
    levels, _ = tree.levels(to_depth)
    values = func.values
    for parents in levels[func.depth:]:
        values = [values[p - 1] for p in parents]
    return LocallyConstantFunction(to_depth, tuple(values))


def census_floor(tree, depth):
    """(frontier vertices, those whose parent or grandparent is the branch
    parent of the last level or the one above), one ancestor walk each."""
    tree.ensure_depth(depth)
    frontier = tree.level_count(depth)
    recent = 0
    for j in range(1, frontier + 1):
        for lev in (depth, depth - 1):
            b = tree.branch(lev) if lev >= 1 else None
            if b is not None and tree.ancestor(depth, j, lev - 1) == b.parent:
                recent += 1
                break
    return frontier, recent


def commuting_check(n, alpha, chain, tree):
    """One square of the level diagram: push the vector, compare the
    library's functions."""
    f_here = k0.phi(alpha, chain, tree)
    pushed = mat_vec(tree.diagram.matrix(n).to_lists(), [Fraction(x) for x in alpha])
    f_next = k0.phi(pushed, chain, tree)
    return functions_equal(pathspace.refine(f_here, n + 1, tree), f_next, tree)


def exactness_report(chain, n):
    """Cross-checks tying a chain's dets, adjugates and scales together at
    depth n: the library's products, inverses and scales against the
    Fraction determinant and adjugate above."""
    u = [list(row) for row in chain.u_matrix(n)]
    a = chain.a_matrix(n)
    det_u = det(u)
    prod = Fraction(1)
    for d in chain.dets[:n]:
        prod *= d
    adj = adjugate(u)
    scale = chain.group_scale(n)
    return {
        "det_matches_product": det_u == prod,
        "adjugate_law": adj == [[det_u * x for x in row] for row in a],
        "adjugate_integral": all(x.denominator == 1 for row in adj for x in row),
        "scaled_inverse_integral": all((scale * x).denominator == 1 for row in a for x in row),
    }


def automorphism_probe(theta, realizer, depth):
    """The former probe: every candidate is realized and tested, subset
    indicators up to k0.CANDIDATE_CAP included, in the order the library
    counts them; the first whose relabeled image has no integer witness
    breaks the probe."""
    m = realizer.tree.level_count(depth)
    images = [int(t) for t in theta]
    if sorted(images) != list(range(1, m + 1)):
        raise ValueError(f"theta must permute 1..{m}")
    inverse = [0] * m
    for i, t in enumerate(images, start=1):
        inverse[t - 1] = i

    def basis(*idx):
        return tuple(int(p in idx) for p in range(1, m + 1))

    candidates = dict.fromkeys(basis(i, t) for i, t in enumerate(images, start=1) if t != i)
    candidates.update(dict.fromkeys(map(basis, range(1, m + 1))))
    subsets = (
        combo for size in range(2, m) for combo in itertools.combinations(range(1, m + 1), size)
    )
    for combo in subsets:
        if len(candidates) >= k0.CANDIDATE_CAP:
            break
        candidates.setdefault(basis(*combo))

    checked = 0
    for alpha in candidates:
        func = realizer.phi(alpha)
        pulled = LocallyConstantFunction(
            depth, tuple(func.values[inverse[j - 1] - 1] for j in range(1, m + 1))
        )
        verdict = realizer.membership(pulled)
        checked += 1
        if isinstance(verdict, k0.NotMember):
            return k0.Broken(func, pulled)
    return k0.Preserved(checked)


# ---------------------------------------------------------------------------
# small helpers that only tests use, kept out of the library


def mat_eq(a, b):
    """Equal shapes and equal entries, compared as Fractions."""
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(Fraction(x) == Fraction(y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_integral(m):
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def scale(m, s):
    s = Fraction(s)
    return [[s * x for x in row] for row in m]


def has_positive_rows_and_cols(mat):
    """No zero row and no zero column in a MultiplicityMatrix."""
    return all(any(row) for row in mat.rows) and all(any(col) for col in zip(*mat.rows))


def col_support(mat, j):
    """1-based rows where column j (1-based) of a MultiplicityMatrix is
    positive, read off its kept column view."""
    return tuple(i + 1 for i in mat.column_supports[j - 1])


def size_vector(diagram, n):
    """Integer sizes at level n: start at (1,), multiply upward."""
    v = [1]
    for k in range(n):
        v = [sum(a * x for a, x in zip(row, v)) for row in diagram.matrix(k).rows]
    return tuple(v)


def r_vertices(tree, n):
    """The distinguished vertex at each level 0..n: root, then the larger
    branch child."""
    return [1] + [b.big_child for b in tree.levels(n)[1]]


def functions_equal(f, g, tree):
    deep = max(f.depth, g.depth)
    return pathspace.refine(f, deep, tree).values == pathspace.refine(g, deep, tree).values


def exact_fractions(func):
    """Every value of the function is a Fraction of exactly that type."""
    return all(type(v) is Fraction for v in func.values)


def lcf_add(f, g):
    if f.depth != g.depth:
        raise ValueError("functions live at different depths; refine first")
    return LocallyConstantFunction(f.depth, tuple(a + b for a, b in zip(f.values, g.values)))


def lcf_scale(f, s):
    s = Fraction(s)
    return LocallyConstantFunction(f.depth, tuple(s * v for v in f.values))


def gicar_level(n):
    rows = []
    for i in range(1, n + 3):
        row = [0] * (n + 1)
        for j in (i - 1, i):
            if 1 <= j <= n + 1:
                row[j - 1] = 1
        rows.append(row)
    return rows


def dyadic_level(n):
    rows = []
    for i in range(1, n + 1):
        row = [0] * (n + 1)
        row[i - 1] = 1
        rows.append(row)
    big = [0] * (n + 1)
    big[n] = 2 ** (n + 1)
    rows.append(big)
    last = [0] * (n + 1)
    last[n] = 1
    rows.append(last)
    return rows


def dupline_level(n):
    rows = []
    for i in range(1, n + 2):
        row = [0] * (n + 1)
        row[i - 1] = 1
        rows.append(row)
    last = [0] * (n + 1)
    last[n] = 1
    rows.append(last)
    return rows


FAMILY_LEVELS = {"gicar": gicar_level, "dyadic": dyadic_level, "dupline": dupline_level}
