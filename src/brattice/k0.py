"""The ordered group of a diagram, realized as functions on the boundary.

Each level's multiplicity matrix gains one integer column to become
invertible; the resulting chain turns integer vectors into locally
constant rational functions on the tree boundary.  Everything is exact:
denominators are tracked through signed determinants, and membership of a
function comes down to integrality of one vector.  Chain products and their
inverses are integer matrices (an inverse over one denominator), so queries
run over Python ints and Fractions appear only in the answers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from . import matops
from .diagram import check_valid, int_row
from .errors import (
    DepthExceeded,
    NotInK0,
    NotUniqueMinimal,
    RankDeficient,
    Singular,
    SingularCompletion,
)
from .pathspace import (
    LocallyConstantFunction,
    MinimalDiagram,
    UserMap,
)
from .record import Record
from .reduction import is_unique_minimal


# ---------------------------------------------------------------------------
# completions


class Auto(Record):
    """The first standard basis column that makes the square invertible.

    A rank-c (c+1) x c matrix spans only c dimensions, so some e_i lies
    outside its column space: the first i where the left null vector of
    the matrix is nonzero.
    """

    def column(self, mat, z):
        i = next(p for p, x in enumerate(z) if x)
        return [int(p == i) for p in range(len(z))]


class ExplicitColumn(Record):
    """A given integer column, one entry per row."""

    entries: tuple
    label = "explicit column"

    def column(self, mat, z):
        col = [int_row((x,), i)[0] for i, x in enumerate(self.entries, start=1)]
        if len(col) != mat.nrows:
            raise ValueError(f"column needs {mat.nrows} entries, got {len(col)}")
        return col


def complete_matrix(mat, hint=Auto()):
    """Append one integer column making a (c+1) x c step invertible.

    Returns the square as a tuple of integer rows, and its determinant.  A
    hint is any object with `column(mat, z)`, which returns the new column
    given the matrix and its left null vector z, and a `label` that names
    it when that column keeps the square singular.
    """
    r, c = mat.nrows, mat.ncols
    if r != c + 1:
        raise ValueError(f"completion needs one more row than columns, got {r}x{c}")
    # z is the signed cofactor vector of the matrix, so det([mat | v]) is
    # z·v: a Laplace expansion along the new column
    try:
        z = matops.left_null_vector(mat.rows)
    except Singular:
        raise RankDeficient(f"rank is below {c}") from None
    column = getattr(hint, "column", None)
    if column is None:
        raise TypeError(f"unknown completion hint {hint!r}")
    col = column(mat, z)
    det = sum(map(mul, z, col))
    if not det:
        raise SingularCompletion(f"{hint.label} keeps the matrix singular")
    return tuple(row + (x,) for row, x in zip(mat.rows, col)), det


# ---------------------------------------------------------------------------
# chains


class CompletedChain:
    """Invertible integer squares, one per level, with cached integer
    products and inverses.

    Square sizes either rise by one per level from 2x2 or stay constant;
    the running product starts from [[1]] and pads with identity lines up
    to each next square's size, so both readings share one product.
    """

    def __init__(self, pairs):  # one (square, det) pair per level
        if not pairs:
            raise ValueError("chain needs at least one completion")
        self.squares, self.dets = zip(*pairs)
        sizes = [len(s) for s in self.squares]
        if len(set(sizes)) > 1:
            if any(b != a + 1 for a, b in zip(sizes, sizes[1:])):
                raise ValueError(f"level sizes {sizes} neither grow by one nor stay constant")
            if sizes[0] != 2:
                raise ValueError(f"growing chains start with a 2x2 square, got {sizes[0]}")
        self._u = [[[1]]]  # _u[n] is the integer product at depth n, extended lazily
        self._inverse = {}  # depth -> (integer numerators, positive denominator)
        self._bands = {}  # (depth, inverse?) -> band view of the product or its inverse

    @property
    def depth(self):
        return len(self.squares)

    def group_scale(self, n):
        """Denominator bound at depth n: product of |det| over the first n levels."""
        if n > self.depth:
            raise DepthExceeded(f"chain has depth {self.depth}, asked for {n}")
        out = 1
        for d in self.dets[:n]:
            out *= abs(d)
        return out

    def u_matrix(self, n):
        """Integer product taking basis vectors at depth n to R-basis vectors,
        extended one level at a time from the deepest product computed."""
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"chain has depth {self.depth}, asked for {n}")
        u = self._u
        while len(u) <= n:
            prev = u[-1]
            square = self.squares[len(u) - 1]
            grow = len(square) - len(prev)
            if grow:
                prev = [row + [0] * grow for row in prev] + matops.identity(len(square))[len(prev):]
            u.append(matops.mat_mul(square, prev))
        return u[n]

    def inverse_parts(self, n):
        """The inverse of u_matrix(n) as integer numerators over one positive
        denominator, computed on the first query at depth n."""
        if n not in self._inverse:
            self._inverse[n] = matops.int_inverse(self.u_matrix(n))
        return self._inverse[n]

    def band(self, n, inverse=False):
        """The band view (matops.band_rows) of u_matrix(n), or of the
        numerators of inverse_parts(n), built on the first query at depth n."""
        key = (n, inverse)
        if key not in self._bands:
            m = self.inverse_parts(n)[0] if inverse else self.u_matrix(n)
            self._bands[key] = matops.band_rows(m)
        return self._bands[key]

    def a_matrix(self, n):
        """Rational inverse of u_matrix(n), built from inverse_parts(n)."""
        nums, d = self.inverse_parts(n)
        return [[Fraction(x, d) for x in row] for row in nums]


def build_chain(squares):
    """Wrap completed squares into a chain, checking that each is square
    and invertible."""
    pairs = []
    for k, raw in enumerate(squares):
        try:
            rows = tuple(int_row(row, i) for i, row in enumerate(raw, start=1))
        except ValueError as exc:
            raise ValueError(f"completion {k}: {exc}") from None
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(f"completion {k} is not square")
        d = matops.det([list(r) for r in rows])
        if d == 0:
            raise SingularCompletion(f"completion {k} is singular")
        pairs.append((rows, int(d)))
    return CompletedChain(pairs)


def first_square(diagram):
    """The index of the first matrix a chain completes or takes as it is: 1
    when a type1 diagram's matrix 0 is a bootstrap column of width above 1,
    else 0."""
    if diagram.shape.kind != "type1":
        return 0
    mat = diagram.matrix(0)
    return int(mat.nrows != mat.ncols)


def complete_chain(diagram, hints, depth):
    """Build the chain that reaches level `depth`; hints may be one hint or
    a per-level list.  A type1 chain takes the diagram's squares as they
    are, from first_square on.  A level past the diagram raises
    DepthExceeded."""
    diagram.check_depth(depth)
    if diagram.shape.kind == "type1":
        return build_chain([diagram.matrix(k).rows for k in range(first_square(diagram), depth)])
    if hasattr(hints, "column"):
        hints = [hints] * depth
    # complete_matrix hands back each determinant with its square
    pairs = [
        complete_matrix(diagram.matrix(k), hints[k] if k < len(hints) else Auto())
        for k in range(depth)
    ]
    return CompletedChain(pairs)


# ---------------------------------------------------------------------------
# the R basis


def _big_children(branches):
    """The distinguished vertex at each level 0..n from the branch records
    of levels 1..n: root, then the larger branch child."""
    out = [1]
    for lev, b in enumerate(branches, start=1):
        if b is None:
            raise ValueError(f"level {lev} does not branch exactly once")
        out.append(b.big_child)
    return out


def r_map(beta, tree, denominator=1):
    """Turn basis coefficients into a function: each coefficient rides the
    cylinder at its level's distinguished vertex, and every value is divided
    by `denominator`.

    One pass down the tree's gather maps: a vertex's sum is its parent's,
    plus beta[lev] when it is the level's distinguished vertex.  Integer
    coefficients stay integer until the final division.
    """
    n = len(beta) - 1
    gathers, branches = tree.gathers(n)
    rs = _big_children(branches)
    sums = [beta[0]]
    for lev, (down, _) in enumerate(gathers, start=1):
        sums = list(map(sums.__getitem__, down))
        sums[rs[lev] - 1] += beta[lev]
    return LocallyConstantFunction(n, tuple(Fraction(v, denominator) for v in sums))


def _R_numerators(func, tree):
    """The coefficients of to_R_basis as integer numerators over one
    positive denominator: the values are cleared once and peeled as ints.

    Every parent but the branch one has one child, and the branch parent's
    first child is its smaller one, so each level moves up the tree's `up`
    gather map; a childless parent reads the 0 appended past the level.
    """
    n = func.depth
    gathers, branches = tree.gathers(n)
    _big_children(branches)  # every level must branch exactly once
    width = len(gathers[-1][0]) if n else 1
    gamma, d = matops.clear_denominators(func.values)
    if len(gamma) != width:
        raise ValueError(f"level {n} has {width} vertices, got {len(gamma)} values")
    beta = [0] * (n + 1)
    for lev in range(n, 0, -1):
        b = branches[lev - 1]
        beta[lev] = gamma[b.big_child - 1] - gamma[b.small_child - 1]
        gamma.append(0)
        gamma = list(map(gamma.__getitem__, gathers[lev - 1][1]))
    beta[0] = gamma[0]
    return beta, d


def to_R_basis(func, tree):
    """Invert r_map: peel one level at a time from the deepest."""
    beta, d = _R_numerators(func, tree)
    return tuple(Fraction(x, d) for x in beta)


# ---------------------------------------------------------------------------
# the realization maps


def phi(alpha, chain, tree):
    """Function of an integer (or rational) vector at its own depth."""
    if tree.diagram.shape.kind == "type1":
        raise ValueError("type1 diagrams realize through Type1Realizer")
    n = len(alpha) - 1
    _, d = chain.inverse_parts(n)
    ints, scale = matops.clear_denominators(alpha)
    return r_map(matops.band_vec(chain.band(n, inverse=True), ints), tree, d * scale)


# ---------------------------------------------------------------------------
# membership and positivity


class K0Witness(Record):
    alpha: tuple
    depth: int


class NotMember(Record):
    depth_checked: int


def _witness_numerators(func, chain, tree):
    """The coordinate vector of a function at its own depth, as integer
    numerators over one positive denominator."""
    beta, d = _R_numerators(func, tree)
    return matops.band_vec(chain.band(func.depth), beta), d


def witness_vector(func, chain, tree):
    """The exact coordinate vector of a function at its own depth, integral
    or not."""
    w, d = _witness_numerators(func, chain, tree)
    return tuple(Fraction(x, d) for x in w)


def membership(func, chain, tree):
    """Exact integrality test at the function's own depth."""
    w, d = _witness_numerators(func, chain, tree)
    if all(x % d == 0 for x in w):
        return K0Witness(tuple(x // d for x in w), func.depth)
    return NotMember(func.depth)


class Positive(Record):
    level: int
    witness: tuple


class NotPositiveUpTo(Record):
    bound: int | None  # None: definitively never nonnegative


class Unknown(Record):
    checked: int


def positivity(func, chain, tree, bound=None):
    """Scan pushforwards of the witness for an all-nonnegative level."""
    verdict = membership(func, chain, tree)
    if isinstance(verdict, NotMember):
        raise NotInK0(f"no integer witness at depth {verdict.depth_checked}")
    if bound is None:
        bound = tree.diagram.level_bound()
    alpha = list(verdict.alpha)
    level = verdict.depth
    while True:
        if all(x >= 0 for x in alpha):
            return Positive(level, tuple(alpha))
        if level >= bound:
            return NotPositiveUpTo(bound)
        try:
            mat = tree.diagram.matrix(level)
        except DepthExceeded:
            return Unknown(level)
        alpha = matops.mat_vec(mat.rows, alpha)
        level += 1


# ---------------------------------------------------------------------------
# realizers
#
# A realizer owns a reduced tree and answers phi(alpha), membership(func)
# and positivity(func, bound=None) through it.


class ChainRealizer:
    """A completed chain read through a reduced tree."""

    def __init__(self, chain, tree):
        self.chain = chain
        self.tree = tree

    def phi(self, alpha):
        return phi(alpha, self.chain, self.tree)

    def membership(self, func):
        return membership(func, self.chain, self.tree)

    def positivity(self, func, bound=None):
        return positivity(func, self.chain, self.tree, bound)


class Type1Realizer:
    """A type1 diagram's squares from first_square on, read as one chain
    down to `level`.  Its levels keep one width and never branch, so phi
    reads no tree, and membership and positivity, which peel branches, do
    not apply."""

    def __init__(self, diagram, level):
        self.diagram = diagram
        self.level = level

    def phi(self, alpha):
        chain = complete_chain(self.diagram, Auto(), self.level)
        _, den = chain.inverse_parts(chain.depth)
        ints, scale = matops.clear_denominators(alpha)
        values = matops.band_vec(chain.band(chain.depth, inverse=True), ints)
        return LocallyConstantFunction(self.level, tuple(Fraction(v, den * scale) for v in values))


class WeightScheme:
    """Per-vertex integer weights on a diagram whose reductions are forced.

    k(root) = 1 and every child multiplies its parent's weight by the one
    multiplicity on its parent edge.  The closed form values functions as
    alpha_i / k(i, n), so membership and positivity become immediate.
    """

    def __init__(self, diagram):
        check_valid(diagram)
        self.diagram = diagram
        self.tree = MinimalDiagram(diagram, UserMap(()))
        self._k = [(1,)]

    @property
    def depth(self):
        return len(self._k) - 1

    def ensure_depth(self, n):
        self.diagram.check_depth(n)
        while self.depth < n:
            self._extend()
        return self

    def _extend(self):
        level = self.depth  # matrix index to absorb next
        mat = self.diagram.matrix(level)
        flag, j = is_unique_minimal(mat)
        if not flag:
            raise NotUniqueMinimal(f"matrix {level} admits several reductions")
        if j is None:
            raise NotUniqueMinimal(f"matrix {level} does not grow by a single branch")
        self.tree.ensure_depth(level + 1)
        # every row has one parent edge, the tree's choice
        prev = self._k[level]
        row = tuple(x[q] * prev[q] for x, (q,) in zip(mat.rows, mat.supports))
        self._k.append(row)

    def weights(self, level):
        self.ensure_depth(level)
        return self._k[level]

    def b(self, level):
        """Weight of the larger branch child created by matrix `level`."""
        self.ensure_depth(level + 1)
        return self._k[level + 1][self.tree.branch(level + 1).big_child - 1]

    def chain(self, depth):
        """The chain whose level-k column is b(k) at the larger branch child.

        No completion is singular.  Every row of a forced single-growth
        matrix meets one column, so its left null vector z vanishes on every
        row but the branch column's two and is nonzero on both; the new
        column then gives det = z[big] * b(k), a product of nonzero factors.
        """
        self.ensure_depth(depth)
        _, branches = self.tree.levels(depth)
        pairs = []
        for level, branch in enumerate(branches):
            mat = self.diagram.matrix(level)
            column = [0] * mat.nrows
            column[branch.big_child - 1] = self.b(level)
            pairs.append(complete_matrix(mat, ExplicitColumn(column)))
        return CompletedChain(pairs)

    def phi(self, alpha):
        n = len(alpha) - 1
        ks = self.weights(n)
        values = tuple(Fraction(a) / ks[i] for i, a in enumerate(alpha))
        return LocallyConstantFunction(n, values)

    def membership(self, func):
        n = func.depth
        ks = self.weights(n)
        if len(func.values) != len(ks):
            raise ValueError(f"level {n} has {len(ks)} vertices, got {len(func.values)} values")
        alpha = [v * ks[i] for i, v in enumerate(func.values)]
        if all(x.denominator == 1 for x in alpha):
            return K0Witness(tuple(int(x) for x in alpha), n)
        return NotMember(n)

    def positivity(self, func, bound=None):
        """Decided at the function's own depth, so `bound` goes unread."""
        verdict = self.membership(func)
        if isinstance(verdict, NotMember):
            raise NotInK0(f"no integer witness at depth {verdict.depth_checked}")
        if all(v >= 0 for v in func.values):
            return Positive(func.depth, verdict.alpha)
        return NotPositiveUpTo(None)


# ---------------------------------------------------------------------------
# derived probes


class Preserved(Record):
    checked: int


class Broken(Record):
    witness: LocallyConstantFunction
    image: LocallyConstantFunction


def automorphism_probe(theta, realizer, depth, candidate_cap=512):
    """Does relabeling depth-`depth` vertices by `theta` preserve the group?

    Candidates are realized members: pair vectors over moved vertices first,
    then single basis vectors, then indicators of vertex subsets.  The first
    candidate whose relabeled image has no integer witness breaks the probe.
    Basis vectors realize generators, so `candidate_cap` drops only subsets.
    """
    m = realizer.tree.level_count(depth)
    images = int_row(theta, 1)
    if sorted(images) != list(range(1, m + 1)):
        raise ValueError(f"theta must permute 1..{m}")
    inverse = [0] * m
    for i, t in enumerate(images, start=1):
        inverse[t - 1] = i

    def basis(*idx):
        return [1 if (p + 1) in idx else 0 for p in range(m)]

    candidates = []
    seen = set()

    def push(alpha):
        key = tuple(alpha)
        if key not in seen:
            seen.add(key)
            candidates.append(alpha)

    for i in range(1, m + 1):
        if images[i - 1] != i:
            push(basis(i, images[i - 1]))
    for i in range(1, m + 1):
        push(basis(i))
    subsets = (
        combo for size in range(2, m) for combo in itertools.combinations(range(1, m + 1), size)
    )
    for combo in subsets:
        if len(candidates) >= candidate_cap:
            break
        push(basis(*combo))

    checked = 0
    for alpha in candidates:
        func = realizer.phi(alpha)
        pulled = LocallyConstantFunction(
            depth, tuple(func.values[inverse[j - 1] - 1] for j in range(1, m + 1))
        )
        verdict = realizer.membership(pulled)
        checked += 1
        if isinstance(verdict, NotMember):
            return Broken(func, pulled)
    return Preserved(checked)


# ---------------------------------------------------------------------------
# chain dump format


def format_chain_dump(chain):
    lines = ["chain v1"]
    for k, sq in enumerate(chain.squares):
        rows = " ; ".join(" ".join(str(x) for x in row) for row in sq)
        lines.append(f"A {k}: {rows} det={chain.dets[k]}")
    return "\n".join(lines) + "\n"
