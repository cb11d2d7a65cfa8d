"""Boundary path spaces of reduced diagrams.

A minimal diagram is a tree: each level's matrix is collapsed to one
parent per vertex by a reduction strategy.  The boundary (the space of
infinite root paths) is described through cylinders B(vertex, level) and
locally constant functions on them.  Levels materialize lazily and only
ever append, so a shared tree deepens idempotently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .config import read_uint
from .diagram import meaningful_lines
from .errors import DepthExceeded, ParseError, Uncertified, UnsupportedUserMap
from .matops import fraction
from .record import Record
from .reduction import iter_minimal_reductions, minimal_reduce, minimal_reduce_square


# ---------------------------------------------------------------------------
# strategies


class Theorem(Record):
    """Deterministic minimal reduction at every level."""

    def parents(self, mat, level):
        prev, cur = mat.ncols, mat.nrows
        if cur == prev + 1:
            return minimal_reduce(mat).parents
        if cur == prev:
            return minimal_reduce_square(mat).parents
        if prev == 1:
            return (1,) * cur
        raise UnsupportedUserMap(
            f"no canonical reduction for a {cur}x{prev} step at level {level}"
        )


class LexFirst(Record):
    """Lexicographically first valid reduction at every level."""

    def parents(self, mat, level):
        parents = next(iter_minimal_reductions(mat), None)
        if parents is None:
            raise UnsupportedUserMap(f"no valid reduction at level {level}")
        return parents


class UserMap(Record):
    """Explicit parent tuples per level; levels beyond the last supplied one
    extend only where the matrix forces a unique choice."""

    maps: tuple  # tuple of (level, parents-tuple)

    def parents(self, mat, level):
        for lev, parents in self.maps:
            if lev == level:
                return parents
        supports = mat.supports
        if all(len(support) == 1 for support in supports):
            return tuple(support[0] + 1 for support in supports)
        raise DepthExceeded(
            f"user maps end before level {level} and the matrix "
            "does not force a unique choice"
        )


LAST = 0  # positions are 1-based, so 0 is free to name a level's last vertex


class NamedFamily(Record):
    """A single-growth parent pattern.  Level n branches the parent at
    positions[(n - 1) % len(positions)], clamped to the level above, where
    LAST names its last vertex.  `census` is the closed-form (kind, count,
    condensation) of the family's ends on a tail, or None."""

    name: str
    positions: tuple
    census: tuple | None = None

    def parents(self, mat, level):
        prev, cur = mat.ncols, mat.nrows
        if cur != prev + 1:
            raise UnsupportedUserMap(
                f"family {self.name!r} needs single growth at level {level}"
            )
        a = min(self.positions[(level - 1) % len(self.positions)], prev) or prev
        return tuple(j if j <= a else j - 1 for j in range(1, cur + 1))


# the named strategies, built on demand; a family carries its rule and census
_STRATEGIES = {
    "theorem": Theorem,
    "lexfirst": LexFirst,
    "rightmost": partial(NamedFamily, "rightmost", (LAST,), ("countably-infinite", None, 1)),
    "leftmost": partial(NamedFamily, "leftmost", (1,), ("countably-infinite", None, 1)),
    "alternating": partial(NamedFamily, "alternating", (1, LAST), ("countably-infinite", None, 2)),
}


def strategy_from_string(text):
    text = text.strip().lower()
    if text in _STRATEGIES:
        return _STRATEGIES[text]()
    if text.startswith("positions:"):
        nums = tuple(map(read_uint, text[len("positions:"):].replace(",", " ").split()))
        if not nums:
            raise ValueError("positions family needs a nonempty position list")
        if 0 in nums:
            raise ValueError("positions are 1-based, got 0")
        return NamedFamily("positions", nums)
    raise ValueError(f"unknown strategy {text!r}")


# ---------------------------------------------------------------------------
# the tree


class BranchData(Record):
    """Level at which one parent carries two children."""

    parent: int  # position of the doubled parent at the level above
    small_child: int
    big_child: int


class MinimalDiagram:
    """Reduced tree over a diagram; levels appear on demand."""

    def __init__(self, diagram, strategy):
        self.diagram = diagram
        self.strategy = strategy
        self._parents = []  # _parents[k] covers level k+1, 1-based entries
        self._branches = []  # BranchData | None per materialized level
        self._gathers = []  # (down, lineage) maps per level, built by gathers()
        self.born = []  # born[L-1]: the lineage that lineage L split from

    # -- materialization

    @property
    def depth(self):
        return len(self._parents)

    def ensure_depth(self, n):
        diagram = self.diagram
        diagram.check_depth(n)
        # every level up to n lies within the bound just checked
        while self.depth < n:
            self._materialize_next(diagram._matrix(self.depth))
        return self

    def _materialize_next(self, mat):
        """Reduce `mat`, the matrix above the next level, into that level."""
        level = self.depth + 1
        choose = getattr(self.strategy, "parents", None)
        if choose is None:
            raise TypeError(f"unknown strategy {self.strategy!r}")
        parents = choose(mat, level)
        self._check_parents(level, mat, parents)
        self._parents.append(tuple(parents))
        self._branches.append(self._branch_from(parents))

    def _check_parents(self, level, mat, parents):
        rows = mat.rows
        ncols = len(rows[0])
        if len(parents) != len(rows):
            raise UnsupportedUserMap(
                f"level {level} needs {len(rows)} parents, got {len(parents)}"
            )
        for child, (row, parent) in enumerate(zip(rows, parents), start=1):
            if not (1 <= parent <= ncols) or row[parent - 1] == 0:
                raise UnsupportedUserMap(
                    f"level {level}: vertex {child} cannot attach to {parent}"
                )
        covered = set(parents)
        if len(covered) < ncols and self.diagram.shape.kind != "irregular":
            raise UnsupportedUserMap(
                f"level {level}: parents {sorted(set(range(1, ncols + 1)) - covered)} "
                "have no children"
            )

    @staticmethod
    def _branch_from(parents):
        """The branch record when one parent has two children and every
        other parent one, else None."""
        first = {}  # parent -> its first child
        branch = None
        for child, parent in enumerate(parents, start=1):
            if parent not in first:
                first[parent] = child
            elif branch is None:
                branch = BranchData(parent, first[parent], child)
            else:
                return None  # a third child, or a second doubled parent
        return branch

    # -- queries

    def _check_level(self, level, lowest=1):
        """Refuse a level below `lowest`, then materialize through `level`."""
        if level < lowest:
            raise DepthExceeded(f"no level {level}")
        self.ensure_depth(level)

    def levels(self, n):
        """Parent tuples and branch records of levels 1..n after one depth
        check, for callers that walk every level (the per-level accessors
        check the depth on each call)."""
        self._check_level(n, 0)
        return self._parents[:n], self._branches[:n]

    def gathers(self, n):
        """Gather and lineage maps and branch records of levels 1..n after
        one depth check, like levels(n).  The maps are built on the first
        reader that asks, never while a level materializes, and kept.  Per
        level, `down` holds each vertex's 0-based parent, so
        list(map(values.__getitem__, down)) moves a level's values one level
        down, and `lineage` each vertex's line of descent: a parent's first
        child carries on its parent's (the root's is 0), and every other
        child starts the next, whose parent's lineage `born` records."""
        self._check_level(n, 0)
        kept, born = self._gathers, self.born
        for parents in self._parents[len(kept):n]:
            above, seen, lineage = kept[-1][1] if kept else (0,), set(), []
            for p in parents:
                if p in seen:
                    born.append(above[p - 1])
                    lineage.append(len(born))
                else:
                    seen.add(p)
                    lineage.append(above[p - 1])
            kept.append((tuple(p - 1 for p in parents), tuple(lineage)))
        return kept[:n], self._branches[:n]

    def parents_at(self, level):
        self._check_level(level)
        return self._parents[level - 1]

    def parent(self, level, vertex):
        parents = self.parents_at(level)
        if not (1 <= vertex <= len(parents)):
            raise DepthExceeded(f"no vertex {vertex} at level {level}")
        return parents[vertex - 1]

    def branch(self, level):
        self._check_level(level)
        return self._branches[level - 1]

    def level_count(self, level):
        if level == 0:
            return 1
        return len(self.parents_at(level))

    def ancestor(self, level, vertex, to_level):
        if level <= to_level:
            return vertex
        if to_level < 0:
            raise DepthExceeded(f"no level {to_level}")
        # the first step checks level and vertex; parents above are valid
        v = self.parent(level, vertex)
        parents = self._parents
        for lev in range(level - 1, to_level, -1):
            v = parents[lev - 1][v - 1]
        return v


def build_minimal_diagram(diagram, strategy):
    """Attach a reduction strategy to a diagram and return the lazy tree."""
    if isinstance(strategy, str):
        strategy = strategy_from_string(strategy)
    tree = MinimalDiagram(diagram, strategy)
    if diagram.explicit_depth:
        tree.ensure_depth(diagram.default_depth(0))
    return tree


# ---------------------------------------------------------------------------
# cylinders and functions


class Cylinder(Record):
    level: int
    vertex: int


def cylinder_children(tree, cyl):
    """The next level's cylinders sitting inside this one."""
    parents = tree.parents_at(cyl.level + 1)
    return tuple(Cylinder(cyl.level + 1, j) for j, p in enumerate(parents, start=1) if p == cyl.vertex)


class LocallyConstantFunction(Record):
    """One rational value per vertex at a fixed depth.  Every value is a
    Fraction: one of that exact type is kept as handed, and any other goes
    through matops.fraction, which refuses a float."""

    depth: int
    values: tuple

    def __post_init__(self):
        values = tuple(v if v.__class__ is Fraction else fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)


def refine(func, to_depth, tree):
    """Re-express a function on a deeper level's cylinders: one pass down the
    tree, each vertex taking its parent's value."""
    if to_depth < func.depth:
        raise ValueError("refine only goes deeper")
    if to_depth == func.depth:
        return func
    if func.depth < 0:
        raise DepthExceeded(f"no level {func.depth}")
    values = func.values
    gathers, _ = tree.gathers(to_depth)
    for down, _ in gathers[func.depth:]:
        values = list(map(values.__getitem__, down))
    return LocallyConstantFunction(to_depth, tuple(values))


def indicator(cylinders, tree):
    """Indicator function of a union of cylinders, at the deepest level used:
    one pass down the tree, a vertex lying inside a cylinder when it or its
    parent does."""
    cyls = [cylinders] if isinstance(cylinders, Cylinder) else list(cylinders)
    if not cyls:
        raise ValueError("empty cylinder collection")
    levels = [c.level for c in cyls]
    if min(levels) < 0:
        raise DepthExceeded(f"no level {min(levels)}")
    depth = max(levels)
    levels, _ = tree.levels(depth)
    marked = {(c.level, c.vertex) for c in cyls}
    inside = [(0, 1) in marked]
    for lev, parents in enumerate(levels, start=1):
        inside = [inside[p - 1] or (lev, j) in marked for j, p in enumerate(parents, start=1)]
    return LocallyConstantFunction(depth, tuple(int(x) for x in inside))


# ---------------------------------------------------------------------------
# end structure


class EndCensus(Record):
    """kind: 'finite' | 'countably-infinite' | 'at-least' (uncertified floor)."""

    kind: str
    count: int | None
    condensation: int
    certified: bool
    depth_examined: int | None

    def summary(self):
        if self.kind == "countably-infinite":
            ends = "countably infinite ends"
        elif self.kind == "finite":
            ends = f"{self.count} ends"
        else:
            ends = f">= {self.count} ends (uncertified)"
        tag = "certified" if self.certified else "uncertified"
        return f"{ends}, {self.condensation} condensation points [{tag}]"


def end_census(tree, depth=None):
    """End count and condensation summary.

    A strategy with a census of its own (a built-in family) and a
    constant-width diagram have closed forms and come back certified; a
    family first builds the levels of a default report, so that its own
    single-growth check runs on them.  Anything else is a
    finite-depth report: a floor on the end count plus a crude condensation
    estimate (frontier vertices whose ancestry meets a branch parent within
    the last two levels).
    """
    diagram = tree.diagram
    default = diagram.default_depth(8)
    census = getattr(tree.strategy, "census", None)
    if diagram.has_tail and census is not None:
        tree.ensure_depth(default)
        return EndCensus(*census, True, None)
    if diagram.has_tail and diagram.shape.kind == "type1":
        return EndCensus("finite", diagram.shape.width, 0, True, None)

    if depth is None:
        depth = default
    levels, branches = tree.levels(depth)
    # a frontier vertex counts when the branch parent of the last level or
    # the one above is its parent or grandparent: mark those branch parents
    # from level depth - 2 on and carry the marks down to the frontier
    top = max(depth - 2, 0)
    marked = [False] * (len(levels[top - 1]) if top else 1)
    for parents, b in zip(levels[top:], branches[top:]):
        if b is not None:
            marked[b.parent - 1] = True
        marked = [marked[p - 1] for p in parents]
    return EndCensus("at-least", len(marked), sum(marked), False, depth)


def compare_invariants(tree_a, tree_b, depth=None):
    """'distinct' when certified censuses disagree, else 'indistinguishable'."""
    ca = end_census(tree_a, depth)
    cb = end_census(tree_b, depth)
    if not (ca.certified and cb.certified):
        raise Uncertified("both censuses must be certified to compare")
    if (ca.kind, ca.count) != (cb.kind, cb.count) or ca.condensation != cb.condensation:
        return "distinct"
    return "indistinguishable"


# ---------------------------------------------------------------------------
# text formats


def _branch_text(b):
    return f"a={b.parent} r'={b.small_child} r={b.big_child}"


def format_tree_dump(tree, depth):
    lines = ["tree v1"]
    for lev, (parents, b) in enumerate(zip(*tree.levels(depth)), start=1):
        inner = " ".join(
            f"parent({j})={p}" for j, p in enumerate(parents, start=1)
        )
        lines.append(f"level {lev}: {inner}")
        if b is not None:
            lines.append(f"branch {lev}: {_branch_text(b)}")
    return "\n".join(lines) + "\n"


def parse_tree_dump(text):
    """The (level, parents) maps of a `tree v1` dump; a `branch N:` line must
    be the one level N's parents imply, and a bad line raises ParseError."""
    lines = meaningful_lines(text)
    if not lines or lines[0][1] != "tree v1":
        raise ParseError(lines[0][0] if lines else 1, "expected header 'tree v1'")
    maps = {}
    for no, ln in lines[1:]:
        head, _, rest = ln.partition(":")
        words = head.split()
        try:
            if len(words) != 2 or words[0] not in ("level", "branch"):
                raise ValueError("expected 'level N:' or 'branch N:'")
            level = read_uint(words[1])
            if words[0] == "branch":
                if level not in maps:
                    raise ValueError(f"no level {level} line above")
                b = MinimalDiagram._branch_from(maps[level])
                if b is None or rest.split() != _branch_text(b).split():
                    want = "no branch" if b is None else repr(_branch_text(b))
                    raise ValueError(f"level {level} implies {want}")
                continue
            if level in maps:
                raise ValueError(f"a second level {level} line")
            parents = []
            for key, sep, value in (tok.partition("=") for tok in rest.split()):
                if not sep:
                    raise ValueError("expected key=value tokens")
                if key != f"parent({len(parents) + 1})":
                    raise ValueError(f"expected parent({len(parents) + 1}), got {key}")
                parents.append(read_uint(value))
            maps[level] = tuple(parents)
        except ValueError as exc:
            raise ParseError(no, f"{exc} in {ln!r}") from None
    return tuple(maps.items())


def write_tree_dot(tree, depth):
    """Graphviz rendering; branch parents are double circles."""
    levels, branches = tree.levels(depth)
    out = ["digraph tree {", "  rankdir=TB;", "  node [shape=circle];"]
    out.append('  "t0_1" [label="0:1"];')
    for lev, (parents, b) in enumerate(zip(levels, branches), start=1):
        names = [f'"t{lev}_{j}"' for j in range(1, len(parents) + 1)]
        out += (f'  {nm} [label="{lev}:{j}"];' for j, nm in enumerate(names, start=1))
        out.append("  { rank=same; " + "; ".join(names) + "; }")
        if b is not None:
            out.append(f'  "t{lev - 1}_{b.parent}" [shape=doublecircle];')
        out += (f'  "t{lev - 1}_{p}" -> {nm};' for nm, p in zip(names, parents))
    out.append("}")
    return "\n".join(out) + "\n"
