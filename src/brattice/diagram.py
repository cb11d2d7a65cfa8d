"""Level structures: multiplicity matrices, diagrams, tails, text format.

A diagram is a finite list of nonnegative integer matrices, optionally
followed by a tail rule that generates further levels on demand.  Matrix n
connects level n (columns) to level n+1 (rows); matrix 0 always has one
column, the root.  Vertices are numbered from 1 in every public interface;
the tuples inside MultiplicityMatrix are plain 0-based Python data.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import chain, compress

from . import matops
from .config import depth_limit, read_uint
from .errors import DepthExceeded, IndexOutOfRange, NotDilatable, ParseError, RankDeficient
from .matops import int_row
from .record import Record


# ---------------------------------------------------------------------------
# multiplicity matrices


class MultiplicityMatrix(Record):
    """Immutable rectangular matrix of nonnegative integers.  Its sparse
    view, `supports` and `column_supports`, is scanned on first read and
    kept outside the fields."""

    rows: tuple
    _supports = None
    _columns = None

    def __post_init__(self):
        # whole-matrix passes when every entry is an int; otherwise, and to
        # name the entry or row at fault, one row at a time
        data = tuple(map(tuple, self.rows))
        if set(map(type, chain.from_iterable(data))) - {int}:
            data = tuple(int_row(row, i) for i, row in enumerate(data, start=1))
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if len(set(map(len, data))) > 1 or min(chain.from_iterable(data)) < 0:
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged matrix")
                if min(row) < 0:
                    raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "rows", data)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return MultiplicityMatrix, (self.rows,)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def supports(self):
        """Each row's support, as a tuple of 0-based columns."""
        supports = self._supports
        if supports is None:
            cols = range(len(self.rows[0]))
            supports = tuple([tuple(compress(cols, row)) for row in self.rows])
            object.__setattr__(self, "_supports", supports)
        return supports

    @property
    def column_supports(self):
        """Each column's support, as a tuple of 0-based rows."""
        columns = self._columns
        if columns is None:
            columns = [[] for _ in self.rows[0]]
            for i, support in enumerate(self.supports):
                for q in support:
                    columns[q].append(i)
            columns = tuple(map(tuple, columns))
            object.__setattr__(self, "_columns", columns)
        return columns

    def to_lists(self):
        return [list(row) for row in self.rows]


def multiplicity_rank(m):
    """Exact rank of a multiplicity matrix."""
    return matops.rank(m.to_lists())


def mm_product(later, earlier):
    """Composite multiplicities across two steps: `later` applied after `earlier`."""
    return MultiplicityMatrix(matops.mat_mul(later.rows, earlier.rows))


# ---------------------------------------------------------------------------
# shapes


class ShapeClass(Record):
    kind: str  # "type2" | "type1" | "irregular"
    width: int | None = None  # constant level size for type1

    def label(self):
        if self.kind == "type1":
            return f"type1 {self.width}"
        return self.kind


def matrix_fits_shape(shape, n, mat):
    """Does the matrix at index n have the right dimensions for the shape?"""
    if shape.kind == "type2":
        return mat.nrows == n + 2 and mat.ncols == n + 1
    if shape.kind == "type1":
        want_cols = 1 if n == 0 else shape.width
        return mat.nrows == shape.width and mat.ncols == want_cols
    return True


def infer_shape(mats):
    """Best-effort shape from a materialized prefix; type2 wins ties."""
    for shape in [ShapeClass("type2")] + [ShapeClass("type1", m.nrows) for m in mats[:1]]:
        if all(matrix_fits_shape(shape, n, m) for n, m in enumerate(mats)):
            return shape
    return ShapeClass("irregular")


# ---------------------------------------------------------------------------
# tails

_POW_RE = re.compile(r"^(\d+)\^\{([^{}]+)\}$", re.ASCII)
_AFFINE_RE = re.compile(r"^(?:(\d+)\*?)?n([+-]\d+)?$|^([+-]?\d+)$", re.ASCII)


class PowToken(Record):
    """Level-indexed entry base^(coeff*n + offset)."""

    base: int
    coeff: int
    offset: int

    def exponent(self, n):
        """coeff*n + offset; a negative one raises ValueError."""
        exp = self.coeff * n + self.offset
        if exp < 0:
            raise ValueError(f"negative exponent at level {n} in {self.render()}")
        return exp

    def value_at(self, n):
        return self.base ** self.exponent(n)

    def render(self):
        if self.coeff == 0:
            inner = str(self.offset)
        else:
            lead = "n" if self.coeff == 1 else f"{self.coeff}n"
            inner = lead if self.offset == 0 else f"{lead}{self.offset:+d}"
        return f"{self.base}^{{{inner}}}"


def parse_entry_token(tok):
    """An unsigned integer or a power token like 2^{n+1}."""
    m = _POW_RE.match(tok)
    if not m:
        return read_uint(tok)
    base = int(m.group(1))
    inner = m.group(2).replace(" ", "")
    am = _AFFINE_RE.match(inner)
    if not am:
        raise ValueError(f"cannot parse exponent {inner!r}")
    if am.group(3) is not None:
        return PowToken(base, 0, int(am.group(3)))
    coeff = int(am.group(1)) if am.group(1) else 1
    offset = int(am.group(2)) if am.group(2) else 0
    return PowToken(base, coeff, offset)


def render_entry_token(tok):
    return tok.render() if isinstance(tok, PowToken) else str(int(tok))


def _entry_at(tok, n):
    """An entry token's value at level n."""
    return tok.value_at(n) if isinstance(tok, PowToken) else tok


class PeriodicTail(Record):
    """Repeat template matrices forever; entries may be level-indexed tokens.

    Template k (0-based) serves level anchor+k, anchor+period+k, ...  Only
    constant level sizes repeat cleanly, so templates must be square and all
    the same size.
    """

    templates: tuple  # tuple of tuple-of-tuple tokens (int | PowToken)
    anchor: int

    def __post_init__(self):
        if not self.templates:
            raise ValueError("periodic tail needs at least one template")
        size = len(self.templates[0])
        for t in self.templates:
            if len(t) != size or any(len(row) != size for row in t):
                raise ValueError("periodic templates must be square and equal-sized")

    @property
    def period(self):
        return len(self.templates)

    def columns_at(self, n):
        return len(self.templates[0])

    def matrix_at(self, n):
        tpl = self.templates[(n - self.anchor) % self.period]
        return MultiplicityMatrix([[_entry_at(t, n) for t in row] for row in tpl])


TAIL_FAMILIES = {
    # (diagonal, corner) of each band; FamilyTail reads them
    # single-growth ladder with two parallel edges at each new vertex pair
    "gicar": (((-1, 1), (0, 1)), ()),
    # identity lines plus a 2^{n+1}-weighted fork column
    "dyadic": (((0, 1),), ((0, 0, 1), (1, 0, PowToken(2, 1, 1)))),
    # identity lines plus a plain fork column
    "dupline": (((0, 1),), ((0, 0, 1),)),
}


class FamilyTail(Record):
    """A named built-in band covering every level index it is asked for.

    Level n is (n+2) x (n+1).  Every row i carries the diagonal pattern,
    (column offset, entry) pairs, at those columns i + offset that exist;
    then the corner block, (rows up from the last, columns left of the
    last, entry) triples, overwrites entries counted from the bottom-right.
    """

    name: str

    def __post_init__(self):
        if self.name not in TAIL_FAMILIES:
            raise ValueError(f"unknown tail family {self.name!r}")

    def columns_at(self, n):
        return n + 1

    def matrix_at(self, n):
        diagonal, corner = TAIL_FAMILIES[self.name]
        rows = [[0] * (n + 1) for _ in range(n + 2)]
        for offset, entry in diagonal:
            value = _entry_at(entry, n)
            for i in range(max(0, -offset), min(n + 2, n + 1 - offset)):
                rows[i][i + offset] = value
        for up, left, entry in corner:
            rows[n + 1 - up][n - left] = _entry_at(entry, n)
        return MultiplicityMatrix(rows)


# ---------------------------------------------------------------------------
# diagrams


def _check_chain(n, cols, rows):
    """Refuse a matrix of `cols` columns as matrix n below a level of `rows`
    vertices; level 0 is the root alone."""
    if cols != rows:
        raise ValueError(
            f"matrix {n} has {cols} columns but matrix {n - 1} has {rows} rows"
            if n else "matrix 0 must have exactly one column"
        )


class BratteliDiagram(Record):
    """Explicit matrices plus an optional tail rule.

    `shape` is declarative; validate_diagram checks it against the data.
    """

    matrices: tuple
    tail: object = None  # None | PeriodicTail | FamilyTail
    shape: ShapeClass = None

    def __post_init__(self):
        mats = tuple(
            m if isinstance(m, MultiplicityMatrix) else MultiplicityMatrix(m)
            for m in self.matrices
        )
        object.__setattr__(self, "matrices", mats)
        if not mats and self.tail is None:
            raise ValueError("diagram needs at least one matrix or a tail rule")
        cols = [m.ncols for m in mats]
        if self.tail is not None:
            cols.append(self.tail.columns_at(len(mats)))
        for n, (c, rows) in enumerate(zip(cols, [1] + [m.nrows for m in mats])):
            _check_chain(n, c, rows)
        if self.shape is None:
            probe = [self.matrix(k) for k in range(self.default_depth(3))]
            object.__setattr__(self, "shape", infer_shape(probe))

    @property
    def explicit_depth(self):
        return len(self.matrices)

    @property
    def has_tail(self):
        return self.tail is not None

    def level_bound(self):
        """The deepest level the diagram allows: its last level, or under a
        tail the depth limit, and never fewer than its explicit levels."""
        if self.tail is not None:
            return max(len(self.matrices), depth_limit())
        return len(self.matrices)

    def check_depth(self, n):
        """Refuse level n when it lies past the level bound."""
        allowed = self.level_bound()
        if n > allowed:
            raise DepthExceeded(f"level {n} requested, diagram allows {allowed}")

    def default_depth(self, k):
        """The depth a reader takes when none is given: every explicit
        level, and at least k levels when a tail follows, within the bound."""
        return min(max(len(self.matrices), k if self.tail is not None else 0), self.level_bound())

    def matrix(self, n):
        """Multiplicity matrix connecting level n to level n+1."""
        if n < 0:
            raise IndexOutOfRange(f"matrix index {n} is negative")
        # the bound check runs before the read, so a lowered limit still
        # hides the tail levels kept
        if n >= len(self.matrices):
            self.check_depth(n + 1)
        return self._matrix(n)

    def _matrix(self, n):
        """matrix(n) past its bound check, for a caller that has checked
        level n + 1 itself: the explicit matrix, or the tail level, which
        the tail builds once per diagram."""
        if n < len(self.matrices):
            return self.matrices[n]
        generated = self.__dict__.setdefault("_generated", {})
        mat = generated.get(n)
        if mat is None:
            mat = generated[n] = self.tail.matrix_at(n)
        return mat

    def level_count(self, n):
        """Number of vertices at level n."""
        if n == 0:
            return self.matrix(0).ncols
        return self.matrix(n - 1).nrows


def zero_lines(mat):
    """'row i is zero' and 'column j is zero', 1-based, for each empty line
    of a matrix, read off its row and column supports."""
    return [f"row {i} is zero" for i, s in enumerate(mat.supports, start=1) if not s] + [
        f"column {j} is zero" for j, s in enumerate(mat.column_supports, start=1) if not s
    ]


def validate_diagram(diagram, depth=None):
    """The issues of positivity and of the declared shape over a
    materialized prefix, as a tuple of strings."""
    if depth is None:
        depth = diagram.default_depth(3)
    diagram.check_depth(depth)
    issues = []
    for n in range(depth):
        mat = diagram.matrix(n)
        issues += (f"matrix {n}: {issue}" for issue in zero_lines(mat))
        if not matrix_fits_shape(diagram.shape, n, mat):
            issues.append(
                f"matrix {n} is {mat.nrows}x{mat.ncols}, outside shape "
                f"{diagram.shape.label()}"
            )
    return tuple(issues)


def check_valid(diagram):
    """Raise when validate_diagram has complaints; used as an op precondition."""
    issues = validate_diagram(diagram)
    if issues:
        raise ValueError(f"invalid diagram: {issues[0]}")


# ---------------------------------------------------------------------------
# telescoping and single-growth normalization


def telescope(diagram, indices):
    """Keep only the given levels; composite matrices bridge the gaps.

    `indices` must start at 0 and strictly increase.  The result is finite
    (tail rules do not survive recombination).
    """
    idx = list(indices)
    if not idx or idx[0] != 0:
        raise IndexOutOfRange("telescope indices must start at level 0")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise IndexOutOfRange("telescope indices must strictly increase")
    if len(idx) < 2:
        raise IndexOutOfRange("telescope needs at least two retained levels")
    diagram.check_depth(idx[-1])
    mats = []
    for a, b in zip(idx, idx[1:]):
        prod = diagram.matrix(a)
        for k in range(a + 1, b):
            prod = mm_product(diagram.matrix(k), prod)
        mats.append(prod)
    return BratteliDiagram(tuple(mats))


def dilate_step(mat):
    """Split a tall full-column-rank step into single-growth factors.

    Returns (row_order, factors): row_order is a tuple with the original row
    index (0-based) now sitting at each position, and factors multiply as
    factors[-1] ... factors[0] to give the reordered matrix.
    """
    r, c = mat.nrows, mat.ncols
    if r <= c:
        raise ValueError(f"dilate_step needs more rows than columns, got {r}x{c}")
    rows = mat.to_lists()
    # collect an invertible bottom block scanning upward from the last row
    bottom = sorted(matops.independent_rows(rows, order=range(r - 1, -1, -1)))
    if len(bottom) < c:
        raise RankDeficient(f"matrix has rank below {c}")
    top = [i for i in range(r) if i not in set(bottom)]
    row_order = tuple(top + bottom)
    pm = [rows[i] for i in row_order]

    d = r - c
    factors = []
    for i in range(1, d + 1):
        lead = i - 1
        out = []
        for p in range(lead):
            row = [0] * (c + i - 1)
            row[p] = 1
            out.append(row)
        if i < d:
            out.append([0] * lead + pm[i - 1])
            for p in range(c):
                row = [0] * (c + i - 1)
                row[lead + p] = 1
                out.append(row)
        else:
            for q in range(d - 1, r):
                out.append([0] * lead + pm[q])
        factors.append(MultiplicityMatrix(out))
    return row_order, tuple(factors)


def normalize_type2(diagram):
    """Rewrite a chain so every level grows by exactly one vertex.

    Already single-growth diagrams come back unchanged (tail intact).
    Otherwise the materialized prefix is folded into strictly growing
    composite steps, each step is dilated, and the row permutations are
    absorbed so the factors chain correctly.  The result is finite.
    """
    if diagram.shape.kind == "type2":
        return diagram

    k = diagram.explicit_depth
    if k == 0:
        raise NotDilatable("nothing materialized to normalize")
    sizes = [diagram.level_count(n) for n in range(k + 1)]
    for a, b in zip(sizes, sizes[1:]):
        if b < a:
            raise NotDilatable("level sizes must not shrink")
    if sizes[k] == 1:
        raise NotDilatable("diagram never grows")
    # retained levels: 0, then the last level of each size above 1, the
    # last of them k; their sizes strictly rise, so every step is tall
    retained = [0]
    for value in sorted(set(sizes) - {1}):
        retained.append(max(n for n, s in enumerate(sizes) if s == value))

    folded = telescope(diagram, retained)
    out = []
    for step_index in range(folded.explicit_depth):
        step = folded.matrix(step_index)
        try:
            row_order, factors = dilate_step(step)
        except RankDeficient as exc:
            raise NotDilatable(str(exc)) from exc
        # undo the permutation inside the last factor so the chain composes
        inverse = [0] * len(row_order)
        for pos, orig in enumerate(row_order):
            inverse[orig] = pos
        factors = list(factors)
        factors[-1] = MultiplicityMatrix([factors[-1].rows[i] for i in inverse])
        out.extend(factors)
    result = BratteliDiagram(tuple(out), None, ShapeClass("type2"))
    check_valid(result)
    return result


# ---------------------------------------------------------------------------
# text format


def format_bdspec(diagram):
    lines = ["bdspec v1", f"shape: {diagram.shape.label()}"]
    for n, mat in enumerate(diagram.matrices):
        lines.append(f"matrix {n}:")
        for row in mat.rows:
            lines.append(" ".join(str(x) for x in row))
    if diagram.tail is None:
        lines.append("tail: none")
    elif isinstance(diagram.tail, FamilyTail):
        lines.append(f"tail: family {diagram.tail.name}")
    else:
        lines.append(f"tail: periodic {diagram.tail.period}")
        for tpl in diagram.tail.templates:
            lines.append("template:")
            for row in tpl:
                lines.append(" ".join(render_entry_token(t) for t in row))
    return "\n".join(lines) + "\n"


# reading: every input file passes one line filter, and every integer in
# it one check; a bad line raises ParseError with the text's own number


def meaningful_lines(text):
    """(number, line) of each stripped line neither blank nor a '#' comment."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(no, ln) for no, ln in lines if ln[:1] not in ("", "#")]


def read_row(no, line, entry=read_uint):
    """Each token of row `line` through `entry`; a bad one names line `no`."""
    try:
        return tuple(map(entry, line.split()))
    except ValueError as exc:
        raise ParseError(no, f"bad row {line!r}: {exc}") from None


def read_matrix(no, rows):
    """The matrix of numbered rows, in a block that line `no` heads."""
    data = []
    for row_no, line in rows:
        data.append(read_row(row_no, line))
        if len(data[-1]) != len(data[0]):
            raise ParseError(
                row_no, f"ragged row: {len(data[-1])} entries, the first row has {len(data[0])}"
            )
    return _on_line(no, MultiplicityMatrix, data)


def read_input(text):
    """('diagram', BratteliDiagram) under a 'bdspec v1' header, else ('matrix', rows)."""
    lines = meaningful_lines(text)
    if lines and lines[0][1] == "bdspec v1":
        return "diagram", _bdspec(lines)
    return "matrix", read_matrix(1, lines)


def _on_line(no, call, *args):
    """call(*args), whose ValueError becomes a ParseError naming line `no`."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ParseError(no, str(exc)) from None


def _blocks(lines, head):
    """(number, head line, body lines up to the next head) per line that
    starts with `head`; the first line heads a block whatever it holds."""
    blocks = []
    for no, ln in lines:
        if ln.startswith(head) or not blocks:
            blocks.append((no, ln, []))
        else:
            blocks[-1][2].append((no, ln))
    return blocks


def _bdspec(lines):
    """The diagram of the meaningful lines under a 'bdspec v1' header."""
    if len(lines) < 2 or not lines[1][1].startswith("shape:"):
        raise ParseError(lines[min(1, len(lines) - 1)][0], "expected 'shape:' after the header")
    no, words = lines[1][0], lines[1][1][len("shape:"):].split()
    if words[:1] == ["type1"] and len(words) == 2:
        shape = ShapeClass("type1", _on_line(no, read_uint, words[1]))
    elif words in (["type2"], ["irregular"]):
        shape = ShapeClass(words[0])
    else:
        raise ParseError(no, f"unknown shape {' '.join(words)!r}")
    # the tail, if any, ends the file
    at = next((i for i, (_, ln) in enumerate(lines) if ln.startswith("tail:")), len(lines))
    mats, rows, tail = [], 1, None
    for no, ln, body in _blocks(lines[2:at], "matrix "):
        if ln.rstrip(":") != f"matrix {len(mats)}":
            raise ParseError(no, f"expected 'matrix {len(mats)}:', got {ln!r}")
        mat = read_matrix(no, body)
        _on_line(no, _check_chain, len(mats), mat.ncols, rows)
        mats.append(mat)
        rows = mat.nrows
    if at < len(lines):
        no, ln = lines[at]
        tail = _tail(no, ln[len("tail:"):].split(), lines[at + 1:], len(mats))
        if tail is not None:
            _on_line(no, _check_chain, len(mats), tail.columns_at(len(mats)), rows)
    return _on_line(lines[-1][0], BratteliDiagram, tuple(mats), tail, shape)


def _tail(no, words, body, anchor):
    """The tail of `tail:` line `no`; its templates serve levels from `anchor` on."""
    if words == ["none"] or words[:1] == ["family"] and len(words) == 2:
        if body:
            raise ParseError(body[0][0], f"unexpected line {body[0][1]!r}")
        return None if words == ["none"] else _on_line(no, FamilyTail, words[1])
    if words[:1] != ["periodic"] or len(words) != 2:
        raise ParseError(no, f"unknown tail {' '.join(words)!r}")
    period = _on_line(no, read_uint, words[1])
    templates = []
    for k, (head_no, head, rows) in enumerate(_blocks(body, "template")):
        if head != "template:":
            raise ParseError(head_no, f"expected 'template:', got {head!r}")
        entry = partial(_template_entry, anchor + k)
        templates.append(tuple(read_row(row_no, row, entry) for row_no, row in rows))
    if len(templates) != period:
        raise ParseError(no, f"tail: periodic {period} needs {period} templates, got {len(templates)}")
    return _on_line(no, PeriodicTail, tuple(templates), anchor)


def _template_entry(level, tok):
    """A template token whose exponent is >= 0 at `level`, its first level."""
    tok = parse_entry_token(tok)
    if isinstance(tok, PowToken):
        tok.exponent(level)
    return tok


def write_dot(diagram, depth):
    """Graphviz rendering of the first `depth` levels."""
    diagram.check_depth(depth)
    out = ["digraph diagram {", "  rankdir=TB;", "  node [shape=circle];"]
    for n in range(depth + 1):
        names = [f'"v{n}_{j}"' for j in range(1, diagram.level_count(n) + 1)]
        for j, nm in enumerate(names, start=1):
            out.append(f"  {nm} [label=\"{n}:{j}\"];")
        out.append("  { rank=same; " + "; ".join(names) + "; }")
    for n in range(depth):
        mat = diagram.matrix(n)
        for i, (row, support) in enumerate(zip(mat.rows, mat.supports), start=1):
            for q in support:
                label = f' [label="x{row[q]}"]' if row[q] > 1 else ""
                out.append(f'  "v{n}_{q + 1}" -> "v{n + 1}_{i}"{label};')
    out.append("}")
    return "\n".join(out) + "\n"
