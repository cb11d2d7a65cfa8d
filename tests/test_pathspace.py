"""Minimal sub-diagram trees, cylinders, and the end census."""

from fractions import Fraction
from pathlib import Path

import exact_oracle as oracle
import pytest

from brattice import corpus, diagram
from brattice.diagram import (
    BratteliDiagram,
    MultiplicityMatrix,
    ShapeClass,
)
from brattice.errors import DepthExceeded, ParseError, Uncertified, UnsupportedUserMap
from brattice.pathspace import (
    BranchData,
    Cylinder,
    LAST,
    LexFirst,
    LocallyConstantFunction,
    MinimalDiagram,
    NamedFamily,
    Theorem,
    UserMap,
    build_minimal_diagram,
    compare_invariants,
    cylinder_children,
    end_census,
    format_tree_dump,
    indicator,
    parse_tree_dump,
    refine,
    strategy_from_string,
    write_tree_dot,
)


GICAR = corpus.get("gicar").diagram()
PROPERSUB = corpus.get("propersub").diagram()
PINCH = corpus.get("pinch").diagram()
THREELINE = corpus.get("threeline").diagram()
UHF2 = corpus.get("uhf2").diagram()

PINCH_MAPS = UserMap(((1, (1, 1)), (2, (1,))))


def finite_gicar(depth):
    mats = tuple(GICAR.matrix(n) for n in range(depth))
    return BratteliDiagram(mats, None, ShapeClass("type2"))


def test_strategy_from_string():
    assert isinstance(strategy_from_string("theorem"), Theorem)
    assert isinstance(strategy_from_string("lexfirst"), LexFirst)
    assert strategy_from_string("rightmost") == NamedFamily("rightmost", (LAST,), ("countably-infinite", None, 1))
    assert strategy_from_string("positions:1,2") == NamedFamily("positions", (1, 2))
    assert strategy_from_string("positions:1, 2") == NamedFamily("positions", (1, 2))
    with pytest.raises(ValueError):
        strategy_from_string("bogus")


def test_strategies_choose_the_parents_a_tree_records():
    for strategy in (Theorem(), LexFirst(), NamedFamily("alternating", (1, LAST)), PINCH_MAPS):
        diagram = PINCH if strategy is PINCH_MAPS else GICAR
        tree = build_minimal_diagram(diagram, strategy).ensure_depth(2)
        for lev in (1, 2):
            assert strategy.parents(diagram.matrix(lev - 1), lev) == tree.parents_at(lev)
    with pytest.raises(TypeError, match="unknown strategy"):
        build_minimal_diagram(GICAR, object()).ensure_depth(1)


def test_family_parent_maps():
    right = build_minimal_diagram(GICAR, "rightmost")
    assert right.parents_at(1) == (1, 1)
    assert right.parents_at(2) == (1, 2, 2)
    assert right.parents_at(3) == (1, 2, 3, 3)

    left = build_minimal_diagram(GICAR, "leftmost")
    assert left.parents_at(2) == (1, 1, 2)
    assert left.parents_at(3) == (1, 1, 2, 3)

    alt = build_minimal_diagram(GICAR, "alternating")
    assert alt.parents_at(1) == (1, 1)
    assert alt.parents_at(2) == (1, 2, 2)
    assert alt.parents_at(3) == (1, 1, 2, 3)


def test_positions_strategy():
    pos = build_minimal_diagram(GICAR, "positions:1,2")
    assert pos.parents_at(1) == (1, 1)
    assert pos.parents_at(2) == (1, 2, 2)
    # the list cycles, clamped into the valid range
    assert pos.parents_at(3) == (1, 1, 2, 3)
    assert pos.parents_at(4) == (1, 2, 2, 3, 4)
    big = build_minimal_diagram(GICAR, "positions:9")
    assert big.parents_at(2) == (1, 2, 2)


# each family's parents on gicar's levels 1..5, its census there, and its
# census on uhf2 (None: the family refuses uhf2's square steps), frozen
# while the families were still told apart by name
FAMILY_RULES = {
    "rightmost": (
        [(1, 1), (1, 2, 2), (1, 2, 3, 3), (1, 2, 3, 4, 4), (1, 2, 3, 4, 5, 5)],
        ("countably-infinite", None, 1, True),
        None,
    ),
    "leftmost": (
        [(1, 1), (1, 1, 2), (1, 1, 2, 3), (1, 1, 2, 3, 4), (1, 1, 2, 3, 4, 5)],
        ("countably-infinite", None, 1, True),
        None,
    ),
    "alternating": (
        [(1, 1), (1, 2, 2), (1, 1, 2, 3), (1, 2, 3, 4, 4), (1, 1, 2, 3, 4, 5)],
        ("countably-infinite", None, 2, True),
        None,
    ),
    "positions:2,1,3": (
        [(1, 1), (1, 1, 2), (1, 2, 3, 3), (1, 2, 2, 3, 4), (1, 1, 2, 3, 4, 5)],
        ("at-least", 9, 4, False),
        ("finite", 1, 0, True),
    ),
    "positions:9": (
        [(1, 1), (1, 2, 2), (1, 2, 3, 3), (1, 2, 3, 4, 4), (1, 2, 3, 4, 5, 5)],
        ("at-least", 9, 3, False),
        ("finite", 1, 0, True),
    ),
}


def _census_fields(tree):
    c = end_census(tree)
    return c.kind, c.count, c.condensation, c.certified


@pytest.mark.parametrize("text", FAMILY_RULES)
def test_family_rules_keep_their_parents_censuses_and_refusals(text):
    parents, gicar_census, uhf2_census = FAMILY_RULES[text]
    tree = build_minimal_diagram(GICAR, text)
    assert [tree.parents_at(lev) for lev in range(1, 6)] == parents
    assert _census_fields(tree) == gicar_census
    refusal = f"^family '{text.partition(':')[0]}' needs single growth at level 1$"
    with pytest.raises(UnsupportedUserMap, match=refusal):
        build_minimal_diagram(UHF2, text).ensure_depth(1)
    if uhf2_census is None:
        with pytest.raises(UnsupportedUserMap, match=refusal):
            end_census(build_minimal_diagram(UHF2, text))
    else:
        assert _census_fields(build_minimal_diagram(UHF2, text)) == uhf2_census


def test_branch_data():
    right = build_minimal_diagram(GICAR, "rightmost")
    assert right.branch(2) == BranchData(2, 2, 3)
    assert right.branch(3) == BranchData(3, 3, 4)
    tree = build_minimal_diagram(THREELINE, "theorem")
    assert tree.parents_at(1) == (1, 1, 1)
    assert tree.branch(1) is None  # a triple fork is not a single doubling
    assert tree.branch(3) is None  # square levels copy straight across


def test_theorem_tree_is_forced_on_propersub():
    tree = build_minimal_diagram(PROPERSUB, "theorem")
    assert tree.parents_at(1) == (1, 1)
    assert tree.parents_at(2) == (1, 2, 2)
    assert tree.parents_at(3) == (1, 2, 3, 3)
    assert tree.branch(1) == BranchData(1, 1, 2)
    assert tree.branch(2) == BranchData(2, 2, 3)


def test_lexfirst_agrees_when_forced():
    a = build_minimal_diagram(PROPERSUB, "theorem")
    b = build_minimal_diagram(PROPERSUB, LexFirst())
    for lev in range(1, 5):
        assert a.parents_at(lev) == b.parents_at(lev)


def test_user_map_checks():
    good = build_minimal_diagram(GICAR, UserMap(((1, (1, 1)), (2, (1, 2, 2)))))
    assert good.parents_at(2) == (1, 2, 2)
    with pytest.raises(UnsupportedUserMap):
        # vertex 1 at level 2 has no edge to column 2
        tree = build_minimal_diagram(GICAR, UserMap(((1, (1, 1)), (2, (2, 2, 2)))))
        tree.ensure_depth(2)
    with pytest.raises(UnsupportedUserMap):
        # column 2 left uncovered on a non-irregular diagram
        tree = build_minimal_diagram(GICAR, UserMap(((1, (1, 1)), (2, (1, 1, 1)))))
        tree.ensure_depth(2)
    # maps that end early, with nothing forcing the next level, stop cleanly
    short = build_minimal_diagram(GICAR, UserMap(((1, (1, 1)),)))
    short.ensure_depth(1)
    with pytest.raises(DepthExceeded):
        short.ensure_depth(2)


def test_user_map_extends_when_forced():
    # only the first level is given; the identity-plus-duplicate tail rows
    # are monomial, so deeper maps are forced
    tree = build_minimal_diagram(PROPERSUB, UserMap(((1, (1, 1)),)))
    assert tree.parents_at(2) == (1, 2, 2)
    assert tree.parents_at(3) == (1, 2, 3, 3)


def test_user_map_dead_ends_need_irregular_shape():
    tree = build_minimal_diagram(PINCH, PINCH_MAPS)
    assert tree.parents_at(2) == (1,)
    assert cylinder_children(tree, Cylinder(1, 2)) == ()
    assert cylinder_children(tree, Cylinder(1, 1)) == (Cylinder(2, 1),)


def test_levels_below_one_are_refused():
    tree = build_minimal_diagram(GICAR, "rightmost").ensure_depth(5)
    assert tree.level_count(0) == 1
    assert tree.level_count(5) == 6
    for level in (0, -1, -2):
        for read in (tree.parents_at, tree.branch, lambda lev: tree.parent(lev, 1)):
            with pytest.raises(DepthExceeded):
                read(level)
        with pytest.raises(DepthExceeded):
            cylinder_children(tree, Cylinder(level - 1, 1))
    with pytest.raises(DepthExceeded):
        tree.level_count(-1)
    assert cylinder_children(tree, Cylinder(0, 1)) == (Cylinder(1, 1), Cylinder(1, 2))
    # level 0's map is the root's lineage alone, so no lineage is born
    assert tree.lineages(0) == ([(0,)], [])
    with pytest.raises(DepthExceeded):
        tree.lineages(-1)
    assert tree._lineages == [(0,)] and tree.born == []


def test_ensure_depth_limit():
    fin = finite_gicar(3)
    tree = build_minimal_diagram(fin, "rightmost")
    tree.ensure_depth(3)
    with pytest.raises(DepthExceeded):
        tree.ensure_depth(4)


def test_theorem_tree_reads_the_depth_limit_once_per_extension(monkeypatch):
    reads = []
    limit = diagram.depth_limit
    monkeypatch.setattr(diagram, "depth_limit", lambda: reads.append(1) or limit())
    tree = MinimalDiagram(corpus.get("gicar").diagram(), Theorem())
    tree.ensure_depth(63)
    assert (len(reads), tree.depth) == (1, 63)
    stepped = MinimalDiagram(corpus.get("gicar").diagram(), Theorem())
    for n in (1, 2, 12, 40, 63):
        stepped.ensure_depth(n)
    assert len(reads) == 6
    frozen = (Path(__file__).parent / "data" / "theorem-gicar-63.tree").read_text(encoding="utf-8")
    assert format_tree_dump(tree, 63) == format_tree_dump(stepped, 63) == frozen


def test_lowered_depth_limit_hides_levels_a_tree_built(monkeypatch):
    tree = build_minimal_diagram(corpus.get("gicar").diagram(), "theorem").ensure_depth(20)
    kept = tree.parents_at(10)
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "10")
    with pytest.raises(DepthExceeded, match="^level 15 requested, diagram allows 10$"):
        tree.parents_at(15)
    assert tree.parents_at(10) == kept and tree.depth == 20


def test_ancestor_walks_parents_and_checks_its_input():
    fin = finite_gicar(3)
    tree = build_minimal_diagram(fin, "theorem")
    for j in range(1, tree.level_count(3) + 1):
        v = j
        for lev in (3, 2, 1):
            v = tree.parent(lev, v)
            assert tree.ancestor(3, j, lev - 1) == v
        assert tree.ancestor(3, j, 3) == j
    with pytest.raises(DepthExceeded):
        tree.ancestor(4, 1, 0)  # level beyond the diagram
    with pytest.raises(DepthExceeded):
        tree.ancestor(3, tree.level_count(3) + 1, 0)  # no such vertex
    with pytest.raises(DepthExceeded):
        tree.ancestor(3, 1, -1)  # no such level


def test_cylinder_children_frozen():
    right = build_minimal_diagram(GICAR, "rightmost")
    assert cylinder_children(right, Cylinder(1, 1)) == (Cylinder(2, 1),)
    assert cylinder_children(right, Cylinder(1, 2)) == (Cylinder(2, 2), Cylinder(2, 3))


def test_refine_and_indicator():
    right = build_minimal_diagram(GICAR, "rightmost")
    f = LocallyConstantFunction(1, (1, 2))
    assert refine(f, 2, right).values == (1, 2, 2)
    assert oracle.exact_fractions(refine(f, 2, right))
    assert refine(f, 1, right) is f
    with pytest.raises(ValueError):
        refine(f, 0, right)
    # a value count that does not match the function's level is refused
    for values, got in (((0, 1, 7, 9), 4), ((1,), 1)):
        with pytest.raises(ValueError, match=f"^level 1 has 2 vertices, got {got} values$"):
            refine(LocallyConstantFunction(1, values), 3, right)

    chi = indicator(Cylinder(1, 2), right)
    assert chi.depth == 1 and chi.values == (0, 1)
    union = indicator((Cylinder(1, 1), Cylinder(2, 3)), right)
    assert union.depth == 2
    assert union.values == (1, 0, 1)
    assert oracle.exact_fractions(chi) and oracle.exact_fractions(union)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda t: refine(LocallyConstantFunction(-1, ()), 0, t), DepthExceeded, "^no level -1$", id="refine-below-root"
        ),
        pytest.param(lambda t: indicator([], t), ValueError, "^empty cylinder collection$", id="indicator-empty"),
        pytest.param(
            lambda t: indicator(Cylinder(-1, 1), t), DepthExceeded, "^no level -1$", id="indicator-below-root"
        ),
        pytest.param(
            lambda t: indicator((Cylinder(2, 1), Cylinder(-1, 1)), t),
            DepthExceeded,
            "^no level -1$",
            id="indicator-one-below-root",
        ),
        # a cylinder's vertex must lie on its level, as parent() asks of its vertex
        pytest.param(lambda t: t.parent(1, 5), DepthExceeded, "^no vertex 5 at level 1$", id="parent-off-level"),
        pytest.param(
            lambda t: indicator(Cylinder(2, 99), t),
            DepthExceeded,
            "^no vertex 99 at level 2$",
            id="indicator-off-level",
        ),
        pytest.param(
            lambda t: indicator((Cylinder(2, 1), Cylinder(1, 0)), t),
            DepthExceeded,
            "^no vertex 0 at level 1$",
            id="indicator-vertex-0",
        ),
        pytest.param(
            lambda t: indicator(Cylinder(0, 2), t), DepthExceeded, "^no vertex 2 at level 0$", id="indicator-off-root"
        ),
        pytest.param(
            lambda t: cylinder_children(t, Cylinder(1, 99)),
            DepthExceeded,
            "^no vertex 99 at level 1$",
            id="children-off-level",
        ),
        pytest.param(
            lambda t: cylinder_children(t, Cylinder(1, 0)),
            DepthExceeded,
            "^no vertex 0 at level 1$",
            id="children-vertex-0",
        ),
    ],
)
def test_functions_refuse_levels_and_cylinders_they_cannot_use(call, error, message):
    with pytest.raises(error, match=message):
        call(build_minimal_diagram(GICAR, "rightmost"))


class Third(Fraction):
    pass


def test_function_algebra():
    # every value is exactly a Fraction, and a Fraction handed in is kept
    half = Fraction(1, 2)
    f = LocallyConstantFunction(0, (3, True, "2/3", half, Third(1, 3)))
    assert f.values == (3, 1, Fraction(2, 3), half, Fraction(1, 3))
    assert oracle.exact_fractions(f)
    assert f.values[3] is half

    right = build_minimal_diagram(GICAR, "rightmost")
    f = LocallyConstantFunction(1, (1, 2))
    g = LocallyConstantFunction(1, (0, Fraction(1, 2)))
    assert oracle.lcf_add(f, g).values == (1, Fraction(5, 2))
    assert oracle.lcf_scale(g, 2).values == (0, 1)
    deep = refine(f, 3, right)
    assert oracle.functions_equal(f, deep, right)
    assert not oracle.functions_equal(f, g, right)
    with pytest.raises(ValueError):
        oracle.lcf_add(f, refine(g, 2, right))


def test_census_frozen():
    right = end_census(build_minimal_diagram(GICAR, "rightmost"))
    assert (right.kind, right.count, right.condensation) == ("countably-infinite", None, 1)
    assert right.certified

    alt = end_census(build_minimal_diagram(GICAR, "alternating"))
    assert (alt.kind, alt.count, alt.condensation) == ("countably-infinite", None, 2)

    lines = end_census(build_minimal_diagram(THREELINE, "theorem"))
    assert (lines.kind, lines.count, lines.condensation) == ("finite", 3, 0)
    assert lines.certified
    assert "3 ends" in lines.summary()


def test_census_uncertified_on_finite_prefix():
    tree = build_minimal_diagram(finite_gicar(4), "rightmost")
    census = end_census(tree)
    assert not census.certified
    assert census.kind == "at-least"
    assert census.count >= 1
    assert census.depth_examined is not None


@pytest.mark.parametrize(
    "name, strategy",
    [
        ("gicar", "theorem"),
        ("gicar", "lexfirst"),
        ("propersub", "theorem"),
        ("dyadic", "theorem"),
        ("gicar-16", "positions:2,1,3"),
        ("gicar-16", "alternating"),
    ],
)
def test_census_floor_matches_the_ancestor_walk(name, strategy):
    # a family on a diagram without a tail gets the finite report too
    diagram = finite_gicar(16) if name == "gicar-16" else corpus.get(name).diagram()
    tree = build_minimal_diagram(diagram, strategy)
    for depth in range(17):
        census = end_census(tree, depth)
        assert census.kind == "at-least"
        assert (census.count, census.condensation) == oracle.census_floor(tree, depth)


def test_compare_invariants():
    right = build_minimal_diagram(GICAR, "rightmost")
    alt = build_minimal_diagram(GICAR, "alternating")
    left = build_minimal_diagram(GICAR, "leftmost")
    assert compare_invariants(right, alt) == "distinct"
    assert compare_invariants(right, left) == "indistinguishable"
    finite = build_minimal_diagram(finite_gicar(4), "rightmost")
    with pytest.raises(Uncertified):
        compare_invariants(right, finite)


def test_tree_dump_round_trip():
    right = build_minimal_diagram(GICAR, "rightmost")
    text = format_tree_dump(right, 4)
    maps = parse_tree_dump(text)
    assert maps == tuple((lev, right.parents_at(lev)) for lev in range(1, 5))
    rebuilt = build_minimal_diagram(GICAR, UserMap(maps))
    assert [rebuilt.branch(lev) for lev in range(1, 5)] == [right.branch(lev) for lev in range(1, 5)]
    assert format_tree_dump(rebuilt, 4) == text
    # a '#' line is skipped, as in bdspec and bare matrix files
    assert parse_tree_dump(text.replace("\nlevel 2", "\n# level 2 next\nlevel 2")) == maps
    # a branch line must be the one its level's parents imply
    tampered = text.replace("branch 2: a=2 r'=2 r=3", "branch 2: a=1 r'=1 r=2")
    with pytest.raises(ParseError, match=r"""^line 5: level 2 implies "a=2 r'=2 r=3" in """):
        parse_tree_dump(tampered)
    with pytest.raises(ParseError, match=r"^line 2: no level 3 line above in "):
        parse_tree_dump("tree v1\nbranch 3: a=3 r'=3 r=4\n")


def test_tree_dump_errors_name_their_line():
    # blank lines count: the numbers are the file's own
    with pytest.raises(ValueError, match=r"^line 2: expected header 'tree v1'$"):
        parse_tree_dump("\ntree v2\n")
    with pytest.raises(ValueError, match=r"^line 4: expected parent\(2\), got parent\(3\) in "):
        parse_tree_dump("tree v1\nlevel 1: parent(1)=1\n\nlevel 2: parent(1)=1 parent(3)=1\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 'level N:' or 'branch N:' in 'level:'$"):
        parse_tree_dump("tree v1\nlevel 1: parent(1)=1\nlevel:\n")


def test_tree_dot_marks_branch_parents():
    right = build_minimal_diagram(GICAR, "rightmost")
    dot = write_tree_dot(right, 3)
    assert "doublecircle" in dot
    assert '"t0_1" -> "t1_1"' in dot
    assert '"t2_3" -> "t3_4"' in dot
    assert write_tree_dot(right, 2).splitlines() == [
        "digraph tree {",
        "  rankdir=TB;",
        "  node [shape=circle];",
        '  "t0_1" [label="0:1"];',
        '  "t1_1" [label="1:1"];',
        '  "t1_2" [label="1:2"];',
        '  { rank=same; "t1_1"; "t1_2"; }',
        '  "t0_1" [shape=doublecircle];',
        '  "t0_1" -> "t1_1";',
        '  "t0_1" -> "t1_2";',
        '  "t2_1" [label="2:1"];',
        '  "t2_2" [label="2:2"];',
        '  "t2_3" [label="2:3"];',
        '  { rank=same; "t2_1"; "t2_2"; "t2_3"; }',
        '  "t1_2" [shape=doublecircle];',
        '  "t1_1" -> "t2_1";',
        '  "t1_2" -> "t2_2";',
        '  "t1_2" -> "t2_3";',
        "}",
    ]
