"""The integer realization path (phi, membership, refine, indicator) against
the former Fraction path kept in exact_oracle, and its gather walks against
the per-vertex loops kept there."""

import random
from fractions import Fraction
from functools import cache
from operator import mul

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import cli, corpus, diagram
from brattice.errors import DepthExceeded
from brattice.k0 import (
    Auto,
    ExplicitColumn,
    K0Witness,
    NotMember,
    WeightScheme,
    _R_numerators,
    complete_chain,
    membership,
    phi,
    r_map,
    to_R_basis,
    witness_vector,
)
from brattice.pathspace import (
    Cylinder,
    LocallyConstantFunction,
    MinimalDiagram,
    UserMap,
    build_minimal_diagram,
    format_tree_dump,
    indicator,
    refine,
)

DEPTH = 16
DEPTHS = (0, 1, 8, DEPTH)


def _realizers(depth):
    gicar = corpus.get("gicar").diagram()
    prop = corpus.get("propersub").diagram()
    scheme = WeightScheme(corpus.get("dyadic").diagram())
    return {
        "gicar": (
            complete_chain(gicar, Auto(), depth),
            build_minimal_diagram(gicar, "rightmost").ensure_depth(depth),
        ),
        "propersub": (
            complete_chain(prop, [ExplicitColumn((0, 1))], depth),
            build_minimal_diagram(prop, "theorem").ensure_depth(depth),
        ),
        "dyadic": (scheme.chain(depth), scheme.tree.ensure_depth(depth)),
    }


REALIZERS = _realizers(DEPTH)
NAMES = sorted(REALIZERS)
HALF = LocallyConstantFunction(1, (0, Fraction(1, 2)))


def vectors(size):
    """Integer vectors, or vectors of rationals with small denominators."""
    whole = st.integers(min_value=-30, max_value=30)
    rational = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.one_of(
        st.lists(whole, min_size=size, max_size=size),
        st.lists(rational, min_size=size, max_size=size),
    )


@pytest.mark.parametrize("name", NAMES)
def test_chain_products_and_inverses_match_fraction_path(name):
    chain, _ = REALIZERS[name]
    for n in DEPTHS:
        u = chain.u_matrix(n)
        assert all(type(x) is int for row in u for x in row)
        assert u == oracle.u_matrix(chain, n)
        nums, d = chain.inverse_parts(n)
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in nums for x in row)
        assert chain.a_matrix(n) == oracle.a_matrix(chain, n)
        # solve reads the inverse over one positive denominator, apply the product
        alpha = [Fraction(k - n, 2) for k in range(n + 1)]
        nums, d = chain.solve(n, alpha)
        assert type(d) is int and d > 0 and all(type(x) is int for x in nums)
        want = [sum(map(mul, row, alpha)) for row in oracle.a_matrix(chain, n)]
        assert [Fraction(x, d) for x in nums] == want
        assert chain.apply(n, nums) == [a * d for a in alpha]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(DEPTHS), st.data())
def test_phi_matches_fraction_path(name, n, data):
    chain, tree = REALIZERS[name]
    alpha = data.draw(vectors(n + 1), label="alpha")
    got = phi(alpha, chain, tree)
    assert got == oracle.phi(alpha, chain, tree)
    assert all(type(v) is Fraction for v in got.values)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(DEPTHS), st.data())
def test_membership_matches_fraction_path(name, n, data):
    chain, tree = REALIZERS[name]
    values = data.draw(vectors(tree.level_count(n)), label="values")
    func = LocallyConstantFunction(n, values)
    want = oracle.witness_vector(func, chain, tree)
    assert witness_vector(func, chain, tree) == want
    if all(x.denominator == 1 for x in want):
        assert membership(func, chain, tree) == K0Witness(tuple(int(x) for x in want), n)
    else:
        assert membership(func, chain, tree) == NotMember(n)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(DEPTHS), st.data())
def test_to_R_basis_matches_fraction_peel(name, n, data):
    _, tree = REALIZERS[name]
    func = LocallyConstantFunction(n, data.draw(vectors(tree.level_count(n)), label="values"))
    got = to_R_basis(func, tree)
    assert type(got) is tuple
    assert all(type(x) is Fraction for x in got)
    assert got == oracle.to_R_basis(func, tree)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(DEPTHS), st.data())
def test_realized_members_round_trip(name, n, data):
    chain, tree = REALIZERS[name]
    alpha = tuple(data.draw(st.lists(st.integers(-30, 30), min_size=n + 1, max_size=n + 1)))
    assert membership(oracle.phi(alpha, chain, tree), chain, tree) == K0Witness(alpha, n)


def test_refined_half_is_never_a_member():
    chain, tree = REALIZERS["propersub"]
    for n in DEPTHS[1:]:
        func = refine(HALF, n, tree)
        assert func == oracle.refine(HALF, n, tree)
        assert any(x.denominator != 1 for x in oracle.witness_vector(func, chain, tree))
        assert membership(func, chain, tree) == NotMember(n)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_refine_matches_ancestor_walk(name, data):
    _, tree = REALIZERS[name]
    n = data.draw(st.integers(0, DEPTH), label="from")
    deeper = data.draw(st.integers(n, DEPTH), label="to")
    func = LocallyConstantFunction(n, data.draw(vectors(tree.level_count(n)), label="values"))
    assert refine(func, deeper, tree) == oracle.refine(func, deeper, tree)


@st.composite
def cylinders(draw, tree):
    level = draw(st.integers(0, DEPTH))
    # one past the last vertex too: a cylinder nothing lies in
    return Cylinder(level, draw(st.integers(1, tree.level_count(level) + 1)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_indicator_matches_ancestor_walk(name, data):
    _, tree = REALIZERS[name]
    cyls = data.draw(st.lists(cylinders(tree), min_size=1, max_size=4), label="cylinders")
    assert indicator(cyls, tree) == oracle.indicator(cyls, tree)


def test_refine_and_indicator_read_the_depth_limit_once(monkeypatch):
    reads = []
    limit = diagram.depth_limit
    monkeypatch.setattr(diagram, "depth_limit", lambda: reads.append(1) or limit())
    _, tree = REALIZERS["gicar"]
    refine(HALF, DEPTH, tree)
    indicator([Cylinder(2, 1), Cylinder(DEPTH, 3)], tree)
    assert len(reads) == 2


def test_r_basis_maps_read_the_depth_limit_once(monkeypatch):
    reads = []
    limit = diagram.depth_limit
    monkeypatch.setattr(diagram, "depth_limit", lambda: reads.append(1) or limit())
    _, tree = REALIZERS["gicar"]
    beta = tuple(range(DEPTH + 1))
    func = r_map(beta, tree)
    assert to_R_basis(func, tree) == beta
    assert len(reads) == 2
    assert oracle.r_vertices(tree, DEPTH) == list(range(1, DEPTH + 2))


def test_tree_levels_match_the_per_level_accessors():
    _, tree = REALIZERS["propersub"]
    parents, branches = tree.levels(DEPTH)
    assert parents == [tree.parents_at(lev) for lev in range(1, DEPTH + 1)]
    assert branches == [tree.branch(lev) for lev in range(1, DEPTH + 1)]
    assert tree.levels(0) == ([], [])
    with pytest.raises(DepthExceeded):
        tree.levels(-1)


# --- band products and gather maps against the dense passes they replaced ---

DEEP = 32


@cache
def _deep_realizers():
    return _realizers(DEEP)


@pytest.mark.parametrize("name", NAMES)
def test_depth_32_queries_match_fraction_path(name):
    chain, tree = _deep_realizers()[name]
    rng = random.Random(DEEP)
    for _ in range(3):
        alpha = tuple(rng.randint(-30, 30) for _ in range(DEEP + 1))
        got = phi(alpha, chain, tree)
        assert got == oracle.phi(alpha, chain, tree)
        assert membership(got, chain, tree) == K0Witness(alpha, DEEP)
        rational = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in alpha]
        assert phi(rational, chain, tree) == oracle.phi(rational, chain, tree)
        values = [Fraction(rng.randint(-30, 30), rng.randint(1, 2)) for _ in range(tree.level_count(DEEP))]
        func = LocallyConstantFunction(DEEP, values)
        want = oracle.witness_vector(func, chain, tree)
        assert witness_vector(func, chain, tree) == want
        if all(x.denominator == 1 for x in want):
            assert membership(func, chain, tree) == K0Witness(tuple(int(x) for x in want), DEEP)
        else:
            assert membership(func, chain, tree) == NotMember(DEEP)
    for n in (1, 9, DEEP):
        func = refine(HALF, n, tree)
        assert func == oracle.refine(HALF, n, tree)
        assert refine(func, DEEP, tree) == oracle.refine(func, DEEP, tree)


@pytest.mark.parametrize("name", ["gicar", "propersub"])
def test_depth_32_bands_keep_561_of_1089_entries(name):
    chain, _ = _deep_realizers()[name]
    for inverse in (False, True):
        (width, rows), _ = chain._view(DEEP, inverse)
        assert (width, len(rows)) == (DEEP + 1, DEEP + 1)
        assert sum(len(entries) for _, entries in rows) == 561


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(DEPTHS), st.data())
def test_gather_walks_match_per_vertex_loops(name, n, data):
    _, tree = REALIZERS[name]
    beta = data.draw(st.lists(st.integers(-30, 30), min_size=n + 1, max_size=n + 1), label="beta")
    d = data.draw(st.integers(1, 12), label="denominator")
    assert r_map(beta, tree, d) == oracle.r_map_loop(beta, tree, d)
    func = LocallyConstantFunction(n, data.draw(vectors(tree.level_count(n)), label="values"))
    assert _R_numerators(func, tree) == oracle.R_numerators_loop(func, tree)
    deeper = data.draw(st.integers(n, DEPTH), label="to")
    assert refine(func, deeper, tree) == oracle.refine_loop(func, deeper, tree)


# level 1 doubles the root's one child, level 2 gives both children to
# vertex 1, so vertex 2 of level 1 has none, and level 3 doubles vertex 2
CHILDLESS = "bdspec v1\nshape: irregular\nmatrix 0:\n1\n1\nmatrix 1:\n1 0\n1 0\nmatrix 2:\n1 0\n1 1\n0 1\n"


def test_peel_reads_zero_at_a_childless_parent():
    _, pinched = diagram.read_input(CHILDLESS)
    tree = build_minimal_diagram(pinched, UserMap(((1, (1, 1)), (2, (1, 1)), (3, (1, 2, 2)))))
    gathers, _ = tree.gathers(3)
    # level 2: both vertices go down to vertex 1, whose first child is 1;
    # vertex 2 has no child and reads one past the level
    assert gathers[1] == ((0, 0), (0, 2))
    for values in ((1, 2, 3), (Fraction(1, 2), 0, -7)):
        func = LocallyConstantFunction(3, values)
        assert _R_numerators(func, tree) == oracle.R_numerators_loop(func, tree)
        assert to_R_basis(func, tree) == oracle.to_R_basis(func, tree)


def test_tree_builds_compute_no_gather(monkeypatch, capsys):
    calls = []
    gathers = MinimalDiagram.gathers
    monkeypatch.setattr(MinimalDiagram, "gathers", lambda self, n: calls.append(n) or gathers(self, n))
    for name, strategy in (("gicar", "theorem"), ("gicar", "rightmost"), ("propersub", "theorem")):
        tree = build_minimal_diagram(corpus.get(name).diagram(), strategy)
        format_tree_dump(tree, 24)
        assert tree._gathers == []
    assert cli.main(["reduce", "corpus:gicar", "--depth", "24"]) == 0
    assert cli.main(["pathspace", "corpus:gicar", "--census", "--depth", "24"]) == 0
    capsys.readouterr()
    assert calls == []
    # the k0 readers do build them, once per level
    r_map(tuple(range(9)), tree)
    assert calls == [8]
    assert len(tree._gathers) == 8


def test_type1_phi_materializes_no_tree_level(monkeypatch, capsys):
    # a type1 chain is the diagram's own squares: phi reads no tree
    levels = []
    materialize = MinimalDiagram._materialize_next
    monkeypatch.setattr(MinimalDiagram, "_materialize_next", lambda self: levels.append(self) or materialize(self))
    for argv in (
        ["k0", "phi", "corpus:threeline", "--alpha", "1,-2,3", "--depth", "40"],
        ["k0", "phi", "corpus:uhf2", "--alpha", "3"],
        ["k0", "phi", "corpus:uhf6", "--alpha", "5", "--depth", "12"],
    ):
        assert cli.main(argv) == 0
    assert levels == []
    # a type2 phi reads its tree, so the spy sees it
    assert cli.main(["k0", "phi", "corpus:gicar", "--alpha", "1,2,3"]) == 0
    capsys.readouterr()
    assert len(levels) == 2
