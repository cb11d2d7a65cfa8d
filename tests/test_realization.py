"""The integer realization path (phi, membership, refine, indicator) against
the former Fraction path kept in exact_oracle."""

from fractions import Fraction

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import corpus, diagram
from brattice.errors import DepthExceeded
from brattice.k0 import (
    Auto,
    ExplicitColumn,
    K0Witness,
    NotMember,
    WeightScheme,
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
    build_minimal_diagram,
    indicator,
    refine,
)

DEPTH = 16
DEPTHS = (0, 1, 8, DEPTH)


def _realizers():
    gicar = corpus.get("gicar").diagram()
    prop = corpus.get("propersub").diagram()
    scheme = WeightScheme(corpus.get("dyadic").diagram())
    return {
        "gicar": (
            complete_chain(gicar, Auto(), DEPTH),
            build_minimal_diagram(gicar, "rightmost").ensure_depth(DEPTH),
        ),
        "propersub": (
            complete_chain(prop, [ExplicitColumn((0, 1))], DEPTH),
            build_minimal_diagram(prop, "theorem").ensure_depth(DEPTH),
        ),
        "dyadic": (scheme.chain(DEPTH), scheme.tree.ensure_depth(DEPTH)),
    }


REALIZERS = _realizers()
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
