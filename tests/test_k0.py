"""Completions, chains, realization maps, membership, positivity, probes."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import corpus, matops
from brattice.diagram import BratteliDiagram, MultiplicityMatrix, PeriodicTail, ShapeClass, read_input
from brattice.errors import (
    DepthExceeded,
    NotInK0,
    NotUniqueMinimal,
    RankDeficient,
    SingularCompletion,
)
from brattice.k0 import (
    Auto,
    Broken,
    ExplicitColumn,
    K0Witness,
    NotMember,
    NotPositive,
    NotPositiveUpTo,
    Positive,
    Preserved,
    Realizer,
    WeightScheme,
    automorphism_probe,
    build_chain,
    complete_chain,
    complete_matrix,
    first_square,
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
from brattice.reduction import is_unique_minimal


GICAR = corpus.get("gicar").diagram()
UHF2 = corpus.get("uhf2").diagram()
UHF6 = corpus.get("uhf6").diagram()
DYADIC = corpus.get("dyadic").diagram()
PROPERSUB = corpus.get("propersub").diagram()


def width2(*squares):
    """A type1 diagram: a 2 x 1 bootstrap matrix, then the squares in turn."""
    return BratteliDiagram(
        (MultiplicityMatrix([[1], [1]]),),
        PeriodicTail(squares, 1),
        ShapeClass("type1", 2),
        "width2",
    )


WIDTH2 = width2(((1, 1), (0, 1)))
# squares that do not commute, so the order of the fold shows
TYPE1 = {"width2": WIDTH2, "width2-alternating": width2(((1, 1), (0, 1)), ((1, 0), (1, 1)))}


def explicit_chain(depth):
    """The strict-subgroup chain: level 0 completed by the column (0, 1)."""
    return complete_chain(PROPERSUB, [ExplicitColumn((0, 1))], depth)


def weights(diagram):
    """The weight scheme's closed forms, read through its own tree."""
    scheme = WeightScheme(diagram)
    return Realizer(scheme, scheme.tree)


def type1(diagram, level):
    """A type1 diagram's squares down to `level`, read through no tree."""
    return Realizer(complete_chain(diagram, Auto(), level), None)


# --- completions -------------------------------------------------------------


def completed(mat, hint):
    """complete_matrix's square as lists, once its determinant is checked
    against a Bareiss determinant of the square."""
    square, det = complete_matrix(mat, hint)
    lists = [list(row) for row in square]
    assert det == matops.det(lists)
    return lists


def test_complete_matrix_auto_frozen():
    assert completed(GICAR.matrix(0), Auto()) == [[1, 1], [1, 0]]
    # identity-plus-duplicate steps get the column that splits the doubled row
    assert completed(PROPERSUB.matrix(1), Auto()) == [
        [1, 0, 0],
        [0, 1, 1],
        [0, 1, 0],
    ]


def test_complete_matrix_explicit():
    assert completed(PROPERSUB.matrix(0), ExplicitColumn((0, 1))) == [
        [2, 0],
        [2, 1],
    ]
    with pytest.raises(SingularCompletion):
        complete_matrix(GICAR.matrix(0), ExplicitColumn((1, 1)))
    with pytest.raises(ValueError):
        complete_matrix(GICAR.matrix(0), ExplicitColumn((1, 0, 0)))


def test_k0_front_doors_refuse_inexact_entries():
    """A float is refused, not truncated: completion columns, chain squares
    and probe relabelings are read as multiplicity matrices are."""
    with pytest.raises(ValueError, match=r"^row 1, column 1: 0.5 is not an integer$"):
        complete_matrix(PROPERSUB.matrix(0), ExplicitColumn((0.5, 1.9)))
    with pytest.raises(ValueError, match=r"^completion 0: row 1, column 1: 1.5 is not an integer$"):
        build_chain([((1.5, 0), (0, 1))])
    with pytest.raises(ValueError, match=r"^row 1, column 2: 1.0 is not an integer$"):
        automorphism_probe((2, 1.0, 3, 4), weights(DYADIC), 3)
    # an integral Fraction is exact
    assert completed(PROPERSUB.matrix(0), ExplicitColumn((Fraction(0), Fraction(2, 2)))) == [[2, 0], [2, 1]]
    assert build_chain([((Fraction(4, 2), 0), (2, 1))]).dets == (2,)


def test_complete_matrix_guards():
    with pytest.raises(ValueError):
        complete_matrix(MultiplicityMatrix([[1, 1]]), Auto())
    with pytest.raises(RankDeficient):
        complete_matrix(corpus.get("fan43").matrix(), Auto())
    with pytest.raises(TypeError, match="unknown completion hint"):
        complete_matrix(GICAR.matrix(0), (0, 1))
    with pytest.raises(TypeError, match="unknown completion hint"):
        complete_chain(GICAR, ["auto"], 2)


def test_auto_succeeds_on_random_full_rank():
    rng = random.Random(612)
    done = 0
    while done < 80:
        cols = rng.randint(1, 4)
        raw = [[rng.randint(0, 3) for _ in range(cols)] for _ in range(cols + 1)]
        mat = MultiplicityMatrix(raw)
        from brattice.diagram import multiplicity_rank

        if multiplicity_rank(mat) < cols:
            continue
        done += 1
        square = completed(mat, Auto())
        assert matops.det(square) != 0
        for i in range(cols + 1):
            assert square[i][:cols] == raw[i]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda c: st.lists(st.lists(st.integers(0, 3), min_size=c, max_size=c), min_size=c + 1, max_size=c + 1)
))
def test_auto_matches_trial_determinants(rows):
    want = oracle.auto_completion(rows)
    mat = MultiplicityMatrix(rows)
    if want is None:
        with pytest.raises(RankDeficient):
            complete_matrix(mat, Auto())
    else:
        assert completed(mat, Auto()) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda c: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=c, max_size=c), min_size=c + 1, max_size=c + 1),
    st.lists(st.integers(-2, 2), min_size=c + 1, max_size=c + 1),
)))
def test_explicit_column_is_singular_exactly_when_the_determinant_vanishes(case):
    rows, col = case
    mat = MultiplicityMatrix(rows)
    square = [row + [x] for row, x in zip(rows, col)]
    if matops.rank(rows) < len(rows[0]):
        # every completion is singular, and the rank verdict comes first
        assert matops.det(square) == 0
        with pytest.raises(RankDeficient):
            complete_matrix(mat, ExplicitColumn(col))
    elif matops.det(square) == 0:
        with pytest.raises(SingularCompletion):
            complete_matrix(mat, ExplicitColumn(col))
    else:
        assert completed(mat, ExplicitColumn(col)) == square


def test_auto_matches_trial_determinants_on_gicar_levels():
    for level in range(40):
        mat = GICAR.matrix(level)
        assert completed(mat, Auto()) == oracle.auto_completion(mat.to_lists())


# --- chains ------------------------------------------------------------------


def _refuse(*args):
    raise AssertionError("unexpected call")


def test_completed_chains_take_their_determinants_from_the_null_vectors(monkeypatch):
    depth = 40
    monkeypatch.setattr(matops, "det", _refuse)
    chains = [
        complete_chain(GICAR, Auto(), depth),
        explicit_chain(depth),
        complete_chain(DYADIC, Auto(), depth),
        WeightScheme(DYADIC).chain(depth),
    ]
    monkeypatch.undo()
    for chain in chains:
        assert chain.depth == depth
        for square, det in zip(chain.squares, chain.dets):
            assert type(det) is int
            assert det == matops.det([list(row) for row in square])


def test_build_chain_mode_inference():
    # the square sizes decide the reading: one 2x2 square reads either
    # way, a growing chain pads its product, a constant one keeps its width
    assert build_chain([[[2, 0], [2, 1]]]).u_matrix(1) == [[2, 0], [2, 1]]
    assert build_chain([[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]).u_matrix(1) == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    two = build_chain([[[1, 1], [1, 0]], [[1, 0, 1], [1, 1, 0], [0, 1, 0]]])
    assert two.u_matrix(2) == [[1, 1, 1], [2, 1, 0], [1, 0, 0]]
    rep = build_chain([[[2]], [[2]]])
    assert rep.u_matrix(2) == [[4]]
    with pytest.raises(ValueError):
        # growth must start from a 2x2 square
        eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        eye4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        build_chain([eye3, eye4])
    with pytest.raises(SingularCompletion):
        build_chain([[[1, 1], [1, 1]]])


def test_chain_dets_and_scales_frozen():
    assert complete_chain(GICAR, Auto(), 3).dets == (-1, 1, -1)
    uhf2 = complete_chain(UHF2, Auto(), 3)
    assert tuple(uhf2.group_scale(n) for n in (1, 2, 3)) == (2, 4, 8)
    uhf6 = complete_chain(UHF6, Auto(), 4)
    assert tuple(uhf6.group_scale(n) for n in (1, 2, 3, 4)) == (2, 6, 12, 36)
    scheme = WeightScheme(DYADIC).chain(3)
    assert tuple(abs(d) for d in scheme.dets) == (2, 4, 8)
    assert tuple(scheme.group_scale(n) for n in (1, 2, 3)) == (2, 8, 64)


def test_dyadic_a_matrix_closed_form():
    chain = WeightScheme(DYADIC).chain(3)
    assert chain.a_matrix(2) == [
        [Fraction(1, 2), 0, 0],
        [Fraction(-1, 2), Fraction(1, 4), 0],
        [0, Fraction(-1, 4), 1],
    ]
    u = chain.u_matrix(2)
    assert oracle.is_integral(u)
    assert oracle.mat_eq(matops.mat_mul(u, chain.a_matrix(2)), matops.identity(3))


def test_exactness_reports():
    chains = [
        complete_chain(GICAR, Auto(), 4),
        complete_chain(UHF2, Auto(), 4),
        complete_chain(UHF6, Auto(), 4),
        WeightScheme(DYADIC).chain(4),
        explicit_chain(4),
    ]
    for chain in chains:
        for n in range(1, chain.depth + 1):
            report = oracle.exactness_report(chain, n)
            assert all(report.values()), report


def test_chain_depth_guard():
    chain = complete_chain(GICAR, Auto(), 2)
    with pytest.raises(DepthExceeded):
        chain.u_matrix(3)
    with pytest.raises(DepthExceeded):
        chain.group_scale(3)
    # an empty vector sits at depth -1, below the root
    with pytest.raises(DepthExceeded):
        chain.u_matrix(-1)
    with pytest.raises(DepthExceeded):
        phi((), chain, build_minimal_diagram(GICAR, "rightmost"))


def test_chain_past_the_diagram_is_refused():
    with pytest.raises(DepthExceeded, match="^level 65 requested, diagram allows 64$"):
        complete_chain(GICAR, Auto(), 65)
    assert complete_chain(GICAR, Auto(), 64).depth == 64
    # a depth is a level: after a bootstrap column, 63 squares reach level 64
    threeline = corpus.get("threeline").diagram()
    with pytest.raises(DepthExceeded, match="^level 65 requested, diagram allows 64$"):
        complete_chain(threeline, Auto(), 65)
    assert complete_chain(threeline, Auto(), 64).depth == 63
    with pytest.raises(DepthExceeded, match="^level 65 requested, diagram allows 64$"):
        type1(threeline, 65).phi((1, 2, 3))


def test_a_chain_depth_is_a_level():
    # the chain to level n takes matrices first_square..n-1, for every shape
    threeline = corpus.get("threeline").diagram()
    assert (first_square(GICAR), first_square(UHF2), first_square(threeline), first_square(WIDTH2)) == (0, 0, 1, 1)
    for diagram in (GICAR, UHF2, threeline, TYPE1["width2-alternating"]):
        start = first_square(diagram)
        for n in range(start + 1, start + 6):
            chain = complete_chain(diagram, Auto(), n)
            assert chain.depth == n - start
            if diagram.shape.kind == "type1":
                assert list(chain.squares) == [diagram.matrix(k).rows for k in range(start, n)]
    with pytest.raises(ValueError, match="^chain needs at least one completion$"):
        complete_chain(threeline, Auto(), 1)


def test_weight_scheme_refuses_past_the_diagram_by_level():
    # the level bound comes before any matrix is read: gicar's matrix 1 is
    # not forced, and dyadic's forced levels end at the depth limit
    for name in ("gicar", "dyadic"):
        scheme = WeightScheme(corpus.get(name).diagram())
        with pytest.raises(DepthExceeded, match="^level 70 requested, diagram allows 64$"):
            scheme.ensure_depth(70)
        assert scheme.depth == 0
    with pytest.raises(DepthExceeded, match="^level 65 requested, diagram allows 64$"):
        WeightScheme(DYADIC).chain(65)


def test_deep_type1_chain_matches_fraction_path(monkeypatch):
    # one product per level, extended by a loop: no recursion at depth 1100
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "3000")
    uhf2 = corpus.get("uhf2").diagram()
    chain = complete_chain(uhf2, Auto(), 1100)
    assert chain.depth == 1100
    got = Realizer(chain, None).phi((1,))
    assert got == oracle.phi_type1((1,), chain, build_minimal_diagram(uhf2, "theorem"))
    assert got == LocallyConstantFunction(1100, (Fraction(1, 2**1100),))
    # a product extends from the deepest one already computed
    partial = complete_chain(uhf2, Auto(), 1100)
    assert partial.u_matrix(7) == [[2**7]]
    assert partial.u_matrix(1100) == chain.u_matrix(1100) == [[2**1100]]


# --- the R basis -------------------------------------------------------------


def test_r_vertices():
    right = build_minimal_diagram(GICAR, "rightmost")
    assert oracle.r_vertices(right, 3) == [1, 2, 3, 4]
    left = build_minimal_diagram(GICAR, "leftmost")
    assert oracle.r_vertices(left, 2) == [1, 2, 2]


def test_r_map_frozen():
    right = build_minimal_diagram(GICAR, "rightmost")
    assert r_map((1, 2, 3), right).values == (1, 3, 6)
    assert r_map((1,), right).values == (1,)
    assert r_map((0, 1), right).values == (0, 1)


def test_to_R_basis_frozen():
    right = build_minimal_diagram(GICAR, "rightmost")
    f = LocallyConstantFunction(2, (1, 3, 6))
    assert to_R_basis(f, right) == (1, 2, 3)
    g = LocallyConstantFunction(1, (5, 7))
    assert to_R_basis(g, right) == (5, 2)


@pytest.mark.parametrize("values", [(1, 3), (1, 3, 6, 7), ()])
def test_function_with_wrong_value_count_is_rejected(values):
    right = build_minimal_diagram(GICAR, "rightmost")
    with pytest.raises(ValueError, match="level 2 has 3 vertices"):
        to_R_basis(LocallyConstantFunction(2, values), right)
    with pytest.raises(ValueError, match="level 2 has 3 vertices"):
        weights(DYADIC).membership(LocallyConstantFunction(2, values))
    with pytest.raises(DepthExceeded):
        to_R_basis(LocallyConstantFunction(-1, (1,)), right)


def test_r_basis_round_trip():
    rng = random.Random(246)
    trees = [
        build_minimal_diagram(GICAR, "rightmost"),
        build_minimal_diagram(GICAR, "alternating"),
        build_minimal_diagram(PROPERSUB, "theorem"),
    ]
    for tree in trees:
        for _ in range(40):
            n = rng.randint(0, 5)
            beta = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n + 1))
            func = r_map(beta, tree)
            assert to_R_basis(func, tree) == beta
            values = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(tree.level_count(n)))
            func = LocallyConstantFunction(n, values)
            assert r_map(to_R_basis(func, tree), tree).values == values


# --- realization maps --------------------------------------------------------


def test_phi_commutes_with_pushforward():
    rng = random.Random(777)
    chain = complete_chain(GICAR, Auto(), 6)
    tree = build_minimal_diagram(GICAR, "rightmost")
    for _ in range(30):
        n = rng.randint(0, 5)
        alpha = tuple(rng.randint(-4, 4) for _ in range(n + 1))
        assert oracle.commuting_check(n, alpha, chain, tree)


def test_phi_pow2_witness_function():
    scheme = WeightScheme(DYADIC)
    chain = scheme.chain(3)
    f = phi((1, 1, 0, 0), chain, scheme.tree)
    assert f.values == (Fraction(1, 2), Fraction(1, 4), 0, 0)
    assert Realizer(scheme, scheme.tree).phi((1, 1, 0, 0)).values == f.values


def test_phi_mode_guards():
    growth = complete_chain(GICAR, Auto(), 2)
    constant = complete_chain(UHF2, Auto(), 2)
    tree = build_minimal_diagram(GICAR, "theorem")
    type1_tree = build_minimal_diagram(UHF2, "theorem")
    with pytest.raises(ValueError):
        Realizer(growth, type1_tree).phi((1, 2))
    with pytest.raises(ValueError):
        phi((1,), constant, type1_tree)
    with pytest.raises(DepthExceeded):
        phi((1, 2, 3, 4), growth, tree)


def test_phi_type1_frozen():
    assert type1(UHF2, 3).phi((3,)).values == (Fraction(3, 8),)
    # after WIDTH2's bootstrap column, level 2 sits below its first square
    assert type1(WIDTH2, 2).phi((5, 2)) == LocallyConstantFunction(2, (3, 2))


@pytest.mark.parametrize("name", ["uhf2", "uhf6", "threeline", *TYPE1])
def test_type1_phi_matches_the_per_square_fold(name):
    # one cached integer inverse of the product against the Fraction
    # inverses of the squares, applied one level at a time
    diagram = TYPE1[name] if name in TYPE1 else corpus.get(name).diagram()
    tree = build_minimal_diagram(diagram, "theorem")
    rng = random.Random(name)
    for d in range(1, 9):
        chain = complete_chain(diagram, Auto(), first_square(diagram) + d)
        realizer = Realizer(chain, None)
        width = len(chain.squares[0])
        for _ in range(10):
            alpha = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(width)]
            assert realizer.phi(alpha) == oracle.phi_type1(alpha, chain, tree)


def test_type1_push_then_realize_equals_realize_then_refine():
    # after a bootstrap column the squares sit one level down: a chain of
    # depth d reaches level d + 1, where phi places its function
    diagram = TYPE1["width2-alternating"]
    tree = build_minimal_diagram(diagram, "theorem")
    rng = random.Random(15)
    for d in range(1, 6):
        here = type1(diagram, d + 1)
        there = type1(diagram, d + 2)
        for _ in range(3):
            alpha = [rng.randint(-9, 9) for _ in range(2)]
            func = here.phi(alpha)
            assert func.depth == d + 1
            pushed = matops.mat_vec(diagram.matrix(func.depth).to_lists(), alpha)
            assert refine(func, d + 2, tree) == there.phi(pushed)


# --- membership and positivity -----------------------------------------------


def test_order_unit_membership():
    chain = complete_chain(GICAR, Auto(), 1)
    tree = build_minimal_diagram(GICAR, "rightmost")
    one = LocallyConstantFunction(0, (1,))
    verdict = membership(one, chain, tree)
    assert verdict == K0Witness((1,), 0)


def test_strict_subgroup_rejection():
    tree = build_minimal_diagram(PROPERSUB, "theorem")
    chain = explicit_chain(6)
    base = LocallyConstantFunction(1, (0, Fraction(1, 2)))
    for d in range(1, 7):
        func = refine(base, d, tree)
        assert witness_vector(func, chain, tree) == (
            (Fraction(0),) + (Fraction(1, 2),) * d
        )
        assert membership(func, chain, tree) == NotMember(d)


def test_integer_functions_always_members():
    rng = random.Random(5150)
    tree = build_minimal_diagram(PROPERSUB, "theorem")
    chain = explicit_chain(5)
    for _ in range(60):
        d = rng.randint(0, 5)
        values = tuple(rng.randint(-5, 5) for _ in range(tree.level_count(d)))
        verdict = membership(LocallyConstantFunction(d, values), chain, tree)
        assert isinstance(verdict, K0Witness)


def test_pow2_membership_frozen():
    scheme = WeightScheme(DYADIC)
    chain = scheme.chain(3)
    f = LocallyConstantFunction(3, (Fraction(1, 2), Fraction(1, 4), 0, 0))
    g = LocallyConstantFunction(3, (Fraction(1, 4), Fraction(1, 2), 0, 0))
    assert weights(DYADIC).membership(f) == K0Witness((1, 1, 0, 0), 3)
    assert weights(DYADIC).membership(g) == NotMember(3)
    # the generic chain path agrees with the closed form
    assert membership(f, chain, scheme.tree) == K0Witness((1, 1, 0, 0), 3)
    assert membership(g, chain, scheme.tree) == NotMember(3)


def test_indicator_membership_frozen():
    tree = build_minimal_diagram(PROPERSUB, "theorem")
    chain = explicit_chain(2)
    verdict = Realizer(chain, tree).membership(indicator(Cylinder(1, 2), tree))
    assert verdict == K0Witness((0, 1), 1)
    verdict = weights(DYADIC).membership(
        LocallyConstantFunction(3, (1, 0, 0, 0))
    )
    assert verdict == K0Witness((2, 0, 0, 0), 3)


def test_positivity_verdicts():
    realizer = Realizer(complete_chain(GICAR, Auto(), 6), build_minimal_diagram(GICAR, "theorem"))
    one = LocallyConstantFunction(0, (1,))
    out = realizer.positivity(one)
    assert isinstance(out, Positive)
    assert out.level == 0 and out.witness == (1,)

    mixed = realizer.phi((2, -1))
    out = realizer.positivity(mixed, bound=6)
    assert out == NotPositiveUpTo(6)
    # a bound below the function's depth: the scan names the level it read
    assert realizer.positivity(mixed, bound=0) == NotPositiveUpTo(1)

    with pytest.raises(NotInK0):
        Realizer(explicit_chain(1), build_minimal_diagram(PROPERSUB, "theorem")).positivity(
            LocallyConstantFunction(1, (0, Fraction(1, 2)))
        )


def test_positivity_refuses_a_bound_past_a_finite_diagram():
    mats = tuple(GICAR.matrix(n) for n in range(3))
    finite = BratteliDiagram(mats, None, ShapeClass("type2"), "fin")
    realizer = Realizer(complete_chain(finite, Auto(), 3), build_minimal_diagram(finite, "theorem"))
    mixed = realizer.phi((2, -1))
    with pytest.raises(DepthExceeded, match="level 10 requested, diagram allows 3"):
        realizer.positivity(mixed, bound=10)
    # the default bound is the diagram's last level
    assert realizer.positivity(mixed) == realizer.positivity(mixed, bound=3) == NotPositiveUpTo(3)


def test_weight_scheme_positivity():
    realizer = weights(DYADIC)
    good = LocallyConstantFunction(2, (1, Fraction(1, 4), 0))
    out = realizer.positivity(good)
    assert isinstance(out, Positive)
    bad = LocallyConstantFunction(2, (1, Fraction(-1, 4), 0))
    assert realizer.positivity(bad) == NotPositive()


# --- weight schemes ----------------------------------------------------------


def test_weight_scheme_frozen_values():
    scheme = WeightScheme(DYADIC)
    assert scheme.weights(3) == (2, 4, 8, 1)
    assert scheme.weights(0) == (1,)
    assert tuple(scheme.b(n) for n in range(3)) == (1, 1, 1)


def test_weight_scheme_recursion_law():
    scheme = WeightScheme(DYADIC)
    for level in range(5):
        mat = DYADIC.matrix(level)
        parents = scheme.tree.parents_at(level + 1)
        prev = scheme.weights(level)
        cur = scheme.weights(level + 1)
        for child, parent in enumerate(parents, start=1):
            assert cur[child - 1] == mat.rows[child - 1][parent - 1] * prev[parent - 1]
        big = max(oracle.col_support(mat, is_unique_minimal(mat)[1]))
        assert scheme.b(level) == cur[big - 1]


def test_weight_scheme_needs_unique_minimal():
    with pytest.raises(NotUniqueMinimal):
        WeightScheme(GICAR).weights(2)
    # matrix 1 has one reduction, yet grows by two branches: rows 1, 2 on
    # column 1 and rows 3, 4 on column 2
    diagram = read_input((Path(__file__).parent / "data" / "two-branches.bd").read_text(), "two-branches")[1]
    assert is_unique_minimal(diagram.matrix(1)) == (True, None)
    with pytest.raises(NotUniqueMinimal, match="^matrix 1 does not grow by a single branch$"):
        weights(diagram).membership(LocallyConstantFunction(2, (1, 1, 1, 1)))


def test_weight_scheme_chain_matches_columns():
    scheme = WeightScheme(DYADIC)
    for level, square in enumerate(scheme.chain(3).squares):
        mat = DYADIC.matrix(level)
        b = scheme.b(level)
        col = [row[-1] for row in square]
        big = max(oracle.col_support(mat, is_unique_minimal(mat)[1]))
        assert col[big - 1] == b
        assert all(x == 0 for i, x in enumerate(col, start=1) if i != big)


@pytest.mark.parametrize("name", ["dyadic", "propersub"])
def test_weight_scheme_chain_determinant_is_z_big_times_b(name):
    # the left null vector of a forced single-growth matrix is nonzero on
    # the branch column's two rows alone, so no weight completion is singular
    diagram = corpus.get(name).diagram()
    scheme = WeightScheme(diagram)
    chain = scheme.chain(8)
    for level in range(8):
        mat = diagram.matrix(level)
        branch = oracle.col_support(mat, is_unique_minimal(mat)[1])
        z = matops.left_null_vector(mat.rows)
        assert [i for i, x in enumerate(z, start=1) if x] == list(branch)
        assert chain.dets[level] == z[max(branch) - 1] * scheme.b(level) != 0


# --- probes ------------------------------------------------------------------


def test_probe_broken_frozen():
    theta = (2, 1, 3, 4)
    verdict = automorphism_probe(theta, weights(DYADIC), 3)
    assert isinstance(verdict, Broken)
    assert verdict.witness.values == (Fraction(1, 2), Fraction(1, 4), 0, 0)
    assert verdict.image.values == (Fraction(1, 4), Fraction(1, 2), 0, 0)


def test_probe_identity_preserved():
    verdict = automorphism_probe((1, 2, 3, 4), weights(DYADIC), 3)
    assert isinstance(verdict, Preserved)
    assert verdict.checked > 0


def test_probe_refuses_a_level_below_the_root():
    realizer = weights(DYADIC)
    realizer.tree.ensure_depth(3)
    # level -2 once read the tree's level 1 through negative indexing
    for theta in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(DepthExceeded):
            automorphism_probe(theta, realizer, -2)


@pytest.mark.parametrize("name", ["dyadic", "propersub"])
def test_probe_verdict_is_the_same_through_the_scheme_and_its_chain(name):
    """The weight scheme's closed forms against the general realizer of
    its completion, scheme.chain(n) read through the scheme's tree: probe
    verdicts to depth 3, then phi, membership and positivity at depths
    0-12 on seeded random vectors."""
    scheme = WeightScheme(corpus.get(name).diagram())
    closed = Realizer(scheme, scheme.tree)
    for depth in range(1, 4):
        through_chain = Realizer(scheme.chain(depth), scheme.tree)
        m = scheme.tree.ensure_depth(depth).level_count(depth)
        for theta in itertools.permutations(range(1, m + 1)):
            want = automorphism_probe(theta, closed, depth)
            assert automorphism_probe(theta, through_chain, depth) == want

    general = Realizer(scheme.chain(12), scheme.tree)
    rng = random.Random(name)
    for n in range(13):
        ks = scheme.weights(n)
        for _ in range(10):
            rational = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n + 1))
            func = closed.phi(rational)
            assert general.phi(rational) == func
            assert general.membership(func) == closed.membership(func)

            alpha = tuple(rng.randint(-9, 9) for _ in range(n + 1))
            func = closed.phi(alpha)
            assert general.phi(alpha) == func
            assert general.membership(func) == closed.membership(func) == K0Witness(alpha, n)
            # a value moved by a fraction of its weight's inverse leaves the group
            i = rng.randrange(n + 1)
            values = list(func.values)
            values[i] += Fraction(1, rng.choice((2, 3)) * ks[i])
            moved = LocallyConstantFunction(n, tuple(values))
            assert general.membership(moved) == closed.membership(moved) == NotMember(n)

            # the sign rule where the scan's first level decides: the same
            # Positive, or a negative entry in both witnesses
            verdict = closed.positivity(func)
            if isinstance(verdict, Positive):
                assert general.positivity(func, bound=n) == verdict == Positive(n, alpha)
            else:
                assert verdict == NotPositive()
                assert general.positivity(func, bound=n) == NotPositiveUpTo(n)


def test_probe_preserved_on_unimodular_chain():
    chain = complete_chain(GICAR, Auto(), 3)
    tree = build_minimal_diagram(GICAR, "rightmost")
    verdict = automorphism_probe((2, 1, 3, 4), Realizer(chain, tree), 3)
    assert isinstance(verdict, Preserved)
