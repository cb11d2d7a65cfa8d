"""End-to-end acceptance checks, one summary line printed per criterion.

Each test recomputes its claim from scratch (fresh randomness under a fixed
seed, brute-force oracles where one exists) and prints a PASS/FAIL line that
survives pytest's capture, so a plain `pytest -v` run shows the tally.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import exact_oracle as oracle
import pytest

from brattice import corpus, matops
from brattice.diagram import (
    BratteliDiagram,
    MultiplicityMatrix,
    ShapeClass,
    dilate_step,
    mm_product,
    multiplicity_rank,
)
from brattice.errors import RankDeficient
from brattice.k0 import (
    Auto,
    Broken,
    ExplicitColumn,
    K0Witness,
    NotMember,
    Realizer,
    WeightScheme,
    automorphism_probe,
    complete_chain,
    first_square,
    membership,
    phi,
    witness_vector,
)
from brattice.pathspace import (
    Cylinder,
    LocallyConstantFunction,
    build_minimal_diagram,
    compare_invariants,
    end_census,
    indicator,
    refine,
)
from brattice.reduction import (
    enumerate_minimal_reductions,
    is_unique_minimal,
    minimal_reduce,
    pivot_row,
    reduction_is_valid,
)


def _report(num, ok, detail):
    import conftest

    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {mark}  {detail}"
    conftest.acceptance_lines.append(line)
    print(line)


def _rand_tall(rng, cols, surplus, hi=3, positive=False):
    while True:
        raw = [
            [rng.randint(0, hi) for _ in range(cols)]
            for _ in range(cols + surplus)
        ]
        mat = MultiplicityMatrix(raw)
        if multiplicity_rank(mat) != cols:
            continue
        if positive and not oracle.has_positive_rows_and_cols(mat):
            continue
        return mat


def test_criterion_01_reduction_vs_oracle():
    rng = random.Random(20260501)
    problems = []
    for trial in range(500):
        cols = rng.randint(1, 5)
        mat = _rand_tall(rng, cols, 1, positive=True)
        maps = enumerate_minimal_reductions(mat)
        if not maps:
            problems.append((trial, "empty enumeration"))
            continue
        outcome = minimal_reduce(mat)
        if not reduction_is_valid(mat, outcome.parents):
            problems.append((trial, "invalid reduction"))
        if outcome.parents not in maps:
            problems.append((trial, "reduction missing from enumeration"))
    _report(1, not problems, "500 random single-surplus matrices vs brute force")
    assert not problems, problems[:5]


def test_criterion_02_rank_deficient_control():
    mat = corpus.get("fan43").matrix()
    assert mat.to_lists() == [[0, 0, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1]]
    ok = multiplicity_rank(mat) == 2
    with pytest.raises(RankDeficient):
        minimal_reduce(mat)
    ok = ok and enumerate_minimal_reductions(mat) == []
    _report(2, ok, "4x3 rank-2 matrix: reduce errors, enumeration empty")
    assert ok


def test_criterion_03_census_discrimination():
    diagram = corpus.get("gicar").diagram()
    right = build_minimal_diagram(diagram, "rightmost")
    alt = build_minimal_diagram(diagram, "alternating")
    c_right = end_census(right)
    c_alt = end_census(alt)
    ok = (
        c_right.kind == "countably-infinite"
        and c_right.count is None
        and c_right.condensation == 1
        and c_right.certified
        and c_alt.kind == "countably-infinite"
        and c_alt.condensation == 2
        and c_alt.certified
        and compare_invariants(right, alt) == "distinct"
    )
    _report(3, ok, "rightmost (1 condensation) vs alternating (2): distinct")
    assert ok


def test_criterion_04_dilation_round_trip():
    rng = random.Random(20260504)
    problems = []
    for trial in range(200):
        cols = rng.randint(1, 4)
        surplus = rng.randint(1, 3)
        mat = _rand_tall(rng, cols, surplus)
        order, factors = dilate_step(mat)
        for idx, fac in enumerate(factors, start=1):
            w = fac.ncols
            lead = idx - 1
            if fac.nrows != w + 1:
                problems.append((trial, idx, "not single growth"))
                continue
            shape_ok = all(
                fac.rows[i][j] == (1 if i == j else 0)
                for i in range(lead)
                for j in range(w)
            ) and all(
                fac.rows[i][j] == 0
                for i in range(lead, w + 1)
                for j in range(lead)
            )
            if not shape_ok:
                problems.append((trial, idx, "identity block broken"))
            block = [
                [fac.rows[i][j] for j in range(lead, w)]
                for i in range(lead, w + 1)
            ]
            if matops.rank(block) != w - lead:
                problems.append((trial, idx, "rank-deficient factor"))
        prod = factors[0]
        for fac in factors[1:]:
            prod = mm_product(fac, prod)
        back = [None] * mat.nrows
        for pos, orig in enumerate(order):
            back[orig] = list(prod.rows[pos])
        if back != mat.to_lists():
            problems.append((trial, "telescoped product differs"))
    _report(4, not problems, "200 random tall matrices dilate and telescope back")
    assert not problems, problems[:5]


def test_criterion_05_commuting_square():
    rng = random.Random(20260505)
    problems = []

    growth = {
        "gicar": (
            complete_chain(corpus.get("gicar").diagram(), Auto(), 9),
            build_minimal_diagram(corpus.get("gicar").diagram(), "theorem"),
        ),
        "propersub": (
            complete_chain(
                corpus.get("propersub").diagram(), [ExplicitColumn((0, 1))], 9
            ),
            build_minimal_diagram(corpus.get("propersub").diagram(), "theorem"),
        ),
    }
    dyadic_scheme = WeightScheme(corpus.get("dyadic").diagram())
    growth["dyadic"] = (dyadic_scheme.chain(9), dyadic_scheme.tree)
    for name, (chain, tree) in growth.items():
        for n in range(0, 9):
            for _ in range(100):
                alpha = [rng.randint(-9, 9) for _ in range(n + 1)]
                if not oracle.commuting_check(n, alpha, chain, tree):
                    problems.append((name, n, alpha))

    for name in ("uhf2", "uhf6", "threeline"):
        diagram = corpus.get(name).diagram()
        tree = build_minimal_diagram(diagram, "theorem")
        start = first_square(diagram)
        for d in range(1, 9):
            width = diagram.level_count(d)
            for _ in range(100):
                alpha = [rng.randint(-9, 9) for _ in range(width)]
                here = Realizer(complete_chain(diagram, Auto(), start + d), None).phi(alpha)
                pushed = matops.mat_vec(
                    diagram.matrix(d).to_lists(), [Fraction(x) for x in alpha]
                )
                nxt = Realizer(complete_chain(diagram, Auto(), start + d + 1), None).phi(pushed)
                if not oracle.functions_equal(refine(here, d + 1, tree), nxt, tree):
                    problems.append((name, d, alpha))
    _report(
        5,
        not problems,
        "push-then-realize equals realize-then-refine, 6 diagrams, n <= 8",
    )
    assert not problems, problems[:5]


def test_criterion_06_unimodular_membership():
    diagram = corpus.get("gicar").diagram()
    chain = complete_chain(diagram, Auto(), 6)
    assert all(abs(d) == 1 for d in chain.dets)
    tree = build_minimal_diagram(diagram, "rightmost")
    problems = []
    checked = 0
    for depth in range(0, 4):
        width = depth + 1
        for values in itertools.product(range(-2, 3), repeat=width):
            func = LocallyConstantFunction(depth, tuple(values))
            verdict = membership(func, chain, tree)
            checked += 1
            if not isinstance(verdict, K0Witness):
                problems.append((depth, values))
            elif phi(verdict.alpha, chain, tree).values != func.values:
                problems.append((depth, values, "witness does not realize"))
    rng = random.Random(20260506)
    for depth in range(4, 7):
        for _ in range(40):
            values = tuple(rng.randint(-20, 20) for _ in range(depth + 1))
            func = LocallyConstantFunction(depth, values)
            verdict = membership(func, chain, tree)
            checked += 1
            if not isinstance(verdict, K0Witness):
                problems.append((depth, values))
    _report(
        6,
        not problems,
        f"unit-determinant chain admits every integer function ({checked} checked)",
    )
    assert not problems, problems[:5]


def test_criterion_07_strict_subgroup_rejection():
    diagram = corpus.get("propersub").diagram()
    tree = build_minimal_diagram(diagram, "theorem")
    chain = complete_chain(diagram, [ExplicitColumn((0, 1))], 10)
    base = LocallyConstantFunction(1, (0, Fraction(1, 2)))
    problems = []
    for d in range(1, 11):
        func = refine(base, d, tree)
        wv = witness_vector(func, chain, tree)
        if wv != (Fraction(0),) + (Fraction(1, 2),) * d:
            problems.append((d, wv))
        if membership(func, chain, tree) != NotMember(d):
            problems.append((d, "not rejected"))
    _report(7, not problems, "half-integer function rejected at every depth <= 10")
    assert not problems, problems


def test_criterion_08_doubling_closed_forms():
    scheme = WeightScheme(corpus.get("dyadic").diagram())
    t0 = time.monotonic()
    chain = scheme.chain(10)
    elapsed = time.monotonic() - t0
    problems = []
    if elapsed >= 5.0:
        problems.append(f"chain build took {elapsed:.2f}s")

    def a_closed(n):
        size = n + 1
        a = [[Fraction(0)] * size for _ in range(size)]
        for l in range(1, n + 1):
            a[l - 1][l - 1] = Fraction(1, 2 ** l)
            a[l][l - 1] = -Fraction(1, 2 ** l)
        a[n][n] = Fraction(1)
        return a

    for n in range(0, 11):
        if chain.a_matrix(n) != a_closed(n):
            problems.append(f"a_matrix({n}) off closed form")

    rng = random.Random(20260508)
    tree = scheme.tree
    for n in range(0, 11):
        for _ in range(20):
            alpha = [rng.randint(-9, 9) for _ in range(n + 1)]
            want = tuple(
                Fraction(alpha[l - 1], 2 ** l) for l in range(1, n + 1)
            ) + (Fraction(alpha[n]),)
            if phi(alpha, chain, tree).values != want:
                problems.append((n, alpha, "phi off closed form"))

    verdict = automorphism_probe((2, 1, 3, 4), Realizer(scheme, tree), 3)
    if not isinstance(verdict, Broken):
        problems.append("swap probe not broken")
    elif verdict.witness.values != (Fraction(1, 2), Fraction(1, 4), 0, 0):
        problems.append(f"unexpected witness {verdict.witness.values}")
    _report(
        8,
        not problems,
        f"halving chain closed forms to depth 10, swap probe broken "
        f"({elapsed:.2f}s build)",
    )
    assert not problems, problems


def _rand_unique_minimal(rng):
    depth = rng.randint(1, 6)
    mats = []
    for level in range(depth):
        c = level + 1
        j = rng.randint(1, c)
        rows = []
        for i in range(1, c + 2):
            if i <= j:
                parent = i
            elif i == j + 1:
                parent = j
            else:
                parent = i - 1
            row = [0] * c
            row[parent - 1] = rng.randint(1, 4)
            rows.append(row)
        mats.append(MultiplicityMatrix(rows))
    return BratteliDiagram(tuple(mats), None, ShapeClass("type2"), "rand")


def test_criterion_09_weight_scheme_laws():
    rng = random.Random(20260509)
    problems = []
    for trial in range(100):
        diagram = _rand_unique_minimal(rng)
        depth = diagram.explicit_depth
        scheme = WeightScheme(diagram)
        scheme.ensure_depth(depth)
        tree = scheme.tree
        chain = scheme.chain(depth)
        closed = Realizer(scheme, tree)

        for level in range(depth):
            mat = diagram.matrix(level)
            prev = scheme.weights(level)
            cur = scheme.weights(level + 1)
            parents = tree.parents_at(level + 1)
            for child, parent in enumerate(parents, start=1):
                if cur[child - 1] != mat.rows[child - 1][parent - 1] * prev[parent - 1]:
                    problems.append((trial, level, child, "step recursion"))
            j = is_unique_minimal(mat)[1]
            if max(oracle.col_support(mat, j)) != j + 1:
                problems.append((trial, level, "branch rows not adjacent"))
            if scheme.b(level) != mat.rows[j][j - 1] * prev[j - 1]:
                problems.append((trial, level, "b formula"))

        for n in range(depth + 1):
            for i in range(1, tree.level_count(n) + 1):
                along = 1
                for lev in range(1, n + 1):
                    child = tree.ancestor(n, i, lev)
                    parent = tree.ancestor(n, i, lev - 1)
                    along *= diagram.matrix(lev - 1).rows[child - 1][parent - 1]
                if scheme.weights(n)[i - 1] != along:
                    problems.append((trial, n, i, "path product"))

        for _ in range(5):
            alpha = [rng.randint(-6, 6) for _ in range(depth + 1)]
            if phi(alpha, chain, tree).values != closed.phi(alpha).values:
                problems.append((trial, alpha, "phi off closed form"))

        for level in range(depth + 1):
            for v in range(1, tree.level_count(level) + 1):
                verdict = closed.membership(indicator(Cylinder(level, v), tree))
                if not isinstance(verdict, K0Witness):
                    problems.append((trial, level, v, "indicator not a member"))
    _report(9, not problems, "100 random forced diagrams: weight laws plus witnesses")
    assert not problems, problems[:5]


def test_criterion_10_pivot_postconditions():
    rng = random.Random(20260510)
    problems = []
    for trial in range(500):
        size = rng.randint(1, 8)
        while True:
            b = [
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            if matops.det(b) != 0:
                break
        k = pivot_row(b)
        if b[k - 1][size - 1] == 0:
            problems.append((trial, "pivot entry zero"))
        valid = []
        for cand in range(1, size + 1):
            if b[cand - 1][size - 1] == 0:
                continue
            if size == 1:
                valid.append(cand)
                continue
            minor = [row[: size - 1] for idx, row in enumerate(b, 1) if idx != cand]
            if matops.det(minor) != 0:
                valid.append(cand)
        if not valid:
            problems.append((trial, "scan found no pivot in a nonsingular matrix"))
        elif k != valid[0]:
            problems.append((trial, f"pivot {k} but scan says {valid[0]}"))
    _report(10, not problems, "500 random nonsingular matrices vs exhaustive scan")
    assert not problems, problems[:5]


def _corpus_chains(depth):
    return {
        "gicar": complete_chain(corpus.get("gicar").diagram(), Auto(), depth),
        "uhf2": complete_chain(corpus.get("uhf2").diagram(), Auto(), depth),
        "uhf6": complete_chain(corpus.get("uhf6").diagram(), Auto(), depth),
        # after its bootstrap column, depth squares reach level depth + 1
        "threeline": complete_chain(
            corpus.get("threeline").diagram(), Auto(), depth + 1
        ),
        "propersub": complete_chain(
            corpus.get("propersub").diagram(), [ExplicitColumn((0, 1))], depth
        ),
        "dyadic": WeightScheme(corpus.get("dyadic").diagram()).chain(depth),
    }


def test_criterion_11_exactness_suite():
    rng = random.Random(20260511)
    problems = []
    for name, chain in _corpus_chains(10).items():
        for k, sq in enumerate(chain.squares):
            m = [list(r) for r in sq]
            adj = oracle.adjugate(m)
            d = matops.det(m)
            size = len(m)
            want = [[d if i == j else 0 for j in range(size)] for i in range(size)]
            if not oracle.mat_eq(matops.mat_mul(adj, m), want):
                problems.append((name, k, "adjugate law"))
            if not oracle.is_integral(adj):
                problems.append((name, k, "adjugate not integral"))
        for n in range(1, 10):
            if chain.group_scale(n + 1) % chain.group_scale(n) != 0:
                problems.append((name, n, "scale not divisible"))
        for n in range(1, 11):
            report = oracle.exactness_report(chain, n)
            if not all(report.values()):
                problems.append((name, n, report))

        diagram = corpus.get(name).diagram()
        tree = build_minimal_diagram(diagram, "theorem")
        if diagram.shape.kind != "type1":
            for n in range(0, 11):
                scale = chain.group_scale(n)
                for _ in range(20):
                    alpha = [rng.randint(-9, 9) for _ in range(n + 1)]
                    f = phi(alpha, chain, tree)
                    if any((v * scale).denominator != 1 for v in f.values):
                        problems.append((name, n, "image outside lattice"))
        else:
            for d in range(1, 11):
                sub = complete_chain(diagram, Auto(), first_square(diagram) + d)
                scale = sub.group_scale(d)
                width = diagram.level_count(d)
                for _ in range(20):
                    alpha = [rng.randint(-9, 9) for _ in range(width)]
                    f = Realizer(sub, None).phi(alpha)
                    if any((v * scale).denominator != 1 for v in f.values):
                        problems.append((name, d, "image outside lattice"))
    _report(11, not problems, "adjugate, divisibility, and lattice laws to depth 10")
    assert not problems, problems[:5]
