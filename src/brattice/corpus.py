"""Built-in worked examples with frozen expected values.

Every record carries a tag naming how its value was obtained:
'hand-checked' (worked by hand), 'closed-form' (known formula),
'enumeration' (exhaustive search), 'exact-solve' (exact linear algebra).
compute_field re-derives any record live so drift is caught immediately.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import (
    BratteliDiagram,
    FamilyTail,
    MultiplicityMatrix,
    PeriodicTail,
    ShapeClass,
    multiplicity_rank,
    telescope,
)
from .errors import RankDeficient
from .k0 import (
    Auto,
    Broken,
    ChainRealizer,
    ExplicitColumn,
    NotMember,
    WeightScheme,
    automorphism_probe,
    complete_chain,
    membership,
    r_map,
    to_R_basis,
)
from .pathspace import (
    Cylinder,
    LocallyConstantFunction,
    UserMap,
    build_minimal_diagram,
    compare_invariants,
    cylinder_children,
    end_census,
    indicator,
    refine,
)
from .record import Record
from .reduction import (
    enumerate_minimal_reductions,
    is_unique_minimal,
    minimal_reduce,
    minimal_reduce_square,
)


class ExpectedRecord(Record):
    field: str
    tag: str
    value: object


class ExampleCorpusEntry(Record):
    name: str
    description: str
    kind: str  # "diagram" | "matrix"
    records: tuple

    def diagram(self):
        if self.kind != "diagram":
            raise ValueError(f"{self.name} is not a diagram entry")
        return _DIAGRAMS[self.name]()

    def matrix(self):
        if self.kind != "matrix":
            raise ValueError(f"{self.name} is not a matrix entry")
        return MultiplicityMatrix(_MATRICES[self.name])


def _gicar():
    return BratteliDiagram((), FamilyTail("gicar"), ShapeClass("type2"), "gicar")


def _uhf2():
    tail = PeriodicTail((((2,),),), 0)
    return BratteliDiagram((), tail, ShapeClass("type1", 1), "uhf2")


def _uhf6():
    tail = PeriodicTail((((2,),), ((3,),)), 0)
    return BratteliDiagram((), tail, ShapeClass("type1", 1), "uhf6")


def _dyadic():
    return BratteliDiagram((), FamilyTail("dyadic"), ShapeClass("type2"), "dyadic")


def _propersub():
    return BratteliDiagram(
        (MultiplicityMatrix([[2], [2]]),),
        FamilyTail("dupline"),
        ShapeClass("type2"),
        "propersub",
    )


def _pinch():
    mats = (
        MultiplicityMatrix([[1], [1]]),
        MultiplicityMatrix([[1, 1]]),
    )
    tail = PeriodicTail((((1,),),), 2)
    return BratteliDiagram(mats, tail, ShapeClass("irregular"), "pinch")


def _threeline():
    boot = MultiplicityMatrix([[1], [1], [1]])
    tpl = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
    tail = PeriodicTail((tpl,), 1)
    return BratteliDiagram((boot,), tail, ShapeClass("type1", 3), "threeline")


_DIAGRAMS = {
    "gicar": _gicar,
    "uhf2": _uhf2,
    "uhf6": _uhf6,
    "dyadic": _dyadic,
    "propersub": _propersub,
    "pinch": _pinch,
    "threeline": _threeline,
}

_MATRICES = {
    "fan43": [[0, 0, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1]],
    "twocol": [[2, 1], [1, 0], [2, 0]],
    "forced": [[1, 0], [0, 1], [0, 1]],
    "threebranch": [[1, 1], [1, 1], [1, 0]],
    "squareswap": [[0, 2], [3, 0]],
}

_PINCH_MAPS = UserMap(((1, (1, 1)), (2, (1,))))


ENTRIES = (
    ExampleCorpusEntry(
        "gicar",
        "single-growth ladder, two edges at each new vertex pair",
        "diagram",
        (
            ExpectedRecord("telescope 0,2", "hand-checked", ((1,), (2,), (1,))),
            ExpectedRecord("auto_dets 3", "hand-checked", (-1, 1, -1)),
            ExpectedRecord(
                "census rightmost", "closed-form", ("countably-infinite", None, 1)
            ),
            ExpectedRecord(
                "census alternating", "closed-form", ("countably-infinite", None, 2)
            ),
            ExpectedRecord("compare rightmost alternating", "closed-form", "distinct"),
            ExpectedRecord("children rightmost 1,1", "hand-checked", ((2, 1),)),
            ExpectedRecord("children rightmost 1,2", "hand-checked", ((2, 2), (2, 3))),
            ExpectedRecord("refine rightmost 2 : 1,2", "hand-checked", (1, 2, 2)),
            ExpectedRecord("rmap rightmost : 1,2,3", "hand-checked", (1, 3, 6)),
            ExpectedRecord("rbasis rightmost : 1,3,6", "exact-solve", (1, 2, 3)),
        ),
    ),
    ExampleCorpusEntry(
        "uhf2",
        "one vertex per level, multiplicity two",
        "diagram",
        (
            ExpectedRecord("telescope 0,2", "hand-checked", ((4,),)),
            ExpectedRecord("phi_type1 3 : 3", "hand-checked", (Fraction(3, 8),)),
            ExpectedRecord("scales 3", "hand-checked", (2, 4, 8)),
            ExpectedRecord("census theorem", "closed-form", ("finite", 1, 0)),
        ),
    ),
    ExampleCorpusEntry(
        "uhf6",
        "one vertex per level, multiplicities alternating two and three",
        "diagram",
        (
            ExpectedRecord("scales 4", "hand-checked", (2, 6, 12, 36)),
            ExpectedRecord("census theorem", "closed-form", ("finite", 1, 0)),
        ),
    ),
    ExampleCorpusEntry(
        "dyadic",
        "identity lines plus a doubling fork column",
        "diagram",
        (
            ExpectedRecord("weights 3", "closed-form", (2, 4, 8, 1)),
            ExpectedRecord("bvals 3", "closed-form", (1, 1, 1)),
            ExpectedRecord("scheme_dets 3", "closed-form", (2, 4, 8)),
            ExpectedRecord(
                "a_matrix 2",
                "closed-form",
                (
                    (Fraction(1, 2), 0, 0),
                    (Fraction(-1, 2), Fraction(1, 4), 0),
                    (0, Fraction(-1, 4), 1),
                ),
            ),
            ExpectedRecord("probe swap12 3", "closed-form", "broken"),
            ExpectedRecord(
                "probe_witness swap12 3",
                "closed-form",
                (Fraction(1, 2), Fraction(1, 4), 0, 0),
            ),
        ),
    ),
    ExampleCorpusEntry(
        "propersub",
        "doubled root edges, then identity lines with a plain fork",
        "diagram",
        (
            ExpectedRecord("unique_levels 3", "closed-form", (1, 2, 3)),
            ExpectedRecord("forced_parents 2", "closed-form", ((1, 1), (1, 2, 2))),
            ExpectedRecord("explicit_scales 3", "hand-checked", (2, 2, 2)),
            ExpectedRecord("indicator_member 1,2", "exact-solve", (0, 1)),
            ExpectedRecord("reject_half 6", "exact-solve", "all-non-member"),
        ),
    ),
    ExampleCorpusEntry(
        "pinch",
        "two arms that merge back into one line",
        "diagram",
        (
            ExpectedRecord("shape", "hand-checked", "irregular"),
            ExpectedRecord("children usermap 1,2", "hand-checked", ()),
            ExpectedRecord("children usermap 1,1", "hand-checked", ((2, 1),)),
        ),
    ),
    ExampleCorpusEntry(
        "threeline",
        "three parallel lines after a joint bootstrap",
        "diagram",
        (ExpectedRecord("census theorem", "closed-form", ("finite", 3, 0)),),
    ),
    ExampleCorpusEntry(
        "fan43",
        "third column dominates; no assignment can cover the first two",
        "matrix",
        (
            ExpectedRecord("rank", "hand-checked", 2),
            ExpectedRecord("reduce", "hand-checked", "RankDeficient"),
            ExpectedRecord("enumeration", "enumeration", ()),
        ),
    ),
    ExampleCorpusEntry(
        "twocol",
        "full rank with one free row: a single assignment, yet not forced row-wise",
        "matrix",
        (
            ExpectedRecord("rank", "hand-checked", 2),
            ExpectedRecord("reduce", "hand-checked", (2, 1, 1)),
            ExpectedRecord("enumeration", "enumeration", ((2, 1, 1),)),
            ExpectedRecord("unique_minimal", "hand-checked", (False, None)),
        ),
    ),
    ExampleCorpusEntry(
        "forced",
        "monomial rows force the assignment",
        "matrix",
        (
            ExpectedRecord("unique_minimal", "hand-checked", (True, 2)),
            ExpectedRecord("reduce", "hand-checked", (1, 2, 2)),
            ExpectedRecord("enumeration", "enumeration", ((1, 2, 2),)),
        ),
    ),
    ExampleCorpusEntry(
        "threebranch",
        "two dense rows over two columns",
        "matrix",
        (
            ExpectedRecord("reduce", "hand-checked", (2, 1, 1)),
            ExpectedRecord(
                "enumeration", "enumeration", ((1, 2, 1), (2, 1, 1), (2, 2, 1))
            ),
        ),
    ),
    ExampleCorpusEntry(
        "squareswap",
        "anti-diagonal square",
        "matrix",
        (ExpectedRecord("reduce_square", "hand-checked", (2, 1)),),
    ),
)


def entries():
    return ENTRIES


def get(name):
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry {name!r}")


def _strategy_for(entry, word):
    if word == "usermap":
        return _PINCH_MAPS
    return word


def compute_field(entry, field):
    """Re-derive one frozen record live."""
    head, _, inline = field.partition(" : ")
    words = head.split()
    op = words[0]
    args = words[1:]

    if entry.kind == "matrix":
        mat = entry.matrix()
        if op == "rank":
            return multiplicity_rank(mat)
        if op == "reduce":
            try:
                return minimal_reduce(mat).parents
            except RankDeficient:
                return "RankDeficient"
        if op == "reduce_square":
            return minimal_reduce_square(mat).parents
        if op == "enumeration":
            return tuple(enumerate_minimal_reductions(mat))
        if op == "unique_minimal":
            return is_unique_minimal(mat)
        raise ValueError(f"unknown matrix field {field!r}")

    diagram = entry.diagram()
    if op == "shape":
        return diagram.shape.kind
    if op == "telescope":
        levels = tuple(int(t) for t in args[0].split(","))
        out = telescope(diagram, levels)
        return out.matrix(0).rows
    if op == "auto_dets":
        chain = complete_chain(diagram, Auto(), int(args[0]))
        return chain.dets
    if op == "scales":
        depth = int(args[0])
        chain = complete_chain(diagram, Auto(), depth)
        return tuple(chain.group_scale(n) for n in range(1, depth + 1))
    if op == "phi_type1":
        depth = int(args[0])
        vec = tuple(Fraction(t) for t in inline.split(","))
        chain = complete_chain(diagram, Auto(), depth)
        tree = build_minimal_diagram(diagram, "theorem")
        return ChainRealizer(chain, tree, constant=True).phi(vec).values
    if op == "census":
        tree = build_minimal_diagram(diagram, _strategy_for(entry, args[0]))
        c = end_census(tree)
        return (c.kind, c.count, c.condensation)
    if op == "compare":
        t1 = build_minimal_diagram(diagram, args[0])
        t2 = build_minimal_diagram(entry.diagram(), args[1])
        return compare_invariants(t1, t2)
    if op == "children":
        strat = _strategy_for(entry, args[0])
        tree = build_minimal_diagram(diagram, strat)
        level, vertex = (int(t) for t in args[1].split(","))
        kids = cylinder_children(tree, Cylinder(level, vertex))
        return tuple((c.level, c.vertex) for c in kids)
    if op == "refine":
        tree = build_minimal_diagram(diagram, args[0])
        to_depth = int(args[1])
        values = tuple(Fraction(t) for t in inline.split(","))
        func = LocallyConstantFunction(len(values) - 1, values)
        return tuple(refine(func, to_depth, tree).values)
    if op == "rmap":
        tree = build_minimal_diagram(diagram, args[0])
        beta = tuple(Fraction(t) for t in inline.split(","))
        return tuple(r_map(beta, tree).values)
    if op == "rbasis":
        tree = build_minimal_diagram(diagram, args[0])
        values = tuple(Fraction(t) for t in inline.split(","))
        func = LocallyConstantFunction(len(values) - 1, values)
        return to_R_basis(func, tree)
    if op == "weights":
        scheme = WeightScheme(diagram)
        return scheme.weights(int(args[0]))
    if op == "bvals":
        scheme = WeightScheme(diagram)
        upto = int(args[0])
        return tuple(scheme.b(k) for k in range(upto))
    if op == "scheme_dets":
        scheme = WeightScheme(diagram)
        chain = scheme.chain(int(args[0]))
        return tuple(abs(d) for d in chain.dets)
    if op == "a_matrix":
        scheme = WeightScheme(diagram)
        n = int(args[0])
        chain = scheme.chain(n)
        return tuple(tuple(row) for row in chain.a_matrix(n))
    if op == "probe":
        depth = int(args[1])
        scheme = WeightScheme(diagram)
        theta = _theta_from_word(args[0], scheme.tree, depth)
        verdict = automorphism_probe(theta, scheme, depth)
        return "broken" if isinstance(verdict, Broken) else "preserved"
    if op == "probe_witness":
        depth = int(args[1])
        scheme = WeightScheme(diagram)
        theta = _theta_from_word(args[0], scheme.tree, depth)
        verdict = automorphism_probe(theta, scheme, depth)
        if not isinstance(verdict, Broken):
            return "preserved"
        return verdict.witness.values
    if op == "unique_levels":
        upto = int(args[0])
        return tuple(
            is_unique_minimal(diagram.matrix(k))[1] for k in range(upto)
        )
    if op == "forced_parents":
        tree = build_minimal_diagram(diagram, "theorem")
        upto = int(args[0])
        return tuple(tree.parents_at(lev) for lev in range(1, upto + 1))
    if op == "explicit_scales":
        depth = int(args[0])
        chain = complete_chain(diagram, [ExplicitColumn((0, 1))], depth)
        return tuple(chain.group_scale(n) for n in range(1, depth + 1))
    if op == "indicator_member":
        level, vertex = (int(t) for t in args[0].split(","))
        tree = build_minimal_diagram(diagram, "theorem")
        chain = complete_chain(diagram, [ExplicitColumn((0, 1))], max(level, 1))
        verdict = membership(indicator(Cylinder(level, vertex), tree), chain, tree)
        if isinstance(verdict, NotMember):
            return "non-member"
        return verdict.alpha
    if op == "reject_half":
        upto = int(args[0])
        tree = build_minimal_diagram(diagram, "theorem")
        chain = complete_chain(diagram, [ExplicitColumn((0, 1))], upto)
        base = LocallyConstantFunction(1, (0, Fraction(1, 2)))
        for d in range(1, upto + 1):
            func = refine(base, d, tree)
            if not isinstance(membership(func, chain, tree), NotMember):
                return f"member-at-{d}"
        return "all-non-member"
    raise ValueError(f"unknown diagram field {field!r}")


def _theta_from_word(word, tree, depth):
    if word == "swap12":
        tree.ensure_depth(depth)
        m = tree.level_count(depth)
        images = list(range(1, m + 1))
        images[0], images[1] = images[1], images[0]
        return tuple(images)
    raise ValueError(f"unknown permutation word {word!r}")


def verify(entry):
    """[(field, tag, ok)] for every frozen record of the entry."""
    out = []
    for rec in entry.records:
        got = compute_field(entry, rec.field)
        out.append((rec.field, rec.tag, got == rec.value))
    return out
