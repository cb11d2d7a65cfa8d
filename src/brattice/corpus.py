"""Built-in worked examples with frozen expected values.

Each entry carries the builder of its diagram or matrix, and each record a
frozen value, a tag naming how that value was obtained ('hand-checked',
worked by hand; 'closed-form', a known formula; 'enumeration', exhaustive
search; 'exact-solve', exact linear algebra) and its own re-derivation: a
function of the entry's diagram or matrix.  `verify` builds the entry once
and re-derives every record live, so drift is caught immediately.  The
field is the record's printed label.  Nothing is built at import.
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
    ExplicitColumn,
    NotMember,
    Realizer,
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
    derive: object  # the entry's diagram or matrix -> the value, live


class ExampleCorpusEntry(Record):
    name: str
    description: str
    kind: str  # "diagram" | "matrix"
    build: object  # () -> the entry's diagram or matrix
    records: tuple

    def diagram(self):
        if self.kind != "diagram":
            raise ValueError(f"{self.name} is not a diagram entry")
        return self.build()

    def matrix(self):
        if self.kind != "matrix":
            raise ValueError(f"{self.name} is not a matrix entry")
        return self.build()


# ---------------------------------------------------------------------------
# diagrams


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


_PINCH_MAPS = UserMap(((1, (1, 1)), (2, (1,))))


# ---------------------------------------------------------------------------
# re-derivations


def _theorem(diagram):
    return build_minimal_diagram(diagram, "theorem")


def _rightmost(diagram):
    return build_minimal_diagram(diagram, "rightmost")


def _census(diagram, strategy):
    c = end_census(build_minimal_diagram(diagram, strategy))
    return (c.kind, c.count, c.condensation)


def _children(diagram, strategy, level, vertex):
    kids = cylinder_children(build_minimal_diagram(diagram, strategy), Cylinder(level, vertex))
    return tuple((c.level, c.vertex) for c in kids)


def _scales(diagram, hints, depth):
    chain = complete_chain(diagram, hints, depth)
    return tuple(chain.group_scale(n) for n in range(1, depth + 1))


def _swap12(diagram, depth):
    """The witness values when swapping the first two depth vertices breaks
    the weight scheme's group, else 'preserved'."""
    scheme = WeightScheme(diagram)
    images = list(range(1, scheme.tree.level_count(depth) + 1))
    images[0], images[1] = images[1], images[0]
    verdict = automorphism_probe(images, Realizer(scheme, scheme.tree), depth)
    return verdict.witness.values if isinstance(verdict, Broken) else "preserved"


def _indicator_member(diagram, level, vertex):
    tree = _theorem(diagram)
    chain = complete_chain(diagram, [ExplicitColumn((0, 1))], max(level, 1))
    verdict = membership(indicator(Cylinder(level, vertex), tree), chain, tree)
    return "non-member" if isinstance(verdict, NotMember) else verdict.alpha


def _reject_half(diagram, upto):
    """'all-non-member' when no refinement of the function (0, 1/2) to the
    depths 1..upto is a member, else the first depth where one is."""
    tree = _theorem(diagram)
    chain = complete_chain(diagram, [ExplicitColumn((0, 1))], upto)
    base = LocallyConstantFunction(1, (0, Fraction(1, 2)))
    for d in range(1, upto + 1):
        if not isinstance(membership(refine(base, d, tree), chain, tree), NotMember):
            return f"member-at-{d}"
    return "all-non-member"


def _reduce(mat):
    try:
        return minimal_reduce(mat).parents
    except RankDeficient:
        return "RankDeficient"


def _enumeration(mat):
    return tuple(enumerate_minimal_reductions(mat))


# each record: field (its printed label), tag, frozen value, re-derivation
ENTRIES = (
    ExampleCorpusEntry(
        "gicar",
        "single-growth ladder, two edges at each new vertex pair",
        "diagram",
        _gicar,
        (
            ExpectedRecord("telescope 0,2", "hand-checked", ((1,), (2,), (1,)),
                           lambda d: telescope(d, (0, 2)).matrix(0).rows),
            ExpectedRecord("auto_dets 3", "hand-checked", (-1, 1, -1),
                           lambda d: complete_chain(d, Auto(), 3).dets),
            ExpectedRecord("census rightmost", "closed-form", ("countably-infinite", None, 1),
                           lambda d: _census(d, "rightmost")),
            ExpectedRecord("census alternating", "closed-form", ("countably-infinite", None, 2),
                           lambda d: _census(d, "alternating")),
            ExpectedRecord("compare rightmost alternating", "closed-form", "distinct",
                           lambda d: compare_invariants(
                               _rightmost(d), build_minimal_diagram(d, "alternating"))),
            ExpectedRecord("children rightmost 1,1", "hand-checked", ((2, 1),),
                           lambda d: _children(d, "rightmost", 1, 1)),
            ExpectedRecord("children rightmost 1,2", "hand-checked", ((2, 2), (2, 3)),
                           lambda d: _children(d, "rightmost", 1, 2)),
            ExpectedRecord("refine rightmost 2 : 1,2", "hand-checked", (1, 2, 2),
                           lambda d: refine(
                               LocallyConstantFunction(1, (1, 2)), 2, _rightmost(d)).values),
            ExpectedRecord("rmap rightmost : 1,2,3", "hand-checked", (1, 3, 6),
                           lambda d: r_map((1, 2, 3), _rightmost(d)).values),
            ExpectedRecord("rbasis rightmost : 1,3,6", "exact-solve", (1, 2, 3),
                           lambda d: to_R_basis(
                               LocallyConstantFunction(2, (1, 3, 6)), _rightmost(d))),
        ),
    ),
    ExampleCorpusEntry(
        "uhf2",
        "one vertex per level, multiplicity two",
        "diagram",
        _uhf2,
        (
            ExpectedRecord("telescope 0,2", "hand-checked", ((4,),),
                           lambda d: telescope(d, (0, 2)).matrix(0).rows),
            ExpectedRecord("phi_type1 3 : 3", "hand-checked", (Fraction(3, 8),),
                           lambda d: Realizer(complete_chain(d, Auto(), 3), None).phi((3,)).values),
            ExpectedRecord("scales 3", "hand-checked", (2, 4, 8),
                           lambda d: _scales(d, Auto(), 3)),
            ExpectedRecord("census theorem", "closed-form", ("finite", 1, 0),
                           lambda d: _census(d, "theorem")),
        ),
    ),
    ExampleCorpusEntry(
        "uhf6",
        "one vertex per level, multiplicities alternating two and three",
        "diagram",
        _uhf6,
        (
            ExpectedRecord("scales 4", "hand-checked", (2, 6, 12, 36),
                           lambda d: _scales(d, Auto(), 4)),
            ExpectedRecord("census theorem", "closed-form", ("finite", 1, 0),
                           lambda d: _census(d, "theorem")),
        ),
    ),
    ExampleCorpusEntry(
        "dyadic",
        "identity lines plus a doubling fork column",
        "diagram",
        _dyadic,
        (
            ExpectedRecord("weights 3", "closed-form", (2, 4, 8, 1),
                           lambda d: WeightScheme(d).weights(3)),
            ExpectedRecord("bvals 3", "closed-form", (1, 1, 1),
                           lambda d: tuple(map(WeightScheme(d).b, range(3)))),
            ExpectedRecord("scheme_dets 3", "closed-form", (2, 4, 8),
                           lambda d: tuple(abs(x) for x in WeightScheme(d).chain(3).dets)),
            ExpectedRecord(
                "a_matrix 2",
                "closed-form",
                (
                    (Fraction(1, 2), 0, 0),
                    (Fraction(-1, 2), Fraction(1, 4), 0),
                    (0, Fraction(-1, 4), 1),
                ),
                lambda d: tuple(map(tuple, WeightScheme(d).chain(2).a_matrix(2))),
            ),
            ExpectedRecord("probe swap12 3", "closed-form", "broken",
                           lambda d: "preserved" if _swap12(d, 3) == "preserved" else "broken"),
            ExpectedRecord("probe_witness swap12 3", "closed-form",
                           (Fraction(1, 2), Fraction(1, 4), 0, 0), lambda d: _swap12(d, 3)),
        ),
    ),
    ExampleCorpusEntry(
        "propersub",
        "doubled root edges, then identity lines with a plain fork",
        "diagram",
        _propersub,
        (
            ExpectedRecord("unique_levels 3", "closed-form", (1, 2, 3),
                           lambda d: tuple(is_unique_minimal(d.matrix(k))[1] for k in range(3))),
            ExpectedRecord("forced_parents 2", "closed-form", ((1, 1), (1, 2, 2)),
                           lambda d: tuple(map(_theorem(d).parents_at, (1, 2)))),
            ExpectedRecord("explicit_scales 3", "hand-checked", (2, 2, 2),
                           lambda d: _scales(d, [ExplicitColumn((0, 1))], 3)),
            ExpectedRecord("indicator_member 1,2", "exact-solve", (0, 1),
                           lambda d: _indicator_member(d, 1, 2)),
            ExpectedRecord("reject_half 6", "exact-solve", "all-non-member",
                           lambda d: _reject_half(d, 6)),
        ),
    ),
    ExampleCorpusEntry(
        "pinch",
        "two arms that merge back into one line",
        "diagram",
        _pinch,
        (
            ExpectedRecord("shape", "hand-checked", "irregular", lambda d: d.shape.kind),
            ExpectedRecord("children usermap 1,2", "hand-checked", (),
                           lambda d: _children(d, _PINCH_MAPS, 1, 2)),
            ExpectedRecord("children usermap 1,1", "hand-checked", ((2, 1),),
                           lambda d: _children(d, _PINCH_MAPS, 1, 1)),
        ),
    ),
    ExampleCorpusEntry(
        "threeline",
        "three parallel lines after a joint bootstrap",
        "diagram",
        _threeline,
        (
            ExpectedRecord("census theorem", "closed-form", ("finite", 3, 0),
                           lambda d: _census(d, "theorem")),
        ),
    ),
    ExampleCorpusEntry(
        "fan43",
        "third column dominates; no assignment can cover the first two",
        "matrix",
        lambda: MultiplicityMatrix([[0, 0, 1], [1, 1, 1], [0, 0, 1], [0, 0, 1]]),
        (
            ExpectedRecord("rank", "hand-checked", 2, multiplicity_rank),
            ExpectedRecord("reduce", "hand-checked", "RankDeficient", _reduce),
            ExpectedRecord("enumeration", "enumeration", (), _enumeration),
        ),
    ),
    ExampleCorpusEntry(
        "twocol",
        "full rank with one free row: a single assignment, yet not forced row-wise",
        "matrix",
        lambda: MultiplicityMatrix([[2, 1], [1, 0], [2, 0]]),
        (
            ExpectedRecord("rank", "hand-checked", 2, multiplicity_rank),
            ExpectedRecord("reduce", "hand-checked", (2, 1, 1), _reduce),
            ExpectedRecord("enumeration", "enumeration", ((2, 1, 1),), _enumeration),
            ExpectedRecord("unique_minimal", "hand-checked", (False, None), is_unique_minimal),
        ),
    ),
    ExampleCorpusEntry(
        "forced",
        "monomial rows force the assignment",
        "matrix",
        lambda: MultiplicityMatrix([[1, 0], [0, 1], [0, 1]]),
        (
            ExpectedRecord("unique_minimal", "hand-checked", (True, 2), is_unique_minimal),
            ExpectedRecord("reduce", "hand-checked", (1, 2, 2), _reduce),
            ExpectedRecord("enumeration", "enumeration", ((1, 2, 2),), _enumeration),
        ),
    ),
    ExampleCorpusEntry(
        "threebranch",
        "two dense rows over two columns",
        "matrix",
        lambda: MultiplicityMatrix([[1, 1], [1, 1], [1, 0]]),
        (
            ExpectedRecord("reduce", "hand-checked", (2, 1, 1), _reduce),
            ExpectedRecord("enumeration", "enumeration", ((1, 2, 1), (2, 1, 1), (2, 2, 1)),
                           _enumeration),
        ),
    ),
    ExampleCorpusEntry(
        "squareswap",
        "anti-diagonal square",
        "matrix",
        lambda: MultiplicityMatrix([[0, 2], [3, 0]]),
        (
            ExpectedRecord("reduce_square", "hand-checked", (2, 1),
                           lambda m: minimal_reduce_square(m).parents),
        ),
    ),
)


def get(name):
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry {name!r}")


def verify(entry):
    """[(field, tag, ok)] for every frozen record of the entry, re-derived
    from one build of its diagram or matrix."""
    subject = entry.build()
    return [(rec.field, rec.tag, rec.derive(subject) == rec.value) for rec in entry.records]
