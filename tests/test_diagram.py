"""Diagram structure: matrices, shapes, tails, telescoping, dilation, text."""

import copy
import pickle
import random
from fractions import Fraction

import exact_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brattice import corpus
from brattice.diagram import (
    BratteliDiagram,
    FamilyTail,
    MultiplicityMatrix,
    PeriodicTail,
    PowToken,
    ShapeClass,
    dilate_step,
    format_bdspec,
    infer_shape,
    matrix_fits_shape,
    mm_product,
    multiplicity_rank,
    normalize_type2,
    parse_entry_token,
    read_input,
    telescope,
    validate_diagram,
    write_dot,
)
from brattice.errors import (
    DepthExceeded,
    IndexOutOfRange,
    NotDilatable,
    ParseError,
    RankDeficient,
)
from brattice.reduction import minimal_reduce


GICAR = corpus.get("gicar").diagram()
UHF2 = corpus.get("uhf2").diagram()
UHF6 = corpus.get("uhf6").diagram()
PINCH = corpus.get("pinch").diagram()
THREELINE = corpus.get("threeline").diagram()


def test_multiplicity_matrix_basics():
    m = MultiplicityMatrix([[2, 1], [1, 0], [2, 0]])
    assert (m.nrows, m.ncols) == (3, 2)
    assert m.rows == ((2, 1), (1, 0), (2, 0))
    assert m.supports == ((0, 1), (0,), (0,))
    assert oracle.col_support(m, 2) == (1,)
    assert oracle.has_positive_rows_and_cols(m)


def test_multiplicity_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiplicityMatrix([])
    with pytest.raises(ValueError):
        MultiplicityMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        MultiplicityMatrix([[-1]])


@pytest.mark.parametrize(
    "rows, where",
    [
        ([[1.5, 0], [0.9, 2]], "row 1, column 1: 1.5"),
        ([[1, 0], [0, 2.0]], "row 2, column 2: 2.0"),
        ([[1, Fraction(1, 2)]], r"row 1, column 2: Fraction\(1, 2\)"),
        ([[1], ["3"]], "row 2, column 1: '3'"),
    ],
)
def test_multiplicity_matrix_rejects_inexact_entries(rows, where):
    with pytest.raises(ValueError, match=f"^{where} is not an integer$"):
        MultiplicityMatrix(rows)


def test_multiplicity_matrix_takes_integral_values():
    m = MultiplicityMatrix([[Fraction(4, 2), 0], [True, 3]])
    assert m.rows == ((2, 0), (1, 3))
    assert all(type(x) is int for row in m.rows for x in row)
    # a row read as an iterator keeps every entry on the per-entry path
    assert MultiplicityMatrix([iter([Fraction(2), 1])]).rows == ((2, 1),)
    # the reduction sees the entry, not a truncation of it
    with pytest.raises(ValueError, match="row 1, column 1: 0.5 is not an integer"):
        minimal_reduce([[0.5], [1]])


# entries outside the whole-matrix passes: bools and Fractions, integral or
# not, floats, strings and negative ints
ODD_ENTRIES = st.one_of(
    st.booleans(),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.floats(allow_nan=False, width=16),
    st.text(max_size=2),
    st.integers(-3, -1),
)


@st.composite
def matrix_inputs(draw):
    """Rows of ints, some entries spoiled, some rows cut or lengthened."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(0, 9), min_size=c, max_size=c)) for _ in range(r)]
    for _ in range(draw(st.integers(0, 2)) if r and c else 0):
        rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(ODD_ENTRIES)
    if r and draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        rows[i] = rows[i][: draw(st.integers(0, c))] + draw(st.lists(st.integers(0, 9), max_size=1))
    return rows


def _outcome(read, rows, as_generators):
    # generators are read once, so each reader gets its own
    given_rows = (iter(row) for row in rows) if as_generators else rows
    try:
        return read(given_rows)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(matrix_inputs(), st.booleans())
def test_multiplicity_matrix_checks_entries_as_the_per_row_reader(rows, as_generators):
    got = _outcome(lambda given_rows: MultiplicityMatrix(given_rows).rows, rows, as_generators)
    assert got == _outcome(oracle.multiplicity_rows, rows, as_generators)
    if not isinstance(got, str):
        assert all(type(x) is int for row in got for x in row)


def test_multiplicity_matrix_keeps_its_sparse_view_outside_the_fields():
    read, fresh = MultiplicityMatrix([[1, 0], [1, 1]]), MultiplicityMatrix(((1, 0), (1, 1)))
    assert read.column_supports == ((0, 1), (1,))
    assert fresh._supports is None
    assert read == fresh and hash(read) == hash(fresh) and len({read, fresh}) == 1
    for name, value in (("rows", ((1,),)), ("_supports", ())):
        with pytest.raises(AttributeError):
            setattr(fresh, name, value)
    assert fresh.rows == ((1, 0), (1, 1)) and fresh._supports is None


def test_multiplicity_matrix_copies_and_pickles():
    m = MultiplicityMatrix([[1, 0], [0, 1]])
    assert m.supports == ((0,), (1,))
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m
        assert twin._supports is None  # the sparse view is rebuilt on read
        assert twin.supports == m.supports
    d = corpus.get("propersub").diagram()
    level5 = d.matrix(5)
    twin = copy.deepcopy(d)
    assert twin.matrix(5) == level5
    assert twin.matrix(7) == d.matrix(7)


def test_rank():
    assert multiplicity_rank(MultiplicityMatrix([[2, 1], [1, 0], [2, 0]])) == 2
    assert multiplicity_rank(corpus.get("fan43").matrix()) == 2


def test_mm_product_order():
    # later matrix acts on the left
    assert mm_product(UHF6.matrix(1), UHF6.matrix(0)).rows == ((6,),)
    a = MultiplicityMatrix([[1, 0], [1, 1], [0, 1]])
    b = MultiplicityMatrix([[1], [1]])
    assert mm_product(a, b).rows == ((1,), (2,), (1,))


def test_shapes():
    assert GICAR.shape.kind == "type2"
    assert UHF2.shape == ShapeClass("type1", 1)
    assert THREELINE.shape == ShapeClass("type1", 3)
    assert PINCH.shape.kind == "irregular"
    mats = [GICAR.matrix(n) for n in range(3)]
    assert infer_shape(mats).kind == "type2"
    assert matrix_fits_shape(ShapeClass("type2"), 1, GICAR.matrix(1))
    assert not matrix_fits_shape(ShapeClass("type2"), 0, MultiplicityMatrix([[1], [1], [1]]))


def test_pow_token():
    tok = parse_entry_token("2^{n+1}")
    assert isinstance(tok, PowToken)
    assert tok.value_at(0) == 2
    assert tok.value_at(2) == 8
    assert parse_entry_token(tok.render()) == tok
    assert parse_entry_token("3") == 3
    with pytest.raises(ValueError):
        parse_entry_token("2^{q}")


def test_family_levels_are_well_formed():
    for name, diagram in (("gicar", GICAR), ("dyadic", corpus.get("dyadic").diagram())):
        for n in range(6):
            mat = diagram.matrix(n)
            assert (mat.nrows, mat.ncols) == (n + 2, n + 1), name
            assert oracle.has_positive_rows_and_cols(mat), name


@pytest.mark.parametrize("name", sorted(oracle.FAMILY_LEVELS))
def test_family_bands_match_the_former_builders(name):
    tail = FamilyTail(name)
    for n in range(70):
        assert tail.matrix_at(n).to_lists() == oracle.FAMILY_LEVELS[name](n), (name, n)


def test_unknown_tail_family_is_refused():
    with pytest.raises(ValueError, match="unknown tail family 'pascal'"):
        FamilyTail("pascal")


def test_size_vectors():
    assert oracle.size_vector(GICAR, 0) == (1,)
    assert oracle.size_vector(GICAR, 2) == (1, 2, 1)
    assert oracle.size_vector(GICAR, 3) == (1, 3, 3, 1)
    assert oracle.size_vector(UHF2, 3) == (8,)
    assert oracle.size_vector(UHF6, 2) == (6,)


def test_level_counts():
    assert GICAR.level_count(4) == 5
    assert THREELINE.level_count(1) == 3
    assert THREELINE.level_count(5) == 3
    assert PINCH.level_count(2) == 1


def test_depth_limit_env(monkeypatch):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "5")
    assert GICAR.level_bound() == 5
    GICAR.matrix(4)
    with pytest.raises(DepthExceeded):
        GICAR.matrix(5)
    monkeypatch.delenv("BRATTICE_DEPTH_LIMIT")
    GICAR.matrix(5)


def test_one_bound_and_one_wording(monkeypatch):
    # the last level of a finite diagram, the depth limit under a tail
    assert (PINCH.level_bound(), UHF2.level_bound(), GICAR.level_bound()) == (64, 64, 64)
    finite = telescope(GICAR, (0, 2, 5))
    assert finite.level_bound() == 2
    refused = {
        "a tail matrix": lambda: GICAR.matrix(64),
        "a finite matrix": lambda: finite.matrix(2),
        "validate": lambda: validate_diagram(GICAR, 65),
        "dot": lambda: write_dot(GICAR, 65),
        "telescope": lambda: telescope(GICAR, (0, 2, 100)),
        "finite telescope": lambda: telescope(finite, (0, 3)),
    }
    want = {
        "a tail matrix": "level 65 requested, diagram allows 64",
        "a finite matrix": "level 3 requested, diagram allows 2",
        "validate": "level 65 requested, diagram allows 64",
        "dot": "level 65 requested, diagram allows 64",
        "telescope": "level 100 requested, diagram allows 64",
        "finite telescope": "level 3 requested, diagram allows 2",
    }
    for what, call in refused.items():
        with pytest.raises(DepthExceeded) as info:
            call()
        assert str(info.value) == want[what], what
    # a negative index names no level at all
    with pytest.raises(IndexOutOfRange, match="^matrix index -1 is negative$"):
        GICAR.matrix(-1)
    assert validate_diagram(GICAR, 64) == ()
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "4")
    with pytest.raises(DepthExceeded, match="^level 5 requested, diagram allows 4$"):
        GICAR.matrix(4)


def test_default_depths_cover_the_explicit_matrices_within_the_bound(monkeypatch):
    finite = telescope(GICAR, (0, 2, 5))
    assert [finite.default_depth(k) for k in (0, 1, 6)] == [2, 2, 2]
    assert [GICAR.default_depth(k) for k in (0, 3, 8)] == [0, 3, 8]
    assert THREELINE.default_depth(0) == THREELINE.explicit_depth == 1
    assert THREELINE.default_depth(6) == 6
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "4")
    assert [GICAR.default_depth(k) for k in (3, 8)] == [3, 4]
    assert THREELINE.default_depth(6) == 4


def test_shape_inference_reads_levels_within_the_limit(monkeypatch):
    # the inferred shape probes default_depth(3) levels, two under limit 2
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "2")
    assert BratteliDiagram((), FamilyTail("gicar")).shape == ShapeClass("type2")


@pytest.mark.parametrize("name", ["gicar", "uhf6"])
def test_tail_levels_are_built_once_and_keep_the_limit(monkeypatch, name):
    d = corpus.get(name).diagram()
    first = [d.matrix(n) for n in range(12)]
    assert all(d.matrix(n) is mat for n, mat in enumerate(first))
    assert first[d.explicit_depth:] == [d.tail.matrix_at(n) for n in range(d.explicit_depth, 12)]
    # a lowered limit hides levels already built
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "5")
    for n in (5, 11):
        with pytest.raises(DepthExceeded):
            d.matrix(n)
    monkeypatch.delenv("BRATTICE_DEPTH_LIMIT")
    assert d.matrix(11) is first[11]


def test_construction_guards():
    with pytest.raises(ValueError):
        # root level must have a single vertex
        BratteliDiagram(
            (MultiplicityMatrix([[1, 1], [1, 1]]),), None, ShapeClass("irregular")
        )
    with pytest.raises(ValueError):
        # consecutive matrices must chain
        BratteliDiagram(
            (MultiplicityMatrix([[1], [1]]), MultiplicityMatrix([[1]])),
            None,
            ShapeClass("irregular"),
        )


def test_validate_reports_zero_rows():
    bad = BratteliDiagram(
        (MultiplicityMatrix([[1], [0]]),), None, ShapeClass("irregular")
    )
    issues = validate_diagram(bad)
    assert issues
    assert any("row 2 is zero" in issue for issue in issues)


def test_telescope_frozen():
    assert telescope(GICAR, (0, 2)).matrix(0).rows == ((1,), (2,), (1,))
    assert telescope(UHF2, (0, 2)).matrix(0).rows == ((4,),)


def test_telescope_is_composition():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randint(2, 5)
        tel = telescope(GICAR, (0, k))
        prod = GICAR.matrix(0)
        for n in range(1, k):
            prod = mm_product(GICAR.matrix(n), prod)
        assert tel.matrix(0) == prod
    three = telescope(GICAR, (0, 2, 5))
    assert three.explicit_depth == 2
    assert mm_product(three.matrix(1), three.matrix(0)) == telescope(GICAR, (0, 5)).matrix(0)


def test_telescope_argument_checks():
    with pytest.raises(IndexOutOfRange):
        telescope(GICAR, (1, 2))
    with pytest.raises(IndexOutOfRange):
        telescope(GICAR, (0, 2, 2))
    with pytest.raises(IndexOutOfRange):
        telescope(GICAR, (0,))


def rand_tall_full_rank(rng, max_rows=6, max_surplus=3):
    while True:
        cols = rng.randint(1, max_rows - 1)
        rows = min(cols + rng.randint(1, max_surplus), max_rows)
        if rows <= cols:
            continue
        m = [[rng.randint(0, 3) for _ in range(cols)] for _ in range(rows)]
        mm = MultiplicityMatrix(m)
        if multiplicity_rank(mm) == cols and oracle.has_positive_rows_and_cols(mm):
            return mm


def test_dilate_step_round_trip():
    rng = random.Random(2024)
    for _ in range(100):
        mat = rand_tall_full_rank(rng)
        order, factors = dilate_step(mat)
        assert sorted(order) == list(range(mat.nrows))
        permuted = [mat.rows[i] for i in order]
        prod = factors[0]
        for fac in factors[1:]:
            prod = mm_product(fac, prod)
        assert prod.to_lists() == [list(r) for r in permuted]
        width = mat.ncols
        for fac in factors:
            assert fac.ncols == width
            assert fac.nrows == width + 1
            assert multiplicity_rank(fac) == width
            width += 1


def test_dilate_step_rejects():
    with pytest.raises(ValueError):
        dilate_step(MultiplicityMatrix([[1, 1]]))
    with pytest.raises(RankDeficient):
        dilate_step(corpus.get("fan43").matrix())


def test_normalize_type2_identity_on_single_growth():
    assert normalize_type2(GICAR) is GICAR


def test_normalize_type2_folds_tall_steps():
    squashed = telescope(GICAR, (0, 3))
    out = normalize_type2(squashed)
    assert out.shape.kind == "type2"
    for n in range(out.explicit_depth):
        mat = out.matrix(n)
        assert mat.nrows == mat.ncols + 1
    prod = out.matrix(0)
    for n in range(1, out.explicit_depth):
        prod = mm_product(out.matrix(n), prod)
    assert prod == squashed.matrix(0)


def test_normalize_type2_folds_a_bootstrap():
    out = normalize_type2(THREELINE)
    assert out.shape.kind == "type2"
    assert mm_product(out.matrix(1), out.matrix(0)) == THREELINE.matrix(0)


def test_normalize_type2_rejections():
    lone_square = BratteliDiagram(
        (MultiplicityMatrix([[2]]),), None, ShapeClass("type1", 1)
    )
    with pytest.raises(NotDilatable):
        normalize_type2(lone_square)
    with pytest.raises(NotDilatable):
        normalize_type2(PINCH)


# a periodic template with constant-exponent tokens, which stay symbolic
CONSTANT_POWERS = "bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\ntail: periodic 1\ntemplate:\n2^{3} 1\n0 3^{0}\n"


def test_bdspec_round_trip():
    diagrams = [corpus.get(name).diagram() for name in ("gicar", "uhf2", "uhf6", "propersub", "pinch", "threeline")]
    diagrams.append(read_input(CONSTANT_POWERS)[1])
    assert "2^{3} 1\n0 3^{0}\n" in format_bdspec(diagrams[-1])
    assert diagrams[-1].matrix(4).rows == ((8, 1), (0, 1))
    for diagram in diagrams:
        assert read_input(format_bdspec(diagram))[1] == diagram


def test_bdspec_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        read_input("bdspec v1\nshape: type2\nmatrix 0:\n1\nwat\n")
    assert info.value.lineno == 5
    with pytest.raises(ParseError):
        read_input("not a header\n")


def test_write_dot_mentions_every_vertex():
    dot = write_dot(GICAR, 3)
    assert dot.startswith("digraph")
    for level in range(4):
        for v in range(1, level + 2):
            assert f'"v{level}_{v}"' in dot
    assert '"v0_1" -> "v1_1"' in dot
