"""End-to-end CLI behavior: verbs, exit codes, message shapes, file IO."""

import json
import os
import subprocess
import sys
from pathlib import Path

import exact_oracle as oracle
import pytest

import brattice
from brattice import corpus, k0
from brattice.cli import K0_ACTIONS, VERBS, _read_argv, main
from brattice.diagram import MultiplicityMatrix, multiplicity_rank, read_input, telescope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "corpus:gicar")
    assert code == 0
    assert out.strip() == "valid"
    assert err == ""


def test_validate_zero_row_matrix(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("1 1\n0 0\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violation: row 2 is zero" in out


def test_shape_violation_is_a_verdict_and_refuses_the_weight_scheme(tmp_path, capsys):
    path = tmp_path / "wide.bdspec"
    path.write_text("bdspec v1\nshape: type2\nmatrix 0:\n1\n1\n1\n")
    violation = "matrix 0 is 3x1, outside shape type2"
    assert run(capsys, "validate", str(path)) == (1, f"violation: {violation}\n", "")
    argv = ("k0", "phi", str(path), "--weight", "--alpha", "1,2")
    assert run(capsys, *argv) == (1, "", f"error: invalid diagram: {violation}\n")


def test_validate_parse_error_carries_line(tmp_path, capsys):
    path = tmp_path / "bad.bd"
    path.write_text("bdspec v1\nshape: type2\nmatrix 0:\n1\nx\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith(f"parse error: {path}: line 5: ")


def test_bare_matrix_non_ascii_digit_is_parse_error(tmp_path, capsys):
    # '²' passes str.isdigit() but int() rejects it
    path = tmp_path / "mat.txt"
    path.write_text("2 1\n1 ²\n1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "reduce", str(path))
    assert code == 2
    assert out == ""
    assert err == f"parse error: {path}: line 2: bad row '1 ²': '²' is not an unsigned integer\n"


def test_bdspec_non_ascii_digit_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.bd"
    path.write_text("bdspec v1\nshape: type2\nmatrix ²:\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith(f"parse error: {path}: line 3: ")


# rows that int() alone would take, and the checks that used to run only
# once the whole file was read; each names the line of its block
MALFORMED_FILES = [
    ("ragged-matrix", "1 2\n3\n", 2, "ragged row: 1 entries, the first row has 2"),
    ("bdspec-underscore", "bdspec v1\nshape: type1 1\nmatrix 0:\n1_0\n", 4, "bad row '1_0'"),
    ("bdspec-fullwidth", "bdspec v1\nshape: irregular\nmatrix 0:\n1 \uff12\n", 4, "bad row '1 \uff12'"),
    ("unknown-family", "bdspec v1\nshape: type2\ntail: family pascal\n", 3, "unknown tail family 'pascal'"),
    ("matrix-0-two-columns", "bdspec v1\nshape: irregular\nmatrix 0:\n1 1\n", 3, "matrix 0 must have exactly one column"),
    (
        "matrix-1-unchained",
        "bdspec v1\nshape: irregular\nmatrix 0:\n1\n1\n# a comment\nmatrix 1:\n1 1 1\n",
        7,
        "matrix 1 has 3 columns but matrix 0 has 2 rows",
    ),
    (
        "periodic-width",
        "bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\ntail: periodic 1\ntemplate:\n1\n",
        6,
        "matrix 1 has 1 columns but matrix 0 has 2 rows",
    ),
    (
        "non-square-template",
        "bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\ntail: periodic 1\ntemplate:\n1 1\n1\n",
        6,
        "periodic templates must be square and equal-sized",
    ),
    (
        "negative-exponent",
        "bdspec v1\nshape: type1 1\nmatrix 0:\n1\ntail: periodic 1\ntemplate:\n2^{n-5}\n",
        7,
        "negative exponent at level 1 in 2^{n-5}",
    ),
    (
        "negative-literal",
        "bdspec v1\nshape: type1 1\nmatrix 0:\n1\ntail: periodic 1\ntemplate:\n-3\n",
        7,
        "'-3' is not an unsigned integer",
    ),
]


@pytest.mark.parametrize(
    "text, lineno, message", [case[1:] for case in MALFORMED_FILES], ids=[case[0] for case in MALFORMED_FILES]
)
def test_malformed_file_is_a_parse_error_naming_its_line(tmp_path, capsys, text, lineno, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {path}: line {lineno}: ")
    assert message in err and err.count("\n") == 1


def test_unreadable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 \xe9\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith(f"usage error: cannot read {path}: ")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.bd")
    assert code == 2
    assert err.startswith("usage error:")


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [("validate", "corpus:nosuch"), ("corpus", "--name", "nosuch")])
def test_unknown_corpus_entry_is_quoted_once(capsys, argv):
    assert run(capsys, *argv) == (2, "", "usage error: no corpus entry 'nosuch'\n")


DEPTH_VERBS = [
    ("validate", "corpus:gicar"),
    ("reduce", "corpus:gicar"),
    ("pathspace", "corpus:gicar"),
    ("k0", "chain", "corpus:gicar"),
    ("k0", "phi", "corpus:gicar", "--alpha", "1,2"),
    ("k0", "probe", "corpus:gicar", "--swap", "1", "2"),
]


@pytest.mark.parametrize("argv", DEPTH_VERBS, ids=lambda argv: " ".join(argv[:2]))
def test_negative_depth_is_a_usage_error(capsys, argv):
    # the spaced form goes through argparse, the = form through the direct reader
    for flags, depth in ((["--depth", "-1"], -1), (["--depth=-2"], -2)):
        want = (2, "", f"usage error: --depth needs N >= 0, got {depth}\n")
        assert run(capsys, *argv, *flags) == want


# the other count flags, each on a line that runs when the count is valid
COUNT_FLAGS = {
    "--level": ("dilate", "corpus:threeline"),
    "--enumerate": ("reduce", "corpus:fan43"),
    "--bound": ("k0", "positive", "corpus:gicar", "--func", "depth=2: 1 -1 1"),
}


@pytest.mark.parametrize("flag", COUNT_FLAGS)
def test_negative_count_is_a_usage_error(capsys, flag):
    for flags, value in (([flag, "-1"], -1), ([f"{flag}=-2"], -2)):
        want = (2, "", f"usage error: {flag} needs N >= 0, got {value}\n")
        assert run(capsys, *COUNT_FLAGS[flag], *flags) == want
    assert run(capsys, *COUNT_FLAGS[flag], flag, "0")[0] != 2


def _dot_depth_zero(capsys, tmp_path, *argv):
    """Exit code, stdout and the DOT file of a --depth 0 --dot run: the
    root alone, with no edge."""
    path = tmp_path / "out.dot"
    code, out, err = run(capsys, *argv, "--depth", "0", "--dot", str(path))
    assert err == "" and "->" not in path.read_text()
    return code, out.replace(str(path), "FILE")


def test_depth_zero_validate_draws_the_root_alone(capsys, tmp_path):
    assert _dot_depth_zero(capsys, tmp_path, "validate", "corpus:gicar") == (0, "wrote FILE\nvalid\n")


def test_depth_zero_reduce_dumps_no_level(capsys):
    assert run(capsys, "reduce", "corpus:gicar", "--depth", "0") == (0, "tree v1\n", "")


def test_depth_zero_pathspace_draws_the_root_alone(capsys, tmp_path):
    code, out = _dot_depth_zero(capsys, tmp_path, "pathspace", "corpus:gicar")
    assert (code, out.splitlines()[-1]) == (0, "wrote FILE")


def _no_square(name, depth, start=0):
    return (
        2,
        "",
        f"usage error: a chain to level {depth} of corpus:{name} holds no square; "
        f"its squares start at matrix {start}\n",
    )


def test_depth_zero_k0_chain_is_a_usage_error(capsys):
    assert run(capsys, "k0", "chain", "corpus:gicar", "--depth", "0") == _no_square("gicar", 0)
    assert run(capsys, "k0", "chain", "corpus:dyadic", "--weight", "--depth", "0") == _no_square("dyadic", 0)


def test_depth_zero_k0_phi_type1_is_a_usage_error(capsys):
    for name, start in (("threeline", 1), ("uhf2", 0)):
        alpha = "1,2,3" if name == "threeline" else "1"
        got = run(capsys, "k0", "phi", f"corpus:{name}", "--alpha", alpha, "--depth", str(start))
        assert got == _no_square(name, start, start)


def test_depth_zero_k0_positive_is_a_usage_error(capsys):
    # k0 positive takes no --depth: its chain reaches the function's depth
    with pytest.raises(SystemExit) as info:
        main(["k0", "positive", "corpus:gicar", "--func", "depth=0: 1", "--depth", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --depth 0\n")


def test_depth_zero_k0_probe_reads_the_root(capsys):
    # the root alone is forced, so the weight scheme answers; a completed
    # chain needs a square
    assert run(capsys, "k0", "probe", "corpus:gicar", "--perm", "1", "--depth", "0") == (
        0,
        "preserved across 1 candidates\n",
        "",
    )
    got = run(capsys, "k0", "probe", "corpus:gicar", "--perm", "1", "--depth", "0", "--column", "0,1")
    assert got == _no_square("gicar", 0)


def test_every_depth_verb_is_covered():
    def takes_depth(arguments):
        return any(name == "--depth" for name, _ in arguments)

    want = {(verb,) for verb, (_, _, args) in VERBS.items() if takes_depth(args)}
    want |= {("k0", action) for action, (_, _, args) in K0_ACTIONS.items() if takes_depth(args)}
    assert want == {argv[:2] if argv[0] == "k0" else argv[:1] for argv in DEPTH_VERBS}


# options a verb has no use for: the table leaves them out, so the direct
# reader declines the line and argparse rejects it
UNTAKEN_OPTIONS = {
    "k0 chain --json --strategy": ("k0", "chain", "corpus:gicar", "--depth", "2", "--json", "--strategy", "bogus"),
    "k0 chain --strategy=": ("k0", "chain", "corpus:gicar", "--strategy=theorem"),
    "k0 phi --json": ("k0", "phi", "corpus:gicar", "--alpha", "1,2", "--json"),
    "k0 member --depth": ("k0", "member", "corpus:gicar", "--func", "depth=0: 1", "--depth", "5"),
    "k0 member --depth=": ("k0", "member", "corpus:gicar", "--func", "depth=0: 1", "--depth=-1"),
}


@pytest.mark.parametrize("argv", UNTAKEN_OPTIONS.values(), ids=UNTAKEN_OPTIONS)
def test_option_the_verb_ignores_is_a_usage_error(capsys, argv):
    assert _read_argv(list(argv)) is None
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pathspace", "--strategy", "theorem", "--depth", "0", "--func=depth=0: 1"],
        ["k0", "chain", "--alpha=1, 2"],
    ],
)
def test_untaken_option_with_a_spaced_value_is_not_the_input(capsys, argv):
    # argparse reads such a token as a positional; with no input given it
    # must not become the path
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    name = argv[-1].partition("=")[0]
    assert f"argument input: {name} is not an option of this command" in err


NO_CHAIN = "a completed chain, which --weight does not build"


def type1_refusal(what, ref):
    return f"{what} needs levels that branch; {ref} is type1, whose chain realizes only through k0 phi"


# options a verb takes for one kind of input only
UNUSABLE_OPTIONS = {
    "reduce diagram --json --enumerate": (
        ("reduce", "corpus:gicar", "--json", "--enumerate", "2"),
        "--enumerate needs a matrix input",
    ),
    "reduce diagram --enumerate=": (("reduce", "corpus:gicar", "--enumerate=2"), "--enumerate needs a matrix input"),
    "reduce diagram --json": (("reduce", "corpus:gicar", "--depth", "2", "--json"), "--json needs a matrix input"),
    "reduce diagram --enumerate -1": (
        ("reduce", "corpus:gicar", "--enumerate", "-1"),
        "--enumerate needs N >= 0, got -1",
    ),
    "reduce matrix --depth": (("reduce", "corpus:threebranch", "--depth", "2"), "--depth needs a diagram input"),
    # a given 0 is given
    "reduce matrix --depth 0": (("reduce", "corpus:threebranch", "--depth", "0"), "--depth needs a diagram input"),
    "reduce diagram --enumerate 0": (("reduce", "corpus:gicar", "--enumerate", "0"), "--enumerate needs a matrix input"),
    # a bare matrix has no levels to draw or materialize
    "validate matrix --dot --depth": (
        ("validate", "corpus:threebranch", "--dot", "never.dot", "--depth", "5"),
        "--dot needs a diagram input",
    ),
    "dilate --level --dot": (
        ("dilate", "corpus:threeline", "--level", "0", "--dot", "never.dot"),
        "--dot needs a normalized diagram, which --level does not build",
    ),
    "reduce matrix --strategy": (
        ("reduce", "corpus:threebranch", "--strategy=theorem"),
        "--strategy needs a diagram input",
    ),
    "k0 phi type2 --depth": (
        ("k0", "phi", "corpus:gicar", "--alpha", "1,2", "--depth", "3"),
        "--depth needs a type1 diagram; elsewhere the depth follows --alpha",
    ),
    # --weight builds no chain, so the chain options have nothing to act on
    "k0 positive --weight --column": (
        ("k0", "positive", "corpus:dyadic", "--weight", "--func", "depth=2: 1/2 1/4 1",
         "--bound", "1", "--column", "9,9"),
        f"--column needs {NO_CHAIN}",
    ),
    "k0 positive --weight --bound": (
        ("k0", "positive", "corpus:dyadic", "--weight", "--func", "depth=2: 1/2 1/4 1", "--bound", "1"),
        f"--bound needs {NO_CHAIN}",
    ),
    "k0 phi --weight --strategy": (
        ("k0", "phi", "corpus:dyadic", "--weight", "--strategy", "alternating", "--alpha", "1,2,3,4"),
        f"--strategy needs {NO_CHAIN}",
    ),
    "k0 member --weight --column": (
        ("k0", "member", "corpus:dyadic", "--weight", "--column", "0,1", "--func", "depth=1: 1 1"),
        f"--column needs {NO_CHAIN}",
    ),
    "k0 probe --weight --strategy": (
        ("k0", "probe", "corpus:dyadic", "--weight", "--strategy=theorem", "--swap", "1", "2"),
        f"--strategy needs {NO_CHAIN}",
    ),
    "k0 chain --weight --column": (
        ("k0", "chain", "corpus:dyadic", "--weight", "--column", "0,1"),
        f"--column needs {NO_CHAIN}",
    ),
    # type1 levels never branch: only k0 phi reads their chain
    "k0 member type1": (
        ("k0", "member", "corpus:threeline", "--func", "depth=2: 1 2 3"),
        type1_refusal("k0 member", "corpus:threeline"),
    ),
    "k0 positive type1": (
        ("k0", "positive", "corpus:uhf2", "--func", "depth=1: 1"),
        type1_refusal("k0 positive", "corpus:uhf2"),
    ),
    "k0 probe type1": (
        ("k0", "probe", "corpus:threeline", "--swap", "1", "2", "--depth", "3"),
        type1_refusal("k0 probe", "corpus:threeline"),
    ),
    "k0 probe type1 uhf2": (
        ("k0", "probe", "corpus:uhf2", "--perm", "1"),
        type1_refusal("k0 probe", "corpus:uhf2"),
    ),
    "k0 phi type1 --weight": (
        ("k0", "phi", "corpus:uhf2", "--weight", "--alpha", "3"),
        type1_refusal("--weight", "corpus:uhf2"),
    ),
    "k0 chain type1 --weight": (
        ("k0", "chain", "corpus:uhf2", "--weight"),
        type1_refusal("--weight", "corpus:uhf2"),
    ),
    # a type1 chain is the diagram's own squares: there is nothing to complete
    "k0 phi type1 --column": (
        ("k0", "phi", "corpus:uhf2", "--alpha", "3", "--column", "1"),
        "--column needs levels that branch; a type1 chain takes its squares as they are",
    ),
    "k0 chain type1 --column": (
        ("k0", "chain", "corpus:threeline", "--column", "1,2,3"),
        "--column needs levels that branch; a type1 chain takes its squares as they are",
    ),
    # nor a tree to read it through
    "k0 phi type1 --strategy": (
        ("k0", "phi", "corpus:uhf2", "--alpha", "3", "--strategy", "rightmost"),
        "--strategy needs levels that branch; a type1 chain takes its squares as they are",
    ),
}


@pytest.mark.parametrize("argv, message", UNUSABLE_OPTIONS.values(), ids=UNUSABLE_OPTIONS)
def test_option_the_input_cannot_use_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


# --- telescope / dilate ------------------------------------------------------


def test_telescope_folds_levels(capsys):
    code, out, _ = run(capsys, "telescope", "corpus:gicar", "--levels", "0,2")
    assert code == 0
    folded = read_input(out)[1]
    assert folded.matrix(0).to_lists() == [[1], [2], [1]]
    assert folded.level_bound() == 1


def test_telescope_bad_levels(capsys):
    code, _, err = run(capsys, "telescope", "corpus:gicar", "--levels", "2,0")
    assert code == 1
    assert err.startswith("error:")


HUGE_TAIL = "bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\ntail: periodic 1\ntemplate:\n1 2^{1000n}\n0 1\n"


def _decimal(n):
    """Decimal digits of a nonnegative int of any length, built in chunks
    that stay under the int/str digit cap of Python 3.11+."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


def test_huge_entries_print_in_full(tmp_path, capsys):
    path = tmp_path / "huge.bd"
    path.write_text(HUGE_TAIL)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "telescope", str(path), "--levels", "0,8,16")
    assert (code, err) == (0, "")
    entry = telescope(read_input(HUGE_TAIL)[1], [0, 8, 16]).matrix(1).rows[0][1]
    assert entry > 10**4500
    assert f"\n1 {_decimal(entry)}\n" in out
    # after the bootstrap column, the chain to level 17 ends with matrix 16
    code, out, err = run(capsys, "k0", "chain", str(path), "--depth", "17")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"A 15: 1 {_decimal(2**16000)} ; 0 1 det=1"
    # the cap is lifted for the call only
    if cap is not None:
        assert sys.get_int_max_str_digits() == cap


def test_dilate_single_level(capsys):
    code, out, _ = run(capsys, "dilate", "corpus:gicar", "--level", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("row order:")
    assert "factor 1:" in out


def test_dilate_normalizes_bootstrap(capsys):
    code, out, _ = run(capsys, "dilate", "corpus:threeline")
    assert code == 0
    folded = read_input(out)[1]
    assert folded.shape.kind == "type2"


@pytest.mark.parametrize(
    "body, message",
    [
        ("shape: type1 1\nmatrix 0:\n2\nmatrix 1:\n3\n", "diagram never grows"),
        ("shape: irregular\nmatrix 0:\n1\n1\nmatrix 1:\n1 1\n1 1\n1 1\n1 1\n", "matrix has rank below 2"),
    ],
    ids=["never-grows", "rank-1-step"],
)
def test_dilate_refuses_a_diagram_it_cannot_normalize(tmp_path, capsys, body, message):
    path = tmp_path / "in.bdspec"
    path.write_text("bdspec v1\n" + body)
    assert run(capsys, "dilate", str(path)) == (1, "", f"error: {message}\n")


# --- reduce ------------------------------------------------------------------


def test_reduce_forced_matrix(capsys):
    code, out, _ = run(capsys, "reduce", "corpus:forced")
    assert code == 0
    assert "parents:" in out
    assert "method:" in out


def test_reduce_rank_deficient_message(capsys):
    code, out, _ = run(capsys, "reduce", "corpus:fan43")
    assert code == 1
    assert out.strip() == "rank deficient; brute force found 0 reductions"


def test_reduce_square_matrix(capsys):
    assert run(capsys, "reduce", "corpus:squareswap") == (0, "parents: 2 1\nmethod: square\n", "")
    code, out, err = run(capsys, "reduce", "corpus:squareswap", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"branch_column": None, "method": "square", "parents": [2, 1]}


def test_reduce_rank_deficient_square(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("1 2\n2 4\n")
    assert run(capsys, "reduce", str(path)) == (1, "rank deficient; brute force found 2 reductions\n", "")


def test_reduce_zero_row_matrix(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("1 0\n0 1\n0 0\n")
    code, out, err = run(capsys, "reduce", str(path))
    assert code == 1
    assert out == ""
    assert err.strip() == "error: row 3 has no edge, so no reduction exists"
    code, out, _ = run(capsys, "reduce", str(path), "--enumerate", "3")
    assert code == 1
    assert out == "0 reductions total\n"


def test_reduce_ladder_with_an_extra_row_inside_is_frozen(capsys):
    # frozen before the first c rows' matching picked a sparse level's top rows
    data = Path(__file__).parent / "data"
    frozen = (data / "ladder-extra-row.out").read_text(encoding="utf-8")
    assert run(capsys, "reduce", str(data / "ladder-extra-row.txt")) == (0, frozen, "")


def test_reduce_small_shuffled_ladder_is_frozen(capsys):
    # frozen when a density test sent this 5 x 4 level to elimination; its
    # one-column row now lets the matching decide it
    data = Path(__file__).parent / "data"
    frozen = (data / "ladder-small.out").read_text(encoding="utf-8")
    assert run(capsys, "reduce", str(data / "ladder-small.txt")) == (0, frozen, "")


def test_reduce_dense_33x32_is_frozen(capsys):
    # frozen from one elimination per step, before the steps resumed one
    # elimination per level
    data = Path(__file__).parent / "data"
    frozen = (data / "dense-33x32.out").read_text(encoding="utf-8")
    assert run(capsys, "reduce", str(data / "dense-33x32.txt")) == (0, frozen, "")


def test_reduce_dense_vanishing_minor_is_frozen(capsys):
    # frozen before the steps read their cofactors only up to their pick;
    # one step passes two top rows whose cofactors vanish
    data = Path(__file__).parent / "data"
    frozen = (data / "dense-vanishing-minor.out").read_text(encoding="utf-8")
    assert run(capsys, "reduce", str(data / "dense-vanishing-minor.txt")) == (0, frozen, "")


def test_reduce_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "reduce", "corpus:threebranch", "--enumerate", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 3, "maps": [[1, 2, 1], [2, 1, 1], [2, 2, 1]]}


@pytest.mark.parametrize(
    "rows",
    [
        "threebranch",
        [[0, 0, 1, 2]] * 6 + [[1, 3, 0, 0]],  # dead end: no map
        [[1, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]],  # rank deficient
    ],
)
def test_reduce_first_maps_and_count(tmp_path, capsys, rows):
    if isinstance(rows, str):
        source = f"corpus:{rows}"
        mat = corpus.get(rows).matrix()
    else:
        source = tmp_path / "mat.txt"
        source.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
        mat = MultiplicityMatrix(rows)
    maps = oracle.enumerate_reductions(mat)
    for n in (0, 1, 2, 10):
        code, out, _ = run(capsys, "reduce", str(source), "--enumerate", str(n))
        lines = [f"map: {' '.join(map(str, p))}" for p in maps[:n]]
        assert out == "\n".join(lines + [f"{len(maps)} reductions total"]) + "\n"
        assert code == (0 if maps else 1)
        code, out, _ = run(capsys, "reduce", str(source), "--enumerate", str(n), "--json")
        assert json.loads(out) == {"count": len(maps), "maps": [list(p) for p in maps[:n]]}
    if mat.nrows == mat.ncols + 1 and multiplicity_rank(mat) < mat.ncols:
        code, out, _ = run(capsys, "reduce", str(source))
        assert (code, out) == (1, f"rank deficient; brute force found {len(maps)} reductions\n")
    code, out, err = run(capsys, "reduce", str(source), "--enumerate", "-1")
    assert (code, out, err) == (2, "", "usage error: --enumerate needs N >= 0, got -1\n")


def test_reduce_diagram_dumps_tree(capsys):
    code, out, _ = run(
        capsys, "reduce", "corpus:propersub", "--strategy", "theorem", "--depth", "3"
    )
    assert code == 0
    assert out.startswith("tree v1")
    assert "level 3:" in out


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "tree v1\nlevel 1: parent(1)=1 parent(2)=1\nbranch 1: a=1\n",
            "line 3: level 1 implies \"a=1 r'=1 r=2\" in 'branch 1: a=1'",
        ),
        (
            "tree v1\nlevel 1: parent(1)=x\n",
            "line 2: 'x' is not an unsigned integer in 'level 1: parent(1)=x'",
        ),
        ("tree v1\nlevel 1: parent(1)=1 b\n", "line 2: expected key=value tokens in 'level 1: parent(1)=1 b'"),
    ],
    ids=["missing-field", "bad-parent", "bare-token"],
)
def test_malformed_map_file_is_a_parse_error_naming_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "map.tree"
    path.write_text(text)
    code, out, err = run(capsys, "reduce", "corpus:gicar", "--depth", "1", "--strategy", f"map:{path}")
    assert (code, out) == (2, "")
    assert err == f"parse error: {path}: {message}\n"


def test_map_that_leaves_a_parent_childless_is_refused(tmp_path, capsys):
    # gicar's level-3 rows 2 and 3 may attach to 1 and 3, which leaves
    # level-2 vertex 2 without a child
    path = tmp_path / "map.tree"
    path.write_text(
        "tree v1\n"
        "level 1: parent(1)=1 parent(2)=1\n"
        "level 2: parent(1)=1 parent(2)=2 parent(3)=2\n"
        "level 3: parent(1)=1 parent(2)=1 parent(3)=3 parent(4)=3\n"
    )
    code, out, err = run(capsys, "reduce", "corpus:gicar", "--depth", "3", "--strategy", f"map:{path}")
    assert (code, out) == (1, "")
    assert err == "error: level 3: parents [2] have no children\n"


def test_reduce_tree_dot(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    code, out, _ = run(
        capsys,
        "reduce",
        "corpus:propersub",
        "--depth",
        "3",
        "--dot",
        str(dot),
    )
    assert code == 0
    assert f"wrote {dot}" in out
    assert "digraph" in dot.read_text()


# --- pathspace ---------------------------------------------------------------


def test_pathspace_census_line(capsys):
    code, out, _ = run(
        capsys, "pathspace", "corpus:gicar", "--strategy", "rightmost"
    )
    assert code == 0
    assert out.startswith("census[rightmost]:")
    assert "countably infinite ends" in out


def test_pathspace_compare_distinct(capsys):
    code, out, _ = run(
        capsys,
        "pathspace",
        "corpus:gicar",
        "--strategy",
        "rightmost",
        "--compare",
        "alternating",
    )
    assert code == 0
    assert "comparison[rightmost vs alternating]: distinct" in out


def test_family_census_runs_the_family_check(capsys):
    # uhf2 grows by doubling, not by a single branch, and propersub's level 2
    # has no leftmost branch: a family census fails as the family's tree
    # does, and certifies nothing
    for name, family, want in (
        ("uhf2", "rightmost", "family 'rightmost' needs single growth at level 1"),
        ("propersub", "leftmost", "level 2: vertex 2 cannot attach to 1"),
    ):
        for argv in (
            ("pathspace", f"corpus:{name}", "--strategy", family, "--census"),
            ("pathspace", f"corpus:{name}", "--strategy", family, "--census", "--depth", "0"),
            ("pathspace", f"corpus:{name}", "--strategy", family, "--compare", "alternating"),
            ("reduce", f"corpus:{name}", "--strategy", family, "--depth", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert "certified" not in out
            assert want in out + err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_pathspace_compare_refusal_prints_no_half_verdict(capsys, json_flag):
    # the theorem census is uncertified: the comparison is refused before
    # the census line prints
    argv = ("pathspace", "corpus:gicar", "--compare", "rightmost", *json_flag)
    assert run(capsys, *argv) == (1, "", "error: both censuses must be certified to compare\n")


def test_pathspace_unknown_strategy(capsys):
    code, _, err = run(capsys, "pathspace", "corpus:gicar", "--strategy", "bogus")
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "text", ["positions:1_0", "positions:１", "positions:-1", "positions:a", "positions:0", "positions:2,0", "positions:"]
)
def test_strategy_positions_read_as_unsigned_integers(capsys, text):
    # positions are 1-based unsigned integers, read as every other input is
    code, out, err = run(capsys, "reduce", "corpus:gicar", "--depth", "2", "--strategy", text)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: bad --strategy value:")
    assert "invalid literal" not in err


def test_pathspace_json_round(capsys):
    code, out1, _ = run(
        capsys, "pathspace", "corpus:gicar", "--strategy", "leftmost", "--json"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "pathspace", "corpus:gicar", "--strategy", "leftmost", "--json"
    )
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "countably-infinite"
    assert payload["certified"] is True


# --- k0 ----------------------------------------------------------------------


def test_k0_chain_dump(capsys):
    code, out, _ = run(capsys, "k0", "chain", "corpus:uhf2", "--depth", "3")
    assert code == 0
    assert out.startswith("chain v1")
    assert out.count("det=2") == 3


def test_k0_phi_frozen(capsys):
    code, out, _ = run(
        capsys,
        "k0",
        "phi",
        "corpus:gicar",
        "--alpha",
        "1,2,3",
        "--strategy",
        "rightmost",
    )
    assert code == 0
    assert out.strip() == "func depth=2: 3 -1 1"


def test_k0_phi_type1_alpha_needs_the_level_width(capsys):
    for alpha, got in (("1,2", 2), ("1,2,3,4", 4)):
        want = f"usage error: --alpha on a type1 diagram needs 3 values, got {got}\n"
        assert run(capsys, "k0", "phi", "corpus:threeline", "--alpha", alpha) == (2, "", want)
    code, out, _ = run(capsys, "k0", "phi", "corpus:threeline", "--alpha", "1,2,3")
    assert code == 0
    assert out.startswith("func depth=6: ")


def test_k0_phi_type1_after_a_bootstrap_column(tmp_path, capsys):
    # levels 1..3 have width 2, so level 3 sits below the squares of
    # matrices 1 and 2, whose product [[1, 1], [1, 2]] has inverse
    # [[2, -1], [-1, 1]]
    path = tmp_path / "t1.bd"
    path.write_text("bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\nmatrix 1:\n1 1\n0 1\nmatrix 2:\n1 0\n1 1\ntail: none\n")
    assert run(capsys, "k0", "phi", str(path), "--alpha", "1,2") == (0, "func depth=3: 0 1\n", "")
    # a chain of depth 2 holds both squares
    code, out, _ = run(capsys, "k0", "chain", str(path))
    assert (code, out) == (0, "chain v1\nA 0: 1 1 ; 0 1 det=1\nA 1: 1 0 ; 1 1 det=1\n")


def test_k0_member_witness(capsys):
    code, out, _ = run(
        capsys, "k0", "member", "corpus:gicar", "--func", "depth=0: 1"
    )
    assert code == 0
    assert out.strip() == "member: witness depth=0: 1"


def test_k0_member_rejection(capsys):
    code, out, _ = run(
        capsys,
        "k0",
        "member",
        "corpus:propersub",
        "--column",
        "0,1",
        "--func",
        "depth=1: 0 1/2",
    )
    assert code == 1
    assert out.strip() == "NOT a member (checked exactly at depth 1)"


def test_k0_positive_order_unit(capsys):
    code, out, _ = run(
        capsys, "k0", "positive", "corpus:gicar", "--func", "depth=0: 1"
    )
    assert code == 0
    assert out.startswith("positive at level 0:")


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("k0", "phi", "corpus:gicar"), "--alpha", "-5,2,-2"),
        (("k0", "chain", "corpus:gicar", "--depth", "2"), "--column", "-1,1"),
        (("k0", "probe", "corpus:dyadic", "--depth", "1"), "--perm", "-1,2"),
    ],
    ids=["alpha", "column", "perm"],
)
def test_k0_negative_vector_parses_like_the_equals_form(capsys, argv, flag, value):
    assert run(capsys, *argv, flag, value) == run(capsys, *argv, f"{flag}={value}")


def test_closed_stdout_ends_quietly():
    # the dump is far larger than a pipe buffer, so a write inside the verb
    # meets the closed reader, not only the flush at exit
    env = dict(os.environ, PYTHONPATH=str(Path(brattice.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "brattice.cli", "k0", "chain", "corpus:gicar", "--depth", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err
    assert err == b""


def test_k0_positive_definitive(capsys):
    code, out, _ = run(
        capsys,
        "k0",
        "positive",
        "corpus:dyadic",
        "--weight",
        "--func",
        "depth=2: 1 -1/4 0",
    )
    assert code == 1
    assert out.strip() == "not positive (definitive)"


# the lines no other test runs, pinned so that a change to them shows
POSITIVE_VERDICTS = {
    "scan-bound": (("corpus:gicar", "--func", "depth=2: 1 7 -5"), "no nonnegative pushforward up to level 64"),
    # a bound below the function's depth: the scan names the level it read
    "below-depth": (("corpus:gicar", "--func", "depth=2: 1 7 -5", "--bound", "0"), "no nonnegative pushforward up to level 2"),
    "definitive": (("corpus:dyadic", "--weight", "--func", "depth=1: -1 1"), "not positive (definitive)"),
}


@pytest.mark.parametrize("argv, line", POSITIVE_VERDICTS.values(), ids=POSITIVE_VERDICTS)
def test_k0_positive_verdict_lines(capsys, monkeypatch, argv, line):
    monkeypatch.delenv("BRATTICE_DEPTH_LIMIT", raising=False)
    assert run(capsys, "k0", "positive", *argv) == (1, line + "\n", "")


def test_k0_weight_refuses_a_level_of_two_branches(capsys):
    path = Path(__file__).parent / "data" / "two-branches.bd"
    got = run(capsys, "k0", "member", str(path), "--weight", "--func", "depth=2: 1 1 1 1")
    assert got == (1, "", "error: matrix 1 does not grow by a single branch\n")


def test_k0_positive_weight_non_member_has_no_witness(capsys):
    argv = ("k0", "positive", "corpus:dyadic", "--weight", "--func", "depth=1: 1/3 1")
    assert run(capsys, *argv) == (1, "", "error: no integer witness at depth 1\n")


def test_k0_positive_scan_bound_json(capsys):
    argv = ("k0", "positive", "corpus:gicar", "--func", "depth=2: 1 7 -5", "--bound", "3", "--json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"detail": "no nonnegative pushforward up to level 3", "positive": False}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("member", "corpus:gicar", "--func", "depth=-1: 1"), "--func"),
        (("member", "corpus:gicar", "--func", "depth=2: 1 2"), "--func"),
        (("positive", "corpus:gicar", "--func", "depth=2: 1 2 3 4"), "--func"),
        (("member", "corpus:gicar", "--weight", "--func", "depth=0:"), "--func"),
        (("phi", "corpus:gicar", "--alpha", ""), "--alpha"),
        # Fraction raises ZeroDivisionError, not ValueError, on these
        (("phi", "corpus:gicar", "--alpha", "1/0,2"), "--alpha"),
        (("member", "corpus:propersub", "--func", "depth=1: 1/0 1"), "--func"),
    ],
    ids=[
        "negative-depth",
        "too-few-values",
        "too-many-values",
        "weight-no-values",
        "empty-alpha",
        "zero-denominator-alpha",
        "zero-denominator-func",
    ],
)
def test_k0_malformed_vector_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, "k0", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert flag in err


# one number a flag may not take, per flag: flags read an optional '-' and
# ASCII digits, and a fraction's denominator is unsigned
BAD_FLAG_NUMBERS = {
    "depth": ("reduce", "corpus:gicar", "--depth", "1_0"),
    "depth-fullwidth": ("reduce", "corpus:gicar", "--depth", "\uff11"),
    "level": ("dilate", "corpus:gicar", "--level", "1_0"),
    "enumerate": ("reduce", "corpus:threebranch", "--enumerate", "+3"),
    "bound": ("k0", "positive", "corpus:gicar", "--func", "depth=0: 1", "--bound", "+3"),
    "swap": ("k0", "probe", "corpus:dyadic", "--swap", "1", "\uff12"),
    "cap": ("k0", "probe", "corpus:dyadic", "--swap", "1", "2", "--cap", " 5"),
    "levels": ("telescope", "corpus:gicar", "--levels", "0,1_0"),
    "column": ("k0", "chain", "corpus:gicar", "--depth", "2", "--column", "0,\uff11"),
    "perm": ("k0", "probe", "corpus:dyadic", "--depth", "1", "--perm", "2,+1"),
    "func-depth": ("k0", "member", "corpus:gicar", "--func", "depth=0_1: 1 1"),
    "func-value": ("k0", "member", "corpus:gicar", "--func", "depth=1: 1 0.5"),
    "alpha-exponent": ("k0", "phi", "corpus:gicar", "--alpha", "1e3,2"),
    "alpha-fullwidth": ("k0", "phi", "corpus:gicar", "--alpha", "\uff11,2"),
    "alpha-underscore": ("k0", "phi", "corpus:gicar", "--alpha", "1_0/3,1"),
    "alpha-signed-denominator": ("k0", "phi", "corpus:gicar", "--alpha", "1/-3,1"),
}


@pytest.mark.parametrize("argv", BAD_FLAG_NUMBERS.values(), ids=BAD_FLAG_NUMBERS)
def test_flag_numbers_read_as_files_read_them(capsys, argv):
    flag = [tok for tok in argv if tok.startswith("--")][-1]
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse refuses a bad int flag
        code, (out, err) = exc.code, capsys.readouterr()
    assert (code, out) == (2, "")
    assert flag in err


def test_flag_numbers_keep_signs_and_fractions(capsys):
    assert run(capsys, "k0", "phi", "corpus:gicar", "--alpha=-1/3,2") == (0, "func depth=1: 2 -1/3\n", "")
    assert run(capsys, "reduce", "corpus:gicar", "--depth=-1") == (2, "", "usage error: --depth needs N >= 0, got -1\n")
    code, out, _ = run(capsys, "k0", "member", "corpus:gicar", "--func", "depth=1: 1 -1/2")
    assert (code, out) == (1, "NOT a member (checked exactly at depth 1)\n")


@pytest.mark.parametrize("value", ["1_0", "\uff110", " 5", "x", "0", "-3"])
def test_depth_limit_is_read_as_an_unsigned_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", value)
    code, out, err = run(capsys, "reduce", "corpus:gicar", "--depth", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: BRATTICE_DEPTH_LIMIT must be ")


def test_depth_limit_takes_ascii_digits(capsys, monkeypatch):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "10")
    assert run(capsys, "reduce", "corpus:gicar", "--depth", "10")[0] == 0
    code, _, err = run(capsys, "reduce", "corpus:gicar", "--depth", "11")
    assert (code, err) == (1, "error: level 11 requested, diagram allows 10\n")


def test_k0_func_past_the_diagram_keeps_its_verdict(capsys, monkeypatch):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "8")
    code, _, err = run(capsys, "k0", "member", "corpus:gicar", "--func", "depth=9: 1")
    assert code == 1
    assert err.strip() == "error: level 9 requested, diagram allows 8"


@pytest.mark.parametrize(
    "argv, level",
    [
        (("k0", "chain", "corpus:gicar", "--depth", "100"), 100),
        (("k0", "chain", "corpus:gicar", "--depth", "65"), 65),
        (("k0", "chain", "corpus:threeline", "--depth", "65"), 65),
        (("k0", "phi", "corpus:threeline", "--alpha", "1,2,3", "--depth", "100"), 100),
        (("k0", "phi", "corpus:threeline", "--alpha", "1,2,3", "--depth", "65"), 65),
        (("k0", "positive", "corpus:gicar", "--func", "depth=1: 1 2", "--bound", "100"), 100),
    ],
)
def test_k0_depth_past_the_diagram_is_an_error(capsys, argv, level):
    assert run(capsys, *argv) == (1, "", f"error: level {level} requested, diagram allows 64\n")


# one line past the diagram per verb, with and without --weight: each names
# the level it asks for in the one wording and exits 1 (a matrix index n
# asks for level n + 1)
PAST_THE_DIAGRAM = {
    "validate": (("validate", "corpus:gicar", "--depth", "100"), 100),
    "telescope": (("telescope", "corpus:gicar", "--levels", "0,65"), 65),
    "dilate": (("dilate", "corpus:gicar", "--level", "100"), 101),
    "reduce": (("reduce", "corpus:gicar", "--depth", "65"), 65),
    "pathspace": (("pathspace", "corpus:gicar", "--census", "--depth", "65"), 65),
    "k0 chain": (("k0", "chain", "corpus:gicar", "--depth", "100"), 100),
    "k0 chain --weight": (("k0", "chain", "corpus:dyadic", "--weight", "--depth", "100"), 100),
    "k0 phi": (("k0", "phi", "corpus:threeline", "--alpha", "1,2,3", "--depth", "100"), 100),
    "k0 member": (("k0", "member", "corpus:gicar", "--func", "depth=70: 1"), 70),
    "k0 member --weight": (("k0", "member", "corpus:gicar", "--weight", "--func", "depth=70: 1"), 70),
    "k0 positive": (("k0", "positive", "corpus:gicar", "--func", "depth=1: 1 2", "--bound", "100"), 100),
    "k0 positive --weight": (("k0", "positive", "corpus:dyadic", "--weight", "--func", "depth=70: 1"), 70),
    "k0 probe": (("k0", "probe", "corpus:gicar", "--swap", "1", "2", "--depth", "100"), 100),
    "k0 probe --weight": (("k0", "probe", "corpus:dyadic", "--weight", "--swap", "1", "2", "--depth", "100"), 100),
}


@pytest.mark.parametrize("argv, level", PAST_THE_DIAGRAM.values(), ids=PAST_THE_DIAGRAM)
def test_past_the_diagram_every_verb_names_the_level(capsys, argv, level):
    assert run(capsys, *argv) == (1, "", f"error: level {level} requested, diagram allows 64\n")


def test_validate_refuses_a_depth_past_the_diagram(capsys, tmp_path):
    # refused before any level is checked or drawn
    path = tmp_path / "past.dot"
    got = run(capsys, "validate", "corpus:gicar", "--depth", "100", "--dot", str(path))
    assert got == (1, "", "error: level 100 requested, diagram allows 64\n")
    assert not path.exists()
    assert run(capsys, "validate", "corpus:gicar", "--depth", "64") == (0, "valid\n", "")


# a type1 file whose squares differ, after a bootstrap column
ALTERNATING = (
    "bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\n"
    "tail: periodic 2\ntemplate:\n1 1\n0 1\ntemplate:\n1 0\n1 1\n"
)


@pytest.mark.parametrize("ref", ["corpus:threeline", "ALTERNATING"])
def test_type1_depth_names_a_level(capsys, tmp_path, ref):
    # after the bootstrap column, the chain to level N takes matrices
    # 1..N-1, and phi's function sits at level N
    if ref == "ALTERNATING":
        ref = str(tmp_path / "alternating.bd")
        Path(ref).write_text(ALTERNATING)
    diagram = corpus.get("threeline").diagram() if ref.startswith("corpus:") else read_input(ALTERNATING)[1]
    alpha = ",".join(map(str, range(1, diagram.shape.width + 1)))
    for n in (2, 3, 8, 64):
        code, out, err = run(capsys, "k0", "chain", ref, "--depth", str(n))
        squares = [line.split(": ", 1)[1].rsplit(" det=", 1)[0] for line in out.splitlines()[1:]]
        want = [" ; ".join(" ".join(map(str, row)) for row in diagram.matrix(k).rows) for k in range(1, n)]
        assert (code, err, squares) == (0, "", want)
        code, out, err = run(capsys, "k0", "phi", ref, "--alpha", alpha, "--depth", str(n))
        assert (code, err, out.partition(":")[0]) == (0, "", f"func depth={n}")
    for action, value in (("chain", ()), ("phi", ("--alpha", alpha))):
        code, _, err = run(capsys, "k0", action, ref, *value, "--depth", "1")
        assert (code, err) == (2, f"usage error: a chain to level 1 of {ref} holds no square; its squares start at matrix 1\n")


def test_type1_chain_default_takes_every_square_of_a_finite_file(tmp_path, capsys):
    path = tmp_path / "finite.bd"
    path.write_text("bdspec v1\nshape: type1 2\nmatrix 0:\n1\n1\nmatrix 1:\n1 1\n0 1\nmatrix 2:\n1 0\n1 1\ntail: none\n")
    want = "chain v1\nA 0: 1 1 ; 0 1 det=1\nA 1: 1 0 ; 1 1 det=1\n"
    assert run(capsys, "k0", "chain", str(path)) == (0, want, "")
    assert run(capsys, "k0", "chain", str(path), "--depth", "3") == (0, want, "")
    assert run(capsys, "k0", "chain", str(path), "--depth", "4") == (1, "", "error: level 4 requested, diagram allows 3\n")


# the defaults on gicar under a lowered limit, frozen before the diagram
# owned its default depths: each fits the limit
LIMIT_4_DEFAULTS = {
    ("k0", "chain", "corpus:gicar"): (
        "chain v1\n"
        "A 0: 1 1 ; 1 0 det=-1\n"
        "A 1: 1 0 1 ; 1 1 0 ; 0 1 0 det=1\n"
        "A 2: 1 0 0 1 ; 1 1 0 0 ; 0 1 1 0 ; 0 0 1 0 det=-1\n"
        "A 3: 1 0 0 0 1 ; 1 1 0 0 0 ; 0 1 1 0 0 ; 0 0 1 1 0 ; 0 0 0 1 0 det=1\n"
    ),
    ("validate", "corpus:gicar"): "valid\n",
    ("pathspace", "corpus:gicar", "--census"): (
        "census[theorem]: >= 5 ends (uncertified), 3 condensation points [uncertified]\n"
        "  kind: at-least\n  count: 5\n  condensation: 3\n  certified: no\n  depth examined: 4\n"
    ),
}


@pytest.mark.parametrize("argv", LIMIT_4_DEFAULTS, ids=" ".join)
def test_defaults_fit_a_lowered_depth_limit(capsys, monkeypatch, argv):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "4")
    assert run(capsys, *argv) == (0, LIMIT_4_DEFAULTS[argv], "")


def test_k0_chain_depth_past_a_finite_diagram_is_an_error(tmp_path, capsys):
    path = tmp_path / "two.bd"
    path.write_text("bdspec v1\nshape: type2\nmatrix 0:\n1\n1\nmatrix 1:\n1 0\n1 1\n0 1\ntail: none\n")
    code, out, _ = run(capsys, "k0", "chain", str(path), "--depth", "2")
    assert (code, out.count("det=")) == (0, 2)
    assert run(capsys, "k0", "chain", str(path), "--depth", "10") == (
        1,
        "",
        "error: level 10 requested, diagram allows 2\n",
    )
    # the default covers the diagram, and stops at its end
    code, out, _ = run(capsys, "k0", "chain", str(path))
    assert (code, out.count("det=")) == (0, 2)


TWO_LEVELS = "bdspec v1\nshape: type2\nmatrix 0:\n1\n1\nmatrix 1:\n1 0\n1 1\n0 1\ntail: none\n"


def test_k0_probe_default_depth_fits_the_diagram(tmp_path, capsys, monkeypatch):
    # without --depth a probe takes level 3, or the last level when the
    # diagram allows fewer
    path = tmp_path / "two.bd"
    path.write_text(TWO_LEVELS)
    preserved = (0, "preserved across 6 candidates\n", "")
    assert run(capsys, "k0", "probe", str(path), "--swap", "1", "2") == preserved
    assert run(capsys, "k0", "probe", str(path), "--swap", "1", "2", "--depth", "2") == preserved
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "2")
    assert run(capsys, "k0", "probe", "corpus:gicar", "--swap", "1", "2") == preserved


def test_explicit_levels_pass_a_lower_depth_limit_under_a_tail(tmp_path, capsys, monkeypatch):
    # three explicit gicar matrices, then the family: the bound never falls
    # below the explicit levels, and a level past them keeps the one wording
    path = tmp_path / "three.bd"
    path.write_text(
        "bdspec v1\nshape: type2\nmatrix 0:\n1\n1\nmatrix 1:\n1 0\n1 1\n0 1\n"
        "matrix 2:\n1 0 0\n1 1 0\n0 1 1\n0 0 1\ntail: family gicar\n"
    )
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "2")
    assert run(capsys, "validate", str(path), "--depth", "3") == (0, "valid\n", "")
    assert run(capsys, "validate", str(path), "--depth", "4") == (
        1,
        "",
        "error: level 4 requested, diagram allows 3\n",
    )
    assert read_input(path.read_text())[1].level_bound() == 3


def test_k0_probe_broken(capsys):
    code, out, _ = run(
        capsys, "k0", "probe", "corpus:dyadic", "--swap", "1", "2", "--depth", "3"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "Broken:"
    assert lines[1] == "  witness depth=3: 1/2 1/4 0 0"
    assert lines[2] == "  image   depth=3: 1/4 1/2 0 0"


def test_k0_probe_preserved(capsys):
    code, out, _ = run(
        capsys, "k0", "probe", "corpus:gicar", "--swap", "1", "2", "--depth", "3"
    )
    assert code == 0
    assert "preserved across" in out


@pytest.mark.parametrize("cap", [1, 0])
def test_k0_probe_cap_keeps_the_basis_candidates(capsys, monkeypatch, cap):
    argv = ("k0", "probe", "corpus:dyadic", "--depth", "3", "--perm", "2,3,1,4")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.startswith("Broken:")
    monkeypatch.setattr(k0, "CANDIDATE_CAP", cap)
    assert run(capsys, *argv) == (code, out, "")


def test_k0_probe_cap_still_bounds_subset_candidates(capsys, monkeypatch):
    argv = ("k0", "probe", "corpus:gicar", "--swap", "1", "2", "--depth", "3")
    assert run(capsys, *argv)[:2] == (0, "preserved across 14 candidates\n")
    # one pair and four basis vectors always run; the cap drops subsets
    for cap, checked in ((0, 5), (7, 7)):
        monkeypatch.setattr(k0, "CANDIDATE_CAP", cap)
        assert run(capsys, *argv)[:2] == (0, f"preserved across {checked} candidates\n")


def test_k0_probe_negative_cap_is_a_usage_error(capsys):
    # the cap is fixed: k0 probe takes no --cap, of any value
    for cap in ("-1", "5"):
        with pytest.raises(SystemExit) as info:
            main(["k0", "probe", "corpus:dyadic", "--depth", "3", "--perm", "2,3,1,4", "--cap", cap])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: --cap {cap}\n")


@pytest.mark.parametrize(
    "flags, message",
    [((), "k0 probe needs --swap I J or --perm LIST"), (("--swap", "1", "9"), "--swap indices must lie in 1..3")],
)
def test_k0_probe_needs_a_relabeling_of_the_level(capsys, flags, message):
    argv = ("k0", "probe", "corpus:gicar", "--depth", "2", *flags)
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_k0_probe_bad_perm(capsys):
    code, _, err = run(
        capsys, "k0", "probe", "corpus:gicar", "--perm", "1,1,2,3", "--depth", "3"
    )
    assert code == 2
    assert "usage error" in err


# --- corpus ------------------------------------------------------------------


def test_corpus_all_green(capsys):
    total = sum(len(e.records) for e in corpus.ENTRIES)
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert f"all {total} records reproduced" in out
    assert "DRIFT" not in out


def test_corpus_output_is_frozen(capsys):
    # the labels, their order and their alignment, byte for byte
    frozen = (Path(__file__).parent / "data" / "corpus.out").read_text(encoding="utf-8")
    assert run(capsys, "corpus") == (0, frozen, "")


# the depth-32 queries whose outputs were frozen before k0 multiplied
# inside row bands and walked gather maps; CI diffs the same two lines
ALPHA_32 = "3,-1,4,-1,5,-9,2,6,-5,3,5,-8,9,-7,9,3,-2,3,-8,4,6,-2,6,4,-3,3,8,-3,2,7,-9,5,0"
FUNC_32 = (
    "depth=32: 1/2 -13/2 13/2 23/2 51/2 67/2 95/2 105/2 133/2 149/2 177/2 181/2 203/2"
    " 233/2 245/2 265/2 287/2 295/2 313/2 335/2 353/2 353/2 365/2 381/2 409/2 435/2"
    " 439/2 465/2 479/2 497/2 519/2 535/2 559/2"
)


@pytest.mark.parametrize(
    "argv, frozen",
    [
        (("k0", "phi", "corpus:gicar", f"--alpha={ALPHA_32}"), "k0-phi-gicar-32.out"),
        (("k0", "member", "corpus:propersub", "--column", "0,1", "--func", FUNC_32), "k0-member-propersub-32.out"),
    ],
)
def test_depth_32_k0_outputs_are_frozen(capsys, argv, frozen):
    want = (Path(__file__).parent / "data" / frozen).read_text(encoding="utf-8")
    assert run(capsys, *argv) == (0, want, "")


# type1 phi outputs frozen while they were still read through a reduced tree
@pytest.mark.parametrize(
    "argv, frozen",
    [
        (("k0", "phi", "corpus:threeline", "--alpha", "1,-2,3", "--depth", "40"), "k0-phi-threeline-40.out"),
        (("k0", "phi", "corpus:uhf6", "--alpha", "5", "--depth", "40"), "k0-phi-uhf6-40.out"),
    ],
)
def test_type1_k0_phi_outputs_are_frozen(capsys, argv, frozen):
    want = (Path(__file__).parent / "data" / frozen).read_text(encoding="utf-8")
    assert run(capsys, *argv) == (0, want, "")


def test_type1_k0_chain_output_is_frozen(capsys):
    # the chain to level 8: threeline's matrices 1..7
    want = (Path(__file__).parent / "data" / "k0-chain-threeline-8.out").read_text(encoding="utf-8")
    assert run(capsys, "k0", "chain", "corpus:threeline", "--depth", "8") == (0, want, "")


def test_k0_phi_at_depth_1100_ends_in_a_verdict(capsys, monkeypatch):
    monkeypatch.setenv("BRATTICE_DEPTH_LIMIT", "3000")
    code, out, err = run(capsys, "k0", "phi", "corpus:uhf2", "--depth", "1100", "--alpha", "1")
    assert (code, out, err) == (0, f"func depth=1100: 1/{2**1100}\n", "")


def test_corpus_reports_drift(capsys, monkeypatch):
    entry = corpus.get("uhf6")
    first = entry.records[0]
    wrong = corpus.ExpectedRecord(first.field, first.tag, (2, 6, 12, 37), first.derive)
    patched = corpus.ExampleCorpusEntry(
        entry.name, entry.description, entry.kind, entry.build, (wrong, *entry.records[1:])
    )
    monkeypatch.setattr(corpus, "ENTRIES", tuple(patched if e is entry else e for e in corpus.ENTRIES))
    code, out, _ = run(capsys, "corpus")
    assert code == 1
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("DRIFT")] == [
        "DRIFT uhf6         scales 4                         [hand-checked]"
    ]
    assert lines[-1] == "1 record(s) drifted"
    code, out, _ = run(capsys, "corpus", "--name", "uhf6", "--json")
    assert code == 1
    assert json.loads(out)["drift"] == 1


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "--list")
    assert code == 0
    assert any(line.startswith("gicar:") for line in out.splitlines())


def test_corpus_list_json(capsys):
    code, out, _ = run(capsys, "corpus", "--list", "--json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["name"] for e in entries] == [e.name for e in corpus.ENTRIES]
    assert entries[0] == {
        "description": corpus.ENTRIES[0].description,
        "kind": corpus.ENTRIES[0].kind,
        "name": corpus.ENTRIES[0].name,
    }


def test_corpus_single_entry_json(capsys):
    code, out, _ = run(capsys, "corpus", "--name", "uhf6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["drift"] == 0
    assert all(row["entry"] == "uhf6" for row in payload["records"])


def test_corpus_unknown_name(capsys):
    code, _, err = run(capsys, "corpus", "--name", "nope")
    assert code == 2
    assert "usage error" in err
