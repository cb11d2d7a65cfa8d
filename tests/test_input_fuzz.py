"""Fuzz the file front door: mutated bdspec, bare-matrix and `tree v1`
texts either parse or raise ParseError naming one of their own lines, and
the CLI ends each in exit 0, 1 or 2."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brattice import corpus
from brattice.cli import main
from brattice.diagram import format_bdspec, read_input, validate_diagram
from brattice.errors import ParseError
from brattice.pathspace import build_minimal_diagram, format_tree_dump, parse_tree_dump

POWTAIL = """bdspec v1
shape: type1 2
matrix 0:
1
1
# templates serve levels 1, 2, 3, ...
tail: periodic 2
template:
1 2^{n+1}
0 1
template:
2^{2n-1} 1
1 1
"""

BDSPEC = [format_bdspec(corpus.get(name).diagram()) for name in ("gicar", "threeline", "pinch", "propersub", "uhf6")]
BDSPEC.append(POWTAIL)
MATRICES = ["1 1\n0 1\n1 0\n", "# a ladder step\n1 0\n1 1\n0 1\n", "2 1 0\n1 1 1\n0 1 2\n0 0 1\n"]
# each tree with the corpus diagram whose levels it maps
TREES = [
    (format_tree_dump(build_minimal_diagram(corpus.get(name).diagram(), strategy), 4), f"corpus:{name}")
    for name, strategy in (("gicar", "rightmost"), ("gicar", "theorem"), ("propersub", "theorem"))
]
BASES = [(text, None) for text in BDSPEC + MATRICES] + TREES

TOKENS = ["x", "-3", "1_0", "²", "2^{n-5}", "1/2"]


@st.composite
def mutated(draw):
    """A base text with one line dropped, duplicated or swapped, one token
    replaced, or one row made ragged."""
    text, diagram_ref = draw(st.sampled_from(BASES))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "ragged"]))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "token":
        words = lines[i].split(" ")
        k = draw(st.integers(0, len(words) - 1))
        words[k] = draw(st.sampled_from(TOKENS))
        lines[i] = " ".join(words)
    else:
        words = lines[i].split(" ")
        lines[i] = " ".join(words[:-1] if len(words) > 1 and draw(st.booleans()) else words + ["1"])
    return "\n".join(lines) + "\n", diagram_ref


def parsed(read, text):
    """What `read` makes of the text, or the ParseError it raises."""
    try:
        return read(text)
    except ParseError as exc:
        return exc


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_inputs_parse_or_name_their_line(case):
    text, diagram_ref = case
    as_input = parsed(read_input, text)
    if not isinstance(as_input, ParseError) and as_input[0] == "diagram":
        validate_diagram(as_input[1])  # builds the levels it checks by default

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        # every text as a verb's input; a tree also as the map it replays
        runs = [(["validate", path], as_input)]
        if diagram_ref is not None:
            argv = ["reduce", diagram_ref, "--depth", "4", "--strategy", f"map:{path}"]
            runs.append((argv, parsed(parse_tree_dump, text)))
        for argv, result in runs:
            if isinstance(result, ParseError):
                assert 1 <= result.lineno <= len(text.splitlines()), (result, text)
            code, err = cli(argv)
            assert code in (0, 1, 2), (argv, code, err, text)
            if code == 2:
                assert isinstance(result, ParseError), (argv, err, text)
                assert err == f"parse error: {path}: {result}\n"
                assert f"line {result.lineno}" in err
