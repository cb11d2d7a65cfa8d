"""Fuzz over valid diagrams: well-formed type2 bdspec files with 1 to 5
explicit levels, entries 0 to 3, no zero row or column and an optional
family tail, and type1 files of width 1 to 3 with a periodic tail.  Every
verb runs on each file and ends in exit 0, 1 or 2 without raising, and a
`--json` line prints one JSON document."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brattice.cli import main

# each line runs on the drawn file, named {path}, and writes into {tmp}
LINES = [
    ["validate", "{path}", "--json"],
    ["validate", "{path}", "--depth", "2", "--dot", "{tmp}/levels.dot"],
    ["telescope", "{path}", "--levels", "0,1"],
    ["dilate", "{path}"],
    ["reduce", "{path}", "--depth", "3"],
    ["reduce", "{path}", "--strategy", "lexfirst", "--depth", "4", "--dot", "{tmp}/tree.dot"],
    ["pathspace", "{path}", "--census", "--depth", "3", "--json"],
    ["k0", "chain", "{path}", "--depth", "2"],
    ["k0", "chain", "{path}", "--weight", "--depth", "2"],
    ["k0", "phi", "{path}", "--alpha", "1,2"],
    ["k0", "member", "{path}", "--func", "depth=1: 1 1", "--json"],
    ["k0", "positive", "{path}", "--func", "depth=1: 1 -1", "--json"],
    ["k0", "probe", "{path}", "--swap", "1", "2", "--depth", "1", "--json"],
]


# the type1 lines: {values} and {spaced} are 1..W, for the file's width W,
# joined by commas and by spaces; the verbs that need levels that branch
# refuse the file
TYPE1_LINES = [
    ["validate", "{path}", "--json"],
    ["telescope", "{path}", "--levels", "0,1,2"],
    ["dilate", "{path}"],
    ["reduce", "{path}", "--depth", "3"],
    ["pathspace", "{path}", "--census", "--json"],
    ["k0", "chain", "{path}", "--depth", "3"],
    ["k0", "phi", "{path}", "--alpha", "{values}", "--depth", "3"],
]
TYPE1_REFUSED = [
    ["k0", "member", "{path}", "--func", "depth=1: {spaced}", "--json"],
    ["k0", "positive", "{path}", "--func", "depth=1: {spaced}", "--json"],
    ["k0", "probe", "{path}", "--swap", "1", "2", "--depth", "1", "--json"],
]


def nonzero_matrix(draw, rows, cols):
    """A rows x cols matrix (rows >= cols) of entries 0 to 3; a zero row or
    column gets one entry 1."""
    entries = st.lists(st.integers(min_value=0, max_value=3), min_size=cols, max_size=cols)
    matrix = draw(st.lists(entries, min_size=rows, max_size=rows))
    for i, row in enumerate(matrix):
        if not any(row):
            row[i % cols] = 1
    for q in range(cols):
        if not any(row[q] for row in matrix):
            matrix[q][q] = 1
    return matrix


@st.composite
def type2_bdspec(draw):
    """Matrix n is (n+2) x (n+1); a zero row or column gets one entry 1."""
    text = ["bdspec v1", "shape: type2"]
    for n in range(draw(st.integers(min_value=1, max_value=5))):
        text.append(f"matrix {n}:")
        text += [" ".join(map(str, row)) for row in nonzero_matrix(draw, n + 2, n + 1)]
    tail = draw(st.sampled_from(["none", "family gicar", "family dyadic", "family dupline"]))
    return "\n".join(text + [f"tail: {tail}"]) + "\n"


@st.composite
def type1_bdspec(draw):
    """Width W in 1..3; for W >= 2 a W x 1 bootstrap column of entries 1 to
    3; then a periodic tail of 1 or 2 W x W templates."""
    width = draw(st.integers(min_value=1, max_value=3))
    text = ["bdspec v1", f"shape: type1 {width}"]
    if width > 1:
        column = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=width, max_size=width))
        text += ["matrix 0:", *map(str, column)]
    period = draw(st.integers(min_value=1, max_value=2))
    text.append(f"tail: periodic {period}")
    for _ in range(period):
        text.append("template:")
        text += [" ".join(map(str, row)) for row in nonzero_matrix(draw, width, width)]
    return width, "\n".join(text) + "\n"


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_lines(text, lines, refused=(), **words):
    """Run each line on `text`, written to a file: every line ends in exit
    0, 1 or 2 without a traceback, a `--json` line prints one JSON
    document, and each `refused` line is a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.bd")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        for line in [*lines, *refused]:
            argv = [word.format(path=path, tmp=tmp, **words) for word in line]
            code, out, err = cli(argv)
            assert code in (0, 1, 2), (argv, code, err, text)
            assert "Traceback" not in err, (argv, err, text)
            if "--json" in argv and out:
                json.loads(out)
            if line in refused:
                assert code == 2 and "needs levels that branch" in err, (argv, code, err, text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(type2_bdspec())
def test_every_verb_ends_in_a_verdict_or_a_clean_error(text):
    check_lines(text, LINES)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(type1_bdspec())
def test_every_verb_ends_in_a_verdict_or_a_clean_error_on_type1_files(drawn):
    width, text = drawn
    values = [str(v) for v in range(1, width + 1)]
    check_lines(text, TYPE1_LINES, TYPE1_REFUSED, values=",".join(values), spaced=" ".join(values))
