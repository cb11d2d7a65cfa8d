"""Fuzz over valid diagrams: well-formed type2 bdspec files with 1 to 5
explicit levels, entries 0 to 3, no zero row or column and an optional
family tail.  Every verb runs on each file and ends in exit 0, 1 or 2
without raising, and a `--json` line prints one JSON document."""

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


@st.composite
def type2_bdspec(draw):
    """Matrix n is (n+2) x (n+1); a zero row or column gets one entry 1."""
    text = ["bdspec v1", "shape: type2"]
    for n in range(draw(st.integers(min_value=1, max_value=5))):
        rows, cols = n + 2, n + 1
        entries = st.lists(st.integers(min_value=0, max_value=3), min_size=cols, max_size=cols)
        matrix = draw(st.lists(entries, min_size=rows, max_size=rows))
        for i, row in enumerate(matrix):
            if not any(row):
                row[i % cols] = 1
        for q in range(cols):
            if not any(row[q] for row in matrix):
                matrix[q][q] = 1
        text.append(f"matrix {n}:")
        text += [" ".join(map(str, row)) for row in matrix]
    tail = draw(st.sampled_from(["none", "family gicar", "family dyadic", "family dupline"]))
    return "\n".join(text + [f"tail: {tail}"]) + "\n"


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(type2_bdspec())
def test_every_verb_ends_in_a_verdict_or_a_clean_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.bd")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        for line in LINES:
            argv = [word.format(path=path, tmp=tmp) for word in line]
            code, out, err = cli(argv)
            assert code in (0, 1, 2), (argv, code, err, text)
            assert "Traceback" not in err, (argv, err, text)
            if "--json" in argv and out:
                json.loads(out)
