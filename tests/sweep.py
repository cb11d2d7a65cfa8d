"""A frozen sweep of CLI command lines.

The sweep is a fixed list of command lines: every corpus input under every
verb and k0 action, at depths 0, 1, 2, 3, 5, 8, 32, 63, 64 and 65, with
every strategy, `--json`, `--weight`, `--dot`, and the matrix and bdspec
files of tests/data.  Each line runs through `cli.main` in process, with
stdout and stderr captured and `BRATTICE_DEPTH_LIMIT` set for that line,
and tests/data/sweep.out freezes one record per line: the argv, the exit
code, stdout and stderr, each replaced by its sha256 when long, and the
sha256 of the file a `--dot` line writes.  A diff of sweep.out lists every
CLI line a change touches.

A line that argparse refuses keeps only its last stderr line, the error
itself: the usage text above it is laid out differently across Python
versions.

    python tests/sweep.py           # compare with the frozen file
    python tests/sweep.py --write   # refreeze tests/data/sweep.out
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FROZEN = ROOT / "tests" / "data" / "sweep.out"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from brattice import cli  # noqa: E402
from brattice.config import DEPTH_ENV  # noqa: E402

DEPTHS = (0, 1, 2, 3, 5, 8, 32, 63, 64, 65)
SHALLOW = 8  # deeper levels run one line per verb and action, not every variant
STRATEGIES = ("theorem", "lexfirst", "rightmost", "leftmost", "alternating", "positions:1,2")
DIAGRAMS = ("gicar", "uhf2", "uhf6", "dyadic", "propersub", "pinch", "threeline")
MATRICES = ("fan43", "twocol", "forced", "threebranch", "squareswap")
FILES = ("dense-33x32", "dense-vanishing-minor", "ladder-extra-row", "ladder-small")
# a diagram file: matrix 1 has one reduction, yet grows by two branches
TWO_BRANCHES = "tests/data/two-branches.bd"
# the level widths a line's vectors take; past the diagram any width will do
WIDTHS = {"uhf2": 1, "uhf6": 1, "threeline": 3}
DOT = "@DOT"  # stands for a fresh file path in a line's argv and output
LONG = 1000  # characters past which a stream is recorded by its sha256
CHILD_SHARE = 50  # one line in this many also runs as a child process


def _vec(n, step=1):
    """n small signed integers, the same on every run."""
    return ",".join(str((k * step) % 7 - 3) for k in range(n))


def _width(name, d):
    if name in WIDTHS:
        return WIDTHS[name]
    return d + 1  # the single-growth diagrams gain one vertex per level


def _func(d, values):
    return f"'depth={d}: {values}'"


def _diagram_lines(name):
    ref = f"corpus:{name}"
    out = [
        f"dilate {ref}",
        f"dilate {ref} --dot {DOT}",
        f"validate {ref}",
        f"validate {ref} --dot {DOT}",
        f"reduce {ref}",
        f"pathspace {ref} --census",
        f"k0 chain {ref}",
        f"k0 probe {ref} --swap 1 2",
        f"k0 probe {ref} --swap 1 2 --json",
    ]
    for d in DEPTHS:
        w = _width(name, d)
        ones = _func(d, " ".join(["1"] * w))
        signed = _func(d, _vec(w, 2).replace(",", " "))
        halves = _func(d, " ".join(f"{k % 3}/2" for k in range(w)))
        if name in WIDTHS:
            phi = [f"k0 phi {ref} --alpha {_vec(w)} --depth {d}", f"k0 phi {ref} --alpha {_vec(w + 1)} --depth {d}"]
        else:
            phi = [f"k0 phi {ref} --alpha {_vec(d + 1)}", f"k0 phi {ref} --alpha {_vec(d + 1)} --weight"]
        out += [
            f"validate {ref} --depth {d}",
            f"validate {ref} --depth {d} --json",
            f"dilate {ref} --level {d}",
            f"telescope {ref} --levels 0,{d}",
            f"reduce {ref} --depth {d}",
            f"reduce {ref} --depth {d} --strategy rightmost",
            f"pathspace {ref} --depth {d} --census --json",
            f"pathspace {ref} --depth {d} --strategy alternating --compare rightmost",
            f"k0 chain {ref} --depth {d}",
            f"k0 chain {ref} --depth {d} --weight",
            *phi,
            f"k0 member {ref} --func {ones}",
            f"k0 member {ref} --func {halves} --weight --json",
            f"k0 positive {ref} --func {signed}",
            f"k0 probe {ref} --swap 1 2 --depth {d}",
        ]
        if d > SHALLOW:
            continue
        out += [
            f"reduce {ref} --depth {d} --dot {DOT}",
            f"pathspace {ref} --depth {d} --dot {DOT}",
            f"k0 chain {ref} --depth {d} --column 0,1",
            f"k0 member {ref} --func {signed} --json",
            f"k0 member {ref} --func {halves}",
            f"k0 positive {ref} --func {ones}",
            f"k0 positive {ref} --func {ones} --json",
            f"k0 positive {ref} --func {signed} --json",
            f"k0 positive {ref} --func {signed} --weight",
            f"k0 positive {ref} --func {halves} --weight",
            f"k0 positive {ref} --func {signed} --strategy rightmost --column 1,0",
            f"k0 probe {ref} --swap 1 2 --depth {d} --weight --json",
            f"k0 probe {ref} --perm {_perm(w)} --depth {d}",
        ]
        for strategy in STRATEGIES:
            out += [
                f"reduce {ref} --depth {d} --strategy {strategy}",
                f"pathspace {ref} --depth {d} --strategy {strategy} --census --json",
                f"pathspace {ref} --depth {d} --strategy {strategy} --compare rightmost",
                f"k0 phi {ref} --alpha {_vec(d + 1, 3)} --strategy {strategy}",
                f"k0 member {ref} --func {signed} --strategy {strategy}",
            ]
    return out


def _perm(w):
    """The cyclic shift of 1..w."""
    return ",".join(str(k % w + 1) for k in range(1, w + 1))


def _matrix_lines(ref):
    out = [f"validate {ref}", f"validate {ref} --json", f"reduce {ref}", f"reduce {ref} --json"]
    out += [f"{verb} {ref}" for verb in ("telescope --levels 0", "dilate", "pathspace", "k0 chain")]
    if "dense" not in ref:  # a dense level has more than 10^6 maps to count
        out += [f"reduce {ref} --enumerate {n}" for n in (0, 1, 3)] + [f"reduce {ref} --enumerate 2 --json"]
    out += [f"reduce {ref} --depth 2", f"validate {ref} --depth 2", f"reduce {ref} --strategy theorem"]
    return out


# k0 option edges: `positive --depth` and `probe --cap`, which are not
# options, and --bound below the function's depth, at and past the limit
K0_OPTIONS = [
    "k0 positive corpus:gicar --func 'depth=2: 1 2 3' --depth 1",
    "k0 positive corpus:gicar --func 'depth=2: 1 2 3' --depth 2",
    "k0 positive corpus:gicar --func 'depth=2: 1 2 3' --depth 5",
    "k0 positive corpus:gicar --func 'depth=2: 1 -1 1' --depth 0",
    "k0 positive corpus:gicar --func 'depth=0: 1' --depth 3",
    "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --depth 2 --bound 100",
    "k0 positive corpus:gicar --func 'depth=1: 1 2' --depth 3",
    "k0 positive corpus:dyadic --weight --func 'depth=2: 1/2 1/4 1' --depth 1",
    "k0 positive corpus:dyadic --func 'depth=2: 1/2 1/4 1' --depth 4 --json",
    "k0 positive corpus:propersub --column 0,1 --func 'depth=1: 0 1' --depth 3",
    "k0 positive corpus:threeline --func 'depth=1: 1 2 3' --depth 2",
    *(
        f"k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound {b}"
        for b in (0, 1, 2, 3, 8, 63, 64, 65, 70)
    ),
    "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound 70 --json",
    "k0 positive corpus:gicar --func 'depth=2: 1 -1 1' --bound 0",
    "k0 positive corpus:gicar --func 'depth=2: 1 -1 1' --bound 1 --json",
    "k0 positive corpus:gicar --func 'depth=2: 1 -1 1' --bound 2",
    "k0 positive corpus:gicar --func 'depth=2: 1 -1 1' --bound 65",
    "k0 positive corpus:gicar --func 'depth=3: 1 0 0 0' --bound 10",
    "k0 positive corpus:dyadic --func 'depth=2: 1/2 -1/4 1' --bound 64",
    "k0 positive corpus:dyadic --func 'depth=2: 1/2 -1/4 1' --bound 65",
    "k0 positive corpus:uhf2 --func 'depth=1: 1' --bound 65",
    "k0 positive corpus:dyadic --weight --func 'depth=2: 1/2 1/4 1' --bound 3",
    "k0 positive corpus:propersub --column 0,1 --func 'depth=1: 0 -1' --bound 0",
    "k0 positive corpus:propersub --column 0,1 --func 'depth=1: 0 -1' --bound 65",
    "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound -1",
    *(f"k0 probe corpus:{name} --swap 1 2 --cap {c}" for name in ("gicar", "dyadic") for c in (0, 1, 5, 7, 512)),
    "k0 probe corpus:gicar --swap 1 2 --depth 3 --cap 7 --json",
    "k0 probe corpus:dyadic --depth 3 --perm 2,3,1,4 --cap 1",
    "k0 probe corpus:dyadic --swap 1 2 --cap -1",
    "k0 probe corpus:gicar --swap 1 2 --depth 5 --weight --cap 3",
]

# lines that run under a depth limit of their own
LIMITED = [
    (8, "k0 positive corpus:gicar --func 'depth=2: 1 7 -5'"),
    (8, "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound 8"),
    (8, "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound 9"),
    (8, "k0 member corpus:gicar --func 'depth=9: 1'"),
    (8, "k0 probe corpus:gicar --swap 1 2 --depth 9"),
    (8, "reduce corpus:gicar --depth 9"),
    (8, "validate corpus:threeline --depth 8"),
    (2, "k0 probe corpus:gicar --swap 1 2"),
    (2, "k0 chain corpus:dyadic --weight"),
    (100, "k0 positive corpus:gicar --func 'depth=4: 3 28 -12 -3 -30' --bound 80"),
    (100, "k0 positive corpus:gicar --func 'depth=2: 1 7 -5' --bound 100"),
    (100, "k0 chain corpus:gicar --depth 100"),
    (100, "validate corpus:gicar --depth 101"),
    ("1_0", "reduce corpus:gicar --depth 3"),
    ("0", "k0 positive corpus:gicar --func 'depth=0: 1'"),
]

MISC = [
    "corpus",
    "corpus --json",
    "corpus --list",
    "corpus --name gicar",
    "corpus --name nosuch",
    "corpus stray",
    "validate corpus:nosuch",
    "validate tests/data/no-such-file.txt",
    "reduce corpus:gicar --depth x",
    "reduce corpus:gicar --depth=-1",
    "reduce corpus:gicar --dep 3",
    "k0 member corpus:gicar --func 'depth=0: 1' --depth 5",
    "k0 chain corpus:gicar --depth 2 --json",
    "k0 phi corpus:gicar --alpha 1,2 --json",
    "k0 phi corpus:gicar --alpha=-1/3,2",
    "k0 phi corpus:gicar --alpha 1/0,2",
    "k0 phi corpus:gicar --alpha ''",
    "k0 probe corpus:gicar --depth 2",
    "k0 probe corpus:gicar --swap 1 9 --depth 2",
    "k0 probe corpus:gicar --swap 1",
    "k0 member corpus:gicar --func=depth=0: 1",
    "telescope corpus:gicar --levels 0,1_0",
    "k0",
]


def lines():
    """The sweep: (depth limit or None, command line) pairs, in a fixed order."""
    out = []
    for name in DIAGRAMS:
        out += _diagram_lines(name)
    for name in MATRICES:
        out += _matrix_lines(f"corpus:{name}")
    for name in FILES:
        out += _matrix_lines(f"tests/data/{name}.txt")
    out += [
        f"{verb} {TWO_BRANCHES}{flags}"
        for verb in ("validate", "reduce", "pathspace --census", "k0 chain", "k0 probe --swap 1 2")
        for flags in ("", " --depth 1", " --depth 2", " --depth 3")
    ]
    out += [
        f"k0 {action} {TWO_BRANCHES} --func 'depth=2: 1 1 1 1'{flags}"
        for action in ("member", "positive")
        for flags in ("", " --weight", " --json")
    ] + [f"k0 phi {TWO_BRANCHES} --alpha 1,2,3", f"k0 phi {TWO_BRANCHES} --alpha 1,2 --weight"]
    out += K0_OPTIONS + MISC
    # a line that two loops build runs once, where it first comes
    return list(dict.fromkeys((None, line) for line in out)) + LIMITED


@contextlib.contextmanager
def _environment(limit):
    """BRATTICE_DEPTH_LIMIT set to `limit` (unset for None), and a fixed
    terminal width for argparse, restored afterwards."""
    saved = {key: os.environ.get(key) for key in (DEPTH_ENV, "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    if limit is None:
        os.environ.pop(DEPTH_ENV, None)
    else:
        os.environ[DEPTH_ENV] = str(limit)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _argv(line, dot):
    return [tok.replace(DOT, dot) for tok in shlex.split(line)]


def run_in_process(limit, line, dot):
    """(exit code, stdout, stderr, argparse?) of one line through cli.main;
    `dot` is the path that stands for @DOT."""
    out, err = io.StringIO(), io.StringIO()
    with _environment(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, parsed = cli.main(_argv(line, str(dot))), False
        except SystemExit as exc:  # argparse refuses the line
            code, parsed = exc.code, True
    return code, out.getvalue(), err.getvalue(), parsed


# the children's environment, copied before any in-process line sets its own
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")


def run_child(limit, line, dot):
    """The same result, of the line run as `python -m brattice.cli`."""
    env = dict(CHILD_ENV)
    env.pop(DEPTH_ENV, None)
    if limit is not None:
        env[DEPTH_ENV] = str(limit)
    proc = subprocess.run(
        [sys.executable, "-m", "brattice.cli", *_argv(line, str(dot))],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # argparse prints its usage first; a refused verb prints "usage error:"
    return proc.returncode, proc.stdout, proc.stderr, proc.stderr.startswith("usage:")


def _stream(tag, text):
    """One stream's record lines: its lines, or its sha256 when long."""
    if not text:
        return []
    if len(text) > LONG:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return [f"  {tag} sha256:{digest} ({text.count(chr(10))} lines)"]
    body = text.split("\n")
    tail = body.pop()  # '' when the stream ends with a newline
    out = [f"  {tag} {row}".rstrip() for row in body]
    if tail:
        out.append(f"  {tag} {tail} (no newline at end)")
    return out


def record(limit, line, result, dot):
    """The frozen text of one line's run; `dot` is its --dot path."""
    code, out, err, parsed = result
    head = f"$ {line}" if limit is None else f"$ {DEPTH_ENV}={limit} {line}"
    rows = [head, f"  exit {code}"]
    rows += _stream(">", out.replace(str(dot), DOT))
    if parsed:
        rows += _stream("!", err.strip().split("\n")[-1] + "\n")
    else:
        rows += _stream("!", err.replace(str(dot), DOT))
    if dot.exists():
        rows.append(f"  dot sha256:{hashlib.sha256(dot.read_bytes()).hexdigest()}")
        dot.unlink()
    return "\n".join(rows) + "\n"


@contextlib.contextmanager
def _at_root():
    """Run from the repository root, where the tests/data paths resolve."""
    old = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(old)


def records():
    """{(limit, line): record} of every line of the sweep, run in process."""
    out = {}
    with tempfile.TemporaryDirectory() as name, _at_root():
        dot = Path(name) / "out.dot"
        for limit, line in lines():
            out[limit, line] = record(limit, line, run_in_process(limit, line, dot), dot)
    return out


def render(recs):
    """The text of sweep.out."""
    return "# tests/sweep.py: one record per command line; refreeze with --write\n" + "".join(recs.values())


def child_sample():
    """The seeded share of the lines that also runs as child processes."""
    todo = lines()
    return random.Random("sweep").sample(todo, len(todo) // CHILD_SHARE)


def child_records():
    """{(limit, line): record} of child_sample(), each line run as a child
    process, one at a time.  It touches neither os.environ nor the working
    directory, so it may run in a thread beside records()."""
    out = {}
    with tempfile.TemporaryDirectory() as name:
        dot = Path(name) / "out.dot"
        for limit, line in child_sample():
            out[limit, line] = record(limit, line, run_child(limit, line, dot), dot)
    return out


def diff(got, want):
    return "".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True), "frozen", "now"))


def main(argv):
    if argv not in ([], ["--write"]):
        print(__doc__.rstrip().rsplit("\n\n", 1)[-1], file=sys.stderr)
        return 2
    got = render(records())
    if argv:
        FROZEN.write_text(got, encoding="utf-8")
        print(f"wrote {FROZEN.relative_to(ROOT)}: {len(lines())} lines")
        return 0
    changed = diff(got, FROZEN.read_text(encoding="utf-8"))
    sys.stdout.write(changed or "sweep.out matches\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
