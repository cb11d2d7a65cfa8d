"""The CLI's direct command-line reader against argparse as its oracle.

The reader takes the lines it is sure of and hands every other line to
argparse; where it does take a line, it must give argparse's namespace.
"""

import io
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from brattice.cli import K0_ACTIONS, VERBS, _attach_negative_vectors, _read_argv, build_parser, integer, main

INTS = ["0", "1", "3", " 2", "1_0", "٣", "+1", "1e3"]
VALUES = {
    "input": ["corpus:gicar", "corpus:dyadic", "corpus:threebranch", "corpus:nosuch", "no/such"],
    "strategy": ["theorem", "rightmost", "alternating", "bogus"],
    "compare": ["rightmost", "bogus"],
    "levels": ["0,2", "2,0", "0,1_0"],
    "column": ["0,1", "-1,1"],
    "alpha": ["1,2", "-5,2", "1,2,3", "1e3,2", "1_0/3,1"],
    "func": ["depth=0: 1", "depth=1: 1 2", "depth=-1: 1", "bad"],
    "perm": ["2,1,3", "1,1", "-1,2"],
    "name": ["uhf2", "nosuch"],
    "dot": ["out.dot"],
}
# every option of the table, each under one of its entries' keywords
OPTIONS = {
    name: kw
    for _, _, arguments in [*VERBS.values(), *K0_ACTIONS.values()]
    for name, kw in arguments
    if name[0] == "-"
}
# the arguments every k0 action takes
K0_COMMON = tuple(a for a in K0_ACTIONS["chain"][2] if all(a in args for _, _, args in K0_ACTIONS.values()))
# what a spoiled line may carry
BAD_VALUES = ["-1", "-x", "--json", "-", "x", ""]
STRAYS = ["-h", "--help", "--", "-", "--nosuch", "stray", "-5", "--json=1", "--swap=1", "--de", "--dep=2"]


@st.composite
def command_lines(draw):
    """A verb, its input, required options and some optional ones, with
    values from the vocabulary, then up to two defects, in any order."""
    verb = draw(st.sampled_from([*VERBS, "frobnicate"]))
    head, arguments = [verb], ()
    if verb in VERBS:
        _, target, arguments = VERBS[verb]
        if isinstance(target, dict):
            action = draw(st.sampled_from([*target, "nosuch", None]))
            if action:
                head.append(action)
            # a bare or unknown action still draws the options every action has
            arguments = target[action][2] if action in target else K0_COMMON
    pieces = []
    for name, kw in arguments:
        if name[0] == "-" and not kw.get("required") and draw(st.booleans()):
            continue  # an optional option left out
        pieces.append(_piece(draw, name, kw))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pieces = _spoil(draw, pieces, arguments)
    pieces = draw(st.permutations(pieces))
    return head + [tok for piece in pieces for tok in piece]


def _piece(draw, name, kw):
    """The tokens of one argument with a value from the vocabulary."""
    pool = INTS if kw.get("type") is integer else VALUES.get(name.lstrip("-"), ["a"])
    values = [draw(st.sampled_from(pool)) for _ in range(kw.get("nargs", 1))]
    if name[0] != "-":
        return values
    if kw.get("action") == "store_true":
        return [name]
    if len(values) == 1 and draw(st.booleans()):
        return [f"{name}={values[0]}"]
    return [name, *values]


def _untaken(arguments):
    """The options of the table that a line with these arguments may not
    carry; one that abbreviates a taken option is left out."""
    taken = [name for name, _ in arguments]
    return sorted(n for n in OPTIONS if not any(t.startswith(n) for t in taken))


def _spoil(draw, pieces, arguments):
    """One defect: a stray token, an option of another verb, or one
    argument dropped, repeated, abbreviated or given a bad value."""
    kind = draw(st.sampled_from(["stray", "untaken", "drop", "repeat", "abbreviate", "bad value", "bad value"]))
    if kind == "untaken":
        name = draw(st.sampled_from(_untaken(arguments)))
        return pieces + [_piece(draw, name, OPTIONS[name])]
    if kind == "stray" or not pieces:
        return pieces + [[draw(st.sampled_from(STRAYS))]]
    i = draw(st.integers(0, len(pieces) - 1))
    piece = pieces[i]
    if kind == "drop":
        return pieces[:i] + pieces[i + 1:]
    if kind == "repeat":
        return pieces + [piece]
    name, eq, value = piece[0].partition("=")
    if kind == "abbreviate":
        spoilt = [name[:4] + eq + value, *piece[1:]] if name[:2] == "--" else piece
    elif name[:2] != "--":
        spoilt = [draw(st.sampled_from(BAD_VALUES))]
    elif eq or len(piece) == 1:
        spoilt = [f"{name}={draw(st.sampled_from(BAD_VALUES))}"]
    else:
        spoilt = [*piece[:-1], draw(st.sampled_from(BAD_VALUES))]
    return pieces[:i] + [spoilt] + pieces[i + 1:]


def _parse_with_argparse(argv):
    """(vars of the namespace, None) or (None, exit status)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv)), None
        except SystemExit as exc:
            return None, exc.code


def _carries_untaken(argv):
    """Whether a token of argv is an option of the table that the verb or
    action in argv does not take."""
    if argv[0] not in VERBS:
        return False
    _, target, arguments = VERBS[argv[0]]
    if isinstance(target, dict):
        if len(argv) < 2 or argv[1] not in target:
            return False
        arguments = target[argv[1]][2]
    untaken = _untaken(arguments)
    return any(tok.partition("=")[0] in untaken for tok in argv)


def test_vocabulary_covers_the_table():
    # every option with a free-form value draws from its own pool
    free = {
        name.lstrip("-")
        for name, kw in OPTIONS.items()
        if kw.get("type") is not integer and kw.get("action") != "store_true"
    }
    assert free <= set(VALUES)
    assert set(VALUES) - {"input"} <= free
    assert [name for name, _ in K0_COMMON] == ["input", "--column", "--weight"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The files a drawn --dot writes land here."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli"))
    yield
    os.chdir(home)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reader_agrees_with_argparse(workdir, data):
    drawn = data.draw(command_lines())
    argv = _attach_negative_vectors(drawn)
    got = _read_argv(argv)
    want, status = _parse_with_argparse(argv)
    event(f"reader {'declined' if got is None else 'took'}, argparse exit {status}")
    if got is not None:
        assert status is None
        assert vars(got) == want
    if "--" not in argv and _carries_untaken(argv):
        # neither reader nor argparse lets an option through that the verb ignores
        event("carries an untaken option")
        assert got is None
        assert status is not None
    # and the whole line ends in a verdict or a clean usage error
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(drawn)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "line",
    [
        "validate corpus:gicar --depth 3 --json",
        "telescope corpus:gicar --levels=0,2",
        "dilate corpus:gicar --level 1",
        "reduce corpus:threebranch --enumerate 3 --strategy rightmost",
        "pathspace corpus:gicar --census --compare alternating",
        "k0 chain corpus:gicar --depth 4",
        "k0 phi corpus:gicar --alpha -5,2,-2",
        "k0 member corpus:propersub --column 0,1 --func 'depth=1: 0 1/2'",
        "k0 positive corpus:dyadic --weight --func 'depth=2: 1/2 1/4 1' --bound 3",
        "k0 probe corpus:dyadic --swap 1 2 --depth 3",
        "k0 probe corpus:dyadic --perm=2,1,3,4 --cap 0",
        "corpus --name uhf2 --json",
        "corpus",
    ],
)
def test_reader_takes_the_valid_lines(line):
    argv = _attach_negative_vectors(shlex.split(line))
    got = _read_argv(argv)
    assert got is not None
    assert vars(got) == _parse_with_argparse(argv)[0]


@pytest.mark.parametrize(
    "line",
    [
        "",
        "--help",
        "k0",
        "k0 phi corpus:gicar",
        "validate corpus:gicar --dep 3",
        "validate corpus:gicar --depth x",
        "validate corpus:gicar --depth -1",
        "validate corpus:gicar --json=1",
        "validate corpus:gicar --json --json",
        "validate corpus:gicar corpus:dyadic",
        "validate -- corpus:gicar",
        "k0 probe corpus:gicar --swap 1",
        "k0 probe corpus:gicar --swap=1 2",
        "corpus stray",
        "k0 chain corpus:gicar --depth 2 --json",
        "k0 chain corpus:gicar --strategy=bogus",
        "k0 phi corpus:gicar --alpha 1,2 --json",
        "k0 member corpus:gicar --func 'depth=0: 1' --depth 5",
        "validate corpus:gicar --strategy theorem",
        # int flags read numbers as files do: no '_', no '+', no non-ASCII
        # digit, no space, no exponent
        "reduce corpus:gicar --depth 1_0",
        "reduce corpus:gicar --depth \uff11",
        "k0 positive corpus:gicar --func 'depth=0: 1' --bound +3",
        "k0 probe corpus:dyadic --cap ' 5'",
        "k0 probe corpus:dyadic --swap 1 2.0",
        "dilate corpus:gicar --level 1e0",
    ],
)
def test_reader_declines_what_argparse_must_see(line):
    assert _read_argv(_attach_negative_vectors(shlex.split(line))) is None

