"""Text format round-trips beyond the basics: chain dumps, symbolic tails."""

from brattice import corpus
from brattice.diagram import (
    BratteliDiagram,
    MultiplicityMatrix,
    PeriodicTail,
    PowToken,
    ShapeClass,
    format_bdspec,
    read_input,
)
from brattice.k0 import Auto, build_chain, complete_chain, format_chain_dump


def read_chain_dump(text):
    """The squares, as rows of ints, and the printed determinants of a
    `chain v1` dump."""
    header, *lines = text.splitlines()
    assert header == "chain v1"
    squares, dets = [], []
    for k, line in enumerate(lines):
        head, _, rest = line.partition(": ")
        assert head == f"A {k}"
        body, _, det = rest.rpartition(" det=")
        squares.append([[int(x) for x in row.split()] for row in body.split(";")])
        dets.append(int(det))
    return squares, tuple(dets)


def test_chain_dump_round_trip():
    """The dump carries each square in full, and build_chain's recomputed
    determinants agree with the printed ones."""
    for name, depth in (("gicar", 3), ("uhf2", 2)):
        chain = complete_chain(corpus.get(name).diagram(), Auto(), depth)
        text = format_chain_dump(chain)
        squares, dets = read_chain_dump(text)
        back = build_chain(squares)
        assert back.squares == chain.squares
        assert back.dets == chain.dets == dets, name
        assert back.u_matrix(depth) == chain.u_matrix(depth)
        assert format_chain_dump(back) == text


def test_chain_dump_verifies_determinants():
    """Recomputing from the printed squares checks the printed determinants:
    a tampered one no longer matches."""
    chain = complete_chain(corpus.get("uhf2").diagram(), Auto(), 2)
    text = format_chain_dump(chain)
    squares, dets = read_chain_dump(text)
    assert build_chain(squares).dets == dets
    tampered = text.replace("det=2", "det=3", 1)
    assert tampered != text
    squares, dets = read_chain_dump(tampered)
    assert build_chain(squares).dets != dets


def test_pow_token_tail_round_trip():
    template = ((1, PowToken(2, 1, 1)), (0, 1))
    diagram = BratteliDiagram(
        (MultiplicityMatrix([[1], [1]]),),
        PeriodicTail((template,), 1),
        ShapeClass("type1", 2),
    )
    text = format_bdspec(diagram)
    assert "2^{n+1}" in text
    back = read_input(text)[1]
    assert format_bdspec(back) == text
    # tokens stay symbolic: entries grow with the level
    assert back.matrix(1).rows[0][1] == 4
    assert back.matrix(3).rows[0][1] == 16


def test_family_tail_round_trip_is_exact():
    for name in ("gicar", "dyadic", "propersub"):
        diagram = corpus.get(name).diagram()
        text = format_bdspec(diagram)
        assert format_bdspec(read_input(text)[1]) == text
