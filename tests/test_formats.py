"""Text format round-trips beyond the basics: chain dumps, symbolic tails."""

from fractions import Fraction

import pytest

from brattice import corpus
from brattice.diagram import (
    BratteliDiagram,
    MultiplicityMatrix,
    PeriodicTail,
    PowToken,
    ShapeClass,
    format_bdspec,
    parse_bdspec,
)
from brattice.k0 import (
    Auto,
    K0Witness,
    complete_chain,
    format_chain_dump,
    parse_chain_dump,
)
from brattice.pathspace import LocallyConstantFunction


def test_chain_dump_round_trip():
    chain = complete_chain(corpus.get("gicar").diagram(), Auto(), 3)
    witnesses = [K0Witness((1, 0), 1), K0Witness((2, -1, 3), 2)]
    funcs = [
        LocallyConstantFunction(1, (Fraction(1, 2), Fraction(-3, 4))),
        LocallyConstantFunction(0, (7,)),
    ]
    text = format_chain_dump(chain, witnesses, funcs)
    back, got_w, got_f = parse_chain_dump(text)
    assert back.squares == chain.squares
    assert back.dets == chain.dets
    assert back.u_matrix(3) == chain.u_matrix(3)
    assert got_w == witnesses
    assert [(f.depth, f.values) for f in got_f] == [
        (f.depth, f.values) for f in funcs
    ]
    assert format_chain_dump(back, got_w, got_f) == text


def test_chain_dump_verifies_determinants():
    chain = complete_chain(corpus.get("uhf2").diagram(), Auto(), 2)
    text = format_chain_dump(chain)
    tampered = text.replace("det=2", "det=3", 1)
    with pytest.raises(ValueError, match="determinant mismatch"):
        parse_chain_dump(tampered)


def test_chain_dump_parse_failures():
    with pytest.raises(ValueError, match="chain v1"):
        parse_chain_dump("chain v2\nA 0: 2 det=2\n")
    with pytest.raises(ValueError, match="out of order"):
        parse_chain_dump("chain v1\nA 1: 2 det=2\n")
    with pytest.raises(ValueError, match="unexpected line"):
        parse_chain_dump("chain v1\nA 0: 2 det=2\nblargh\n")


def test_pow_token_tail_round_trip():
    template = ((1, PowToken(2, 1, 1)), (0, 1))
    diagram = BratteliDiagram(
        (MultiplicityMatrix([[1], [1]]),),
        PeriodicTail((template,), 1),
        ShapeClass("type1", 2),
        "powtail",
    )
    text = format_bdspec(diagram)
    assert "2^{n+1}" in text
    back = parse_bdspec(text)
    assert format_bdspec(back) == text
    # tokens stay symbolic: entries grow with the level
    assert back.matrix(1).at(1, 2) == 4
    assert back.matrix(3).at(1, 2) == 16


def test_family_tail_round_trip_is_exact():
    for name in ("gicar", "dyadic", "propersub"):
        diagram = corpus.get(name).diagram()
        text = format_bdspec(diagram)
        assert format_bdspec(parse_bdspec(text)) == text
