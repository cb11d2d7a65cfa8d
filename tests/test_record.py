"""Record against frozen dataclasses built in the test, and the CLI's
start-up imports."""

import os
import subprocess
import sys
from dataclasses import field, make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from brattice.diagram import BratteliDiagram, FamilyTail, MultiplicityMatrix, ShapeClass
from brattice.k0 import K0Witness
from brattice.pathspace import (
    BranchData,
    Cylinder,
    LAST,
    LexFirst,
    LocallyConstantFunction,
    NamedFamily,
    Theorem,
    UserMap,
)
from brattice.record import Record
from brattice.reduction import ReductionOutcome

SRC = Path(__file__).resolve().parent.parent / "src"


class Pair(Record):
    left: int
    right: object = None
    label: str = ""


def _post_init(self):
    if self.left < 0:
        raise ValueError("left must be nonnegative")
    object.__setattr__(self, "right", Fraction(self.right))


class Scaled(Record):
    left: int
    right: object = 1

    __post_init__ = _post_init


class Empty(Record):
    pass


PairTwin = make_dataclass(
    "Pair",
    [("left", int), ("right", object, field(default=None)), ("label", str, field(default=""))],
    frozen=True,
)
ScaledTwin = make_dataclass(
    "Scaled",
    [("left", int), ("right", object, field(default=1))],
    frozen=True,
    namespace={"__post_init__": _post_init},
)
EmptyTwin = make_dataclass("Empty", [], frozen=True)

CALLS = [
    (Pair, PairTwin, (1,), {}),
    (Pair, PairTwin, (1, (2, 3)), {}),
    (Pair, PairTwin, (1,), {"label": "x"}),
    (Pair, PairTwin, (), {"right": [1], "left": 4}),
    (Scaled, ScaledTwin, (2,), {}),
    (Scaled, ScaledTwin, (2, "3/4"), {}),
    (Empty, EmptyTwin, (), {}),
]


@pytest.mark.parametrize("cls, twin, args, kwargs", CALLS)
def test_record_matches_frozen_dataclass(cls, twin, args, kwargs):
    rec, ref = cls(*args, **kwargs), twin(*args, **kwargs)
    assert repr(rec) == repr(ref)
    assert vars(rec) == vars(ref)
    assert rec == cls(*args, **kwargs)
    assert rec != ref and ref != rec  # same fields, different classes
    if not any(isinstance(v, list) for v in vars(rec).values()):
        assert hash(rec) == hash(ref) == hash(cls(*args, **kwargs))


def test_record_hash_fails_like_dataclass_on_unhashable_fields():
    for cls in (Pair, PairTwin):
        with pytest.raises(TypeError):
            hash(cls(1, [2]))


@pytest.mark.parametrize("cls, twin", [(Pair, PairTwin), (Scaled, ScaledTwin)])
def test_record_is_frozen(cls, twin):
    rec, ref = cls(1, 2), twin(1, 2)
    for obj in (rec, ref):
        with pytest.raises(AttributeError):
            obj.left = 5
        with pytest.raises(AttributeError):
            del obj.left
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert (rec.left, ref.left) == (1, 1)


def test_post_init_validates_and_converts():
    for cls in (Scaled, ScaledTwin):
        with pytest.raises(ValueError, match="nonnegative"):
            cls(-1)
        assert cls(0, "1/2").right == Fraction(1, 2)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3, 4), {}), ((1,), {"left": 2}), ((1,), {"other": 2})],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (Pair, PairTwin):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_unequal_fields_and_foreign_objects():
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) != (1, 2, "")
    assert Theorem() == Theorem()
    assert Theorem() != LexFirst()
    assert Cylinder(1, 2) != (1, 2)
    assert Cylinder(1, 2) == Cylinder(level=1, vertex=2)
    assert len({Cylinder(1, 2), Cylinder(1, 2), Cylinder(2, 1)}) == 2


def test_library_records_keep_their_dataclass_repr():
    assert repr(Cylinder(1, 2)) == "Cylinder(level=1, vertex=2)"
    assert repr(Theorem()) == "Theorem()"
    assert repr(NamedFamily("rightmost", (LAST,))) == "NamedFamily(name='rightmost', positions=(0,), census=None)"
    assert repr(BranchData(1, 2, 3)) == "BranchData(parent=1, small_child=2, big_child=3)"
    assert repr(K0Witness((1, -2), 3)) == "K0Witness(alpha=(1, -2), depth=3)"
    assert repr(ReductionOutcome((1, 1), 1, "pivot")) == (
        "ReductionOutcome(parents=(1, 1), branch_col=1, method='pivot')"
    )
    assert repr(LocallyConstantFunction(0, (1,))) == (
        "LocallyConstantFunction(depth=0, values=(Fraction(1, 1),))"
    )
    assert repr(UserMap(())) == "UserMap(maps=())"
    assert repr(ShapeClass("type1", 2)) == "ShapeClass(kind='type1', width=2)"
    assert repr(MultiplicityMatrix([[1], [2]])) == "MultiplicityMatrix(rows=((1,), (2,)))"
    gicar = BratteliDiagram((), FamilyTail("gicar"))
    assert gicar.shape == ShapeClass("type2")


def test_cli_start_up_skips_heavy_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, brattice.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'json', 'pathlib', "
        "'argparse') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == ""


def test_cli_import_builds_no_family():
    # the family table holds builders: a family record compiles its
    # __init__ when a strategy names it, not when the CLI starts
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import brattice.cli\n"
        "from brattice.pathspace import NamedFamily, strategy_from_string\n"
        "from brattice.record import _first_init\n"
        "print(NamedFamily.__init__ is _first_init)\n"
        "strategy_from_string('alternating')\n"
        "print(NamedFamily.__init__ is _first_init)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["True", "False"]


def test_valid_command_lines_skip_argparse():
    # argparse, and the gettext and locale it loads, serve only help and errors
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys\n"
        "from brattice.cli import main\n"
        "main(['k0', 'phi', 'corpus:gicar', '--alpha', '1,2'])\n"
        "main(['pathspace', 'corpus:gicar', '--census'])\n"
        "print(' '.join(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.startswith("func depth=1: ")
    assert proc.stderr.strip() == ""
