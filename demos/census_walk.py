"""Count the ends of minimal path spaces under different reduction choices.

The same diagram can reduce to different trees; the end census tells the
resulting boundaries apart (or certifies that it cannot).
"""

from brattice import corpus
from brattice.diagram import BratteliDiagram
from brattice.errors import Uncertified
from brattice.pathspace import build_minimal_diagram, compare_invariants, end_census


def main():
    gicar = corpus.get("gicar").diagram()

    trees = {}
    for strategy in ("rightmost", "leftmost", "alternating"):
        tree = build_minimal_diagram(gicar, strategy)
        trees[strategy] = tree
        census = end_census(tree)
        print(f"gicar / {strategy:12s} {census.summary()}")

    print()
    pairs = [("rightmost", "leftmost"), ("rightmost", "alternating")]
    for a, b in pairs:
        verdict = compare_invariants(trees[a], trees[b])
        print(f"{a} vs {b}: {verdict}")

    print()
    threeline = corpus.get("threeline").diagram()
    tree = build_minimal_diagram(threeline, "theorem")
    print(f"threeline / theorem  {end_census(tree).summary()}")

    # a finite prefix cannot certify anything about the missing tail
    prefix = build_minimal_diagram(
        BratteliDiagram(
            tuple(gicar.matrix(n) for n in range(3)),
            None,
            gicar.shape,
        ),
        "rightmost",
    )
    census = end_census(prefix)
    print(f"gicar 3-level prefix {census.summary()}")
    try:
        compare_invariants(prefix, trees["rightmost"])
    except Uncertified as exc:
        print(f"comparison refused: {exc}")


if __name__ == "__main__":
    main()
