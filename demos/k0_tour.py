"""A tour of the dimension-group machinery on the halving diagram.

Realizes integer vectors as functions on the boundary, tests membership and
positivity exactly, and breaks a would-be automorphism with a witness.
"""

from fractions import Fraction

from brattice import corpus
from brattice.k0 import (
    Broken,
    ExplicitColumn,
    Realizer,
    WeightScheme,
    automorphism_probe,
    complete_chain,
    membership,
    phi,
    witness_vector,
)
from brattice.pathspace import LocallyConstantFunction, build_minimal_diagram, refine


def main():
    dyadic = corpus.get("dyadic").diagram()
    scheme = WeightScheme(dyadic)
    weights = Realizer(scheme, scheme.tree)  # the scheme's closed forms
    chain = scheme.chain(4)
    tree = scheme.tree

    print("halving diagram, forced weights per level:")
    for n in range(5):
        print(f"  level {n}: k = {scheme.weights(n)}")
    print(f"  chain determinants: {chain.dets}")
    print()

    def fmt(values):
        return "(" + ", ".join(str(v) for v in values) + ")"

    alpha = (1, 1, 0, 0)
    f = phi(alpha, chain, tree)
    print(f"phi{alpha} has values {fmt(f.values)}")
    back = membership(f, chain, tree)
    print(f"membership round-trip: {back}")
    print()

    theta = (2, 1, 3, 4)
    verdict = automorphism_probe(theta, weights, 3)
    assert isinstance(verdict, Broken)
    print("swapping the first two depth-3 cylinders is not an automorphism:")
    print(f"  member {fmt(verdict.witness.values)}")
    print(f"  image  {fmt(verdict.image.values)} has no integer witness")
    print()

    sub = corpus.get("propersub").diagram()
    sub_tree = build_minimal_diagram(sub, "theorem")
    sub_chain = complete_chain(sub, [ExplicitColumn((0, 1))], 6)
    half = LocallyConstantFunction(1, (0, Fraction(1, 2)))
    print("doubling diagram: the half-height step function never lands in K0")
    for depth in (1, 3, 6):
        func = refine(half, depth, sub_tree)
        wv = witness_vector(func, sub_chain, sub_tree)
        print(
            f"  depth {depth}: witness vector {fmt(wv)} "
            f"-> {membership(func, sub_chain, sub_tree)}"
        )

    one = LocallyConstantFunction(0, (1,))
    print()
    print(f"the constant 1 is positive immediately: {weights.positivity(one)}")


if __name__ == "__main__":
    main()
