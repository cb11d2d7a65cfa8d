"""Exact-arithmetic toolkit for Bratteli diagrams.

Minimal reductions of multiplicity matrices, minimal sub-diagrams as
trees with end-topology invariants, and the ordered K0 group realized
as locally constant rational functions on the boundary.  Import names
from the submodules: brattice.diagram, brattice.reduction,
brattice.pathspace, brattice.k0, brattice.corpus and brattice.matops.
"""

__version__ = "0.1.0"
