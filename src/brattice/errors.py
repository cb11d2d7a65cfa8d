"""Error taxonomy shared across the package.

Each class corresponds to one failure mode of the public operations, so
callers (and the CLI) can map them to stable verdicts.  They deliberately
subclass ValueError / RuntimeError so sloppy callers still get something
sensible.
"""


class BratticeError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BratticeError, ValueError):
    """Malformed input text: its 1-based line number, and its file's path."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno, self.path = lineno, None


class IndexOutOfRange(BratticeError, IndexError):
    """A level or vertex index falls outside the diagram."""


class RankDeficient(BratticeError, ValueError):
    """An operation requires full column rank and the input lacks it."""


class NotDilatable(BratticeError, ValueError):
    """The chain cannot be rewritten into single-growth steps."""


class Singular(BratticeError, ValueError):
    """A square matrix that must be invertible is not."""


class UnsupportedUserMap(BratticeError, ValueError):
    """A user-supplied parent map uses an edge that does not exist."""


class DepthExceeded(BratticeError, ValueError):
    """A request needs levels beyond what the diagram can materialize."""


class Uncertified(BratticeError, ValueError):
    """A comparison was asked to rely on uncertified census data."""


class SingularCompletion(BratticeError, ValueError):
    """A supplied completion matrix is singular."""


class NotInK0(BratticeError, ValueError):
    """Positivity was asked about a function that is not a group element."""


class NotUniqueMinimal(BratticeError, ValueError):
    """A weight scheme needs unique minimal reductions at every level."""


class LimitExceeded(BratticeError, RuntimeError):
    """An enumeration found more maps than its cap allows.

    The enumeration walk visits only nodes that lead to a map, so the cap
    bounds the work done as well as the number of maps returned.
    """
