"""Runtime knobs, and the one reader of unsigned integers."""

import os

DEPTH_ENV = "BRATTICE_DEPTH_LIMIT"
DEFAULT_DEPTH_LIMIT = 64


def read_uint(tok):
    """ASCII digits only: int() also takes '-3', '1_0', ' 5' and '２'."""
    if tok.isascii() and tok.isdigit():
        return int(tok)
    raise ValueError(f"{tok!r} is not an unsigned integer")


def depth_limit():
    """How many levels a rule-generated diagram may materialize.

    Read from the environment on every call so tests and long-running
    callers can adjust it without re-importing anything.
    """
    raw = os.environ.get(DEPTH_ENV)
    if raw is None:
        return DEFAULT_DEPTH_LIMIT
    try:
        value = read_uint(raw)
    except ValueError:
        raise ValueError(f"{DEPTH_ENV} must be an unsigned integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{DEPTH_ENV} must be positive, got {value}")
    return value
