"""Paths, the pinned child environment, and small statistics helpers.

Every process the benchmark starts runs the checkout's own sources
(`PYTHONPATH=<checkout>/src`), never an installed copy, with the same
depth limit and interpreter settings, so two runs differ only in the code
under test and the seed.  Bytecode is cached under `.bench_work/`, as a
user's repeated runs would have it, and nothing is written beside the
sources.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

DEPTH_LIMIT = "64"
OP_TIMEOUT_S = 60

# highest percentile that keeps at least ten samples beyond it
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        BRATTICE_DEPTH_LIMIT=DEPTH_LIMIT,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONUTF8="1",
    )
    return env


def source_identity():
    """The git commit when the checkout is a repository, and a digest of src/."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "brattice").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


def cli_command(argv):
    """The CLI as a user runs it from a source checkout."""
    return [sys.executable, "-m", "brattice.cli", *argv]


def percentile(values, p):
    """Linear interpolation between closest ranks; `values` need not be sorted."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count):
    """The highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count * (100 - p) / 100 >= 10:
            best = p
    return best
