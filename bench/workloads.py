"""The three workloads: inputs made from the seed, ops, and exact checks.

A workload is set up once, then hands out rounds.  A round holds every op
kind of the workload exactly once, in an order shuffled from the seed, so
the mix of work is the same in every round and every run; only the input
contents change with the seed.  Each op is a callable plus a check that
returns None when the program's answer is exactly right, or a message.
`kind_latency` is the statistic that sums up one op kind's latencies in a
run for the end-to-end metrics.

Program functions are always looked up through their module at call time
(`reduction.minimal_reduce`, not a name bound at import), so the traced run
sees every call the benchmark makes.
"""

import random
import shlex
import statistics
import subprocess
from fractions import Fraction
from typing import Callable, NamedTuple

from common import ROOT, WORK, child_env, cli_command


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]  # None when exact, else a message


# ---------------------------------------------------------------------------
# reduce-tree

# 11 op kinds, an odd count: op_p50_ms is one kind's fastest latency (the
# k = 14 dead end), not a mean of two kinds of different cost.  No op
# takes much over 40 ms, so a round is short, a run has about a hundred
# rounds or more, and each kind's fastest latency falls in one of the
# host's fast stretches even when they are brief.
GICAR_LEVELS = (8, 12, 16)
DENSE_SIZES = (6, 8, 10, 12)
DEADEND_ROWS = (12, 14, 16)
TREE_DEPTH = 12
DENSE_POOL = 64


def dense_matrix(c, index):
    """Pool matrix `index` of shape (c+1) x c, entries 0..3, no zero row."""
    rng = random.Random(f"dense-{c}-{index}")
    rows = []
    while len(rows) < c + 1:
        row = [rng.randint(0, 3) for _ in range(c)]
        if any(row):
            rows.append(row)
    return rows


def deadend_matrix(rng, k):
    """k rows supported on columns {3,4}, then one row on {1,2}.

    Columns 1 and 2 share a single row, so no reduction exists, but the
    lexicographic walk only finds out after trying every choice above it.
    """
    rows = [[0, 0, rng.randint(1, 3), rng.randint(1, 3)] for _ in range(k)]
    rows.append([rng.randint(1, 3), rng.randint(1, 3), 0, 0])
    return rows


class ReduceTree:
    """Exact elimination at its most expensive: one matrix reduced per op."""

    trace_rounds = 32
    kind_latency = min  # ops of 2 to 45 ms, 90 to 160 rounds a run
    # per-layer counters that must read nonzero in a traced run
    exercised = (
        "matops.rank.calls",
        "matops.det.calls",
        "reduction.minimal_reduce.calls",
        "reduction.pivot_row.calls",
        "reduction.enumerate.calls",
        "pathspace.levels_materialized",
        "diagram.matrix.calls",
        "config.depth_limit.calls",
    )

    def __init__(self, seed, expected, smoke=False):
        from brattice import corpus, pathspace, reduction

        self.reduction = reduction
        self.pathspace = pathspace
        self.gicar = corpus.get("gicar").diagram()
        self.expected = expected["reduce-tree"]
        self.rng = random.Random(seed)
        if smoke:
            self.levels, self.sizes, self.deadends = GICAR_LEVELS[:1], DENSE_SIZES[:1], DEADEND_ROWS[:1]
        else:
            self.levels, self.sizes, self.deadends = GICAR_LEVELS, DENSE_SIZES, DEADEND_ROWS

    def round(self, r):
        ops = [self._gicar_level(level) for level in self.levels]
        ops += [self._dense(c) for c in self.sizes]
        ops += [self._deadend(k) for k in self.deadends]
        ops.append(self._tree_dump())
        self.rng.shuffle(ops)
        return ops

    def _reduction_check(self, rows, frozen):
        def check(outcome):
            if not self.reduction.reduction_is_valid(rows, outcome.parents):
                return f"invalid reduction {outcome.parents}"
            if list(outcome.parents) != frozen:
                return f"parents {list(outcome.parents)}, frozen {frozen}"
            return None

        return check

    def _gicar_level(self, level):
        frozen = self.expected["gicar_parents"][str(level)]
        rows = self.gicar.matrix(level - 1).to_lists()

        def run():
            return self.reduction.minimal_reduce(self.gicar.matrix(level - 1))

        return Op(f"gicar-level-{level}", run, self._reduction_check(rows, frozen))

    def _dense(self, c):
        pool = self.expected["dense"][str(c)]
        index = self.rng.choice(sorted(pool, key=int))
        rows = dense_matrix(c, int(index))
        return Op(
            f"dense-{c}",
            lambda: self.reduction.minimal_reduce(rows),
            self._reduction_check(rows, pool[index]),
        )

    def _deadend(self, k):
        rows = deadend_matrix(self.rng, k)

        def check(maps):
            return None if maps == [] else f"{len(maps)} maps where none exist"

        return Op(f"deadend-{k}", lambda: self.reduction.enumerate_minimal_reductions(rows), check)

    def _tree_dump(self):
        ps = self.pathspace
        frozen = self.expected["tree_dump"]

        def run():
            return ps.format_tree_dump(ps.build_minimal_diagram(self.gicar, "theorem"), TREE_DEPTH)

        return Op(f"tree-dump-{TREE_DEPTH}", run, lambda dump: None if dump == frozen else "tree dump differs")


# ---------------------------------------------------------------------------
# k0-query

K0_DEPTHS = (8, 16, 32)
ALPHA_RANGE = 9


def k0_chains(depth):
    """Completed chains and trees the k0 queries read: (gicar, propersub)."""
    from brattice import corpus, k0, pathspace

    gicar = corpus.get("gicar").diagram()
    prop = corpus.get("propersub").diagram()
    return (
        (
            k0.complete_chain(gicar, k0.Auto(), depth),
            pathspace.build_minimal_diagram(gicar, "rightmost").ensure_depth(depth),
        ),
        (
            k0.complete_chain(prop, [k0.ExplicitColumn((0, 1))], depth),
            pathspace.build_minimal_diagram(prop, "theorem").ensure_depth(depth),
        ),
    )


class K0Query:
    """Queries against chains built once in set-up."""

    trace_rounds = 40
    kind_latency = min  # ops of 1 to 60 ms, about 240 rounds a run
    exercised = (
        "matops.inverse.calls",
        "matops.mat_mul.self_s",
        "matops.mat_vec.self_s",
        "pathspace.ancestor.calls",
        "config.depth_limit.calls",
        "diagram.matrix.calls",
        "k0.complete_matrix.calls",
        "k0.a_matrix.calls",
        "k0.u_matrix.self_s",
        "k0.r_map.self_s",
        "k0.to_R_basis.self_s",
        "k0.phi.self_s",
        "k0.membership.self_s",
    )

    def __init__(self, seed, expected, smoke=False):
        from brattice import k0, pathspace

        self.k0 = k0
        self.pathspace = pathspace
        self.depths = K0_DEPTHS[:1] if smoke else K0_DEPTHS
        depth = max(self.depths)
        self.gicar, self.prop = k0_chains(depth)
        frozen = expected["k0-query"]
        for name, (chain, _) in (("gicar", self.gicar), ("propersub", self.prop)):
            if list(chain.dets) != frozen[f"{name}_dets"][:depth]:
                raise ValueError(f"{name} chain determinants differ from the frozen ones")
        self.half = pathspace.LocallyConstantFunction(1, (0, Fraction(1, 2)))
        self.rng = random.Random(seed)

    def round(self, r):
        ops = []
        for n in self.depths:
            ops.append(self._round_trip("gicar", self.gicar, n))
            ops.append(self._round_trip("propersub", self.prop, n))
            ops.append(self._rejection(n))
        self.rng.shuffle(ops)
        return ops

    def _round_trip(self, name, realizer, n):
        """phi then membership: the witness must be alpha itself."""
        chain, tree = realizer
        alpha = tuple(self.rng.randint(-ALPHA_RANGE, ALPHA_RANGE) for _ in range(n + 1))
        k0 = self.k0

        def run():
            return k0.membership(k0.phi(alpha, chain, tree), chain, tree)

        def check(verdict):
            if isinstance(verdict, k0.K0Witness) and verdict.alpha == alpha and verdict.depth == n:
                return None
            return f"round trip of {alpha} gave {verdict}"

        return Op(f"{name}-roundtrip-{n}", run, check)

    def _rejection(self, n):
        """The refined (0, 1/2) function on propersub is never a member."""
        chain, tree = self.prop
        k0 = self.k0

        def run():
            return k0.membership(self.pathspace.refine(self.half, n, tree), chain, tree)

        def check(verdict):
            return None if verdict == k0.NotMember(n) else f"expected NotMember({n}), got {verdict}"

        return Op(f"propersub-reject-{n}", run, check)


# ---------------------------------------------------------------------------
# cli-verbs

CLI_VARIANTS = 12

QUICKSTART = (
    "pathspace corpus:gicar --strategy rightmost --compare alternating",
    "reduce corpus:threebranch --enumerate 3",
    "k0 member corpus:propersub --column 0,1 --func 'depth=1: 0 1/2'",
)
CORPUS_VERBS = (
    "validate corpus:threeline --depth 6",
    "telescope corpus:gicar --levels 0,2,5",
    "dilate corpus:threeline",
    "k0 phi corpus:gicar --alpha 1,2,3,4",
    "k0 positive corpus:dyadic --weight --func 'depth=2: 1/2 1/4 1'",
    "k0 probe corpus:dyadic --swap 1 2 --depth 3",
    "corpus",
)
# {d}: generated bdspec, {m}: bare (c+1) x c matrix, {x}: dead-end matrix
FILE_VERBS = (
    "validate {d}",
    "telescope {d} --levels 0,2,3",
    "dilate {d} --level 2",
    "reduce {d} --depth 6",
    "pathspace {d} --census",
    "k0 chain {d} --depth 4",
    "k0 phi {d} --alpha 1,2,3",
    "k0 member {d} --func 'depth=2: 1 0 1'",
    "k0 positive {d} --func 'depth=1: 2 1'",
    "k0 probe {d} --swap 1 2 --depth 2",
    "reduce {m}",
    "reduce {x} --enumerate 3",
)
# 25 ops in all, an odd count: op_p50_ms is one kind's mean latency
MEDIUM = (
    "reduce corpus:gicar --depth 24",
    "pathspace corpus:gicar --census --depth 24",
    "k0 chain corpus:gicar --depth 32",
)


def _positive_matrix(rng, r, c, lo, hi):
    """Random r x c entries in lo..hi with no zero row or column."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
        if all(any(row) for row in rows) and all(any(row[j] for row in rows) for j in range(c)):
            return rows


def _text(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def variant_files(v):
    """Generated inputs of cli variant v: {placeholder: (relative path, text)}."""
    rng = random.Random(f"cli-{v}")
    spec = "bdspec v1\nshape: type2\n"
    for n in range(3):
        spec += f"matrix {n}:\n" + _text(_positive_matrix(rng, n + 2, n + 1, 1 if n == 0 else 0, 2))
    spec += "tail: family gicar\n"
    texts = {
        "d": ("d.bd", spec),
        "m": ("m.txt", _text(_positive_matrix(rng, 6, 5, 0, 3))),
        "x": ("x.txt", _text(deadend_matrix(rng, 12))),
    }
    return {key: (f"{WORK.name}/v{v}/{name}", text) for key, (name, text) in texts.items()}


def write_variants():
    for v in range(CLI_VARIANTS):
        for path, text in variant_files(v).values():
            target = ROOT / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")


def cli_ops(v, smoke=False):
    """(template, text) of each op of one round on variant v; paths in the
    texts are relative to the checkout."""
    paths = {key: path for key, (path, _) in variant_files(v).items()}
    templates = QUICKSTART + CORPUS_VERBS + FILE_VERBS + (() if smoke else MEDIUM)
    return [(t, t.format(**paths)) for t in templates]


class CliVerbs:
    """One `python -m brattice.cli` child per op, start-up included.

    `command` turns CLI arguments into the child's argv; the traced run
    passes one that starts the CLI under the tracer, and `after` then
    collects each child's trace.
    """

    trace_rounds = 1
    # 5 to 7 rounds a run and ops of up to 1.5 s, longer than the host's
    # fast stretches: the fastest of so few is luck, the mean is steadier
    kind_latency = statistics.fmean
    exercised = (
        "cli.main.self_s",
        "corpus.verify.self_s",
        "matops.rank.calls",
        "reduction.minimal_reduce.calls",
        "reduction.enumerate.calls",
        "pathspace.end_census.self_s",
        "k0.complete_matrix.calls",
        "diagram.matrix.calls",
    )

    def __init__(self, seed, expected, smoke=False, command=cli_command, after=None):
        write_variants()
        self.expected = expected["cli-verbs"]
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.command = command
        self.after = after
        self.env = child_env()

    def round(self, r):
        ops = [self._op(*op) for op in cli_ops(self.rng.randrange(CLI_VARIANTS), self.smoke)]
        self.rng.shuffle(ops)
        return ops

    def _op(self, template, text):
        want = self.expected[text]

        def run():
            proc = subprocess.run(
                self.command(shlex.split(text)), cwd=ROOT, env=self.env, capture_output=True
            )
            if self.after:
                self.after()
            return proc

        def check(proc):
            if proc.returncode != want["rc"]:
                return f"{text!r} exited {proc.returncode}, frozen {want['rc']}"
            if proc.stdout != want["stdout"].encode("utf-8"):
                return f"{text!r} stdout differs from the frozen run"
            return None

        return Op(template, run, check)


WORKLOADS = {"reduce-tree": ReduceTree, "k0-query": K0Query, "cli-verbs": CliVerbs}
