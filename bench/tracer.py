"""Per-layer spans and counters for the traced run, wrapped around calls
into brattice from outside the library.

Wrappers are bound where callers look names up:

- a module-level function is replaced in every loaded brattice module that
  holds the same function object, which covers the defining module
  (`matops.rank`, called as an attribute) and every `from`-import of it
  (`pathspace.minimal_reduce`, the names `cli` and `corpus` import);
- a method is replaced on its class (`MinimalDiagram.ancestor`).

A span's self time is its duration minus the time spent in the spans it
encloses (and in their bookkeeping).  Functions called too often to time,
such as `config.depth_limit`, are only counted; their cost stays in the
caller's self time.
"""

import functools
import importlib
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute, span name)
FUNCTIONS = (
    ("brattice.matops", "rank", "matops.rank"),
    ("brattice.matops", "det", "matops.det"),
    ("brattice.matops", "inverse", "matops.inverse"),
    ("brattice.matops", "mat_mul", "matops.mat_mul"),
    ("brattice.matops", "mat_vec", "matops.mat_vec"),
    ("brattice.reduction", "minimal_reduce", "reduction.minimal_reduce"),
    ("brattice.reduction", "pivot_row", "reduction.pivot_row"),
    ("brattice.reduction", "enumerate_minimal_reductions", "reduction.enumerate"),
    ("brattice.pathspace", "end_census", "pathspace.end_census"),
    ("brattice.k0", "complete_matrix", "k0.complete_matrix"),
    ("brattice.k0", "r_map", "k0.r_map"),
    ("brattice.k0", "to_R_basis", "k0.to_R_basis"),
    ("brattice.k0", "phi", "k0.phi"),
    ("brattice.k0", "membership", "k0.membership"),
    ("brattice.corpus", "verify", "corpus.verify"),
    ("brattice.cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("brattice.pathspace", "MinimalDiagram", "ancestor", "pathspace.ancestor"),
    ("brattice.pathspace", "MinimalDiagram", "ensure_depth", "pathspace.ensure_depth"),
    ("brattice.diagram", "BratteliDiagram", "matrix", "diagram.matrix"),
    ("brattice.k0", "CompletedChain", "a_matrix", "k0.a_matrix"),
    ("brattice.k0", "CompletedChain", "u_matrix", "k0.u_matrix"),
)

# counted, not timed: (module, class or None, attribute, counter name)
COUNTED = (
    ("brattice.config", None, "depth_limit", "config.depth_limit"),
    ("brattice.pathspace", "MinimalDiagram", "_materialize_next", "pathspace.levels_materialized"),
)

# span -> enclosing span whose calls it is also counted under
NESTED = {
    "matops.rank": "reduction.minimal_reduce",
    "matops.det": "k0.complete_matrix",
    "matops.inverse": "k0.a_matrix",
}


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return max((_bits(y) for y in x), default=0)


def _spans_only_when_deepening(tree, n, *rest):
    # a no-op ensure_depth stays in its caller's self time
    return n > tree.depth


class Tracer:
    """Span and counter totals for one process, mergeable across processes."""

    def __init__(self, raw=None):
        raw = raw or {}
        self.calls = Counter(raw.get("calls", {}))
        self.self_ns = Counter(raw.get("self_ns", {}))
        self.maxima = Counter(raw.get("maxima", {}))
        self._active = Counter()
        self._stack = []
        self._bits_seen = set()

    def raw(self):
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns), "maxima": dict(self.maxima)}

    def merge(self, raw):
        self.calls.update(raw["calls"])
        self.self_ns.update(raw["self_ns"])
        for key, value in raw["maxima"].items():
            self._record_max(key, value)

    # -- installation

    def install(self):
        importlib.import_module("brattice.cli")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "brattice"]

        def rebind(original, wrapper):
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)

        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            rebind(original, self._span(name, original))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            when = _spans_only_when_deepening if attr == "ensure_depth" else None
            setattr(cls, attr, self._span(name, cls.__dict__[attr], when))
        for module, cls_name, attr, name in COUNTED:
            if cls_name is None:
                original = getattr(sys.modules[module], attr)
                rebind(original, self._count(name, original))
            else:
                cls = getattr(sys.modules[module], cls_name)
                setattr(cls, attr, self._count(name, cls.__dict__[attr]))

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, when=None):
        stack, calls, self_ns, active = self._stack, self.calls, self.self_ns, self._active
        under = NESTED.get(name)
        after = self._after(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                active[name] -= 1
                self_ns[name] += t1 - t0 - frame[0]
                calls[name] += 1
                if under and active[under]:
                    calls[f"{name}@{under}"] += 1
                if stack:
                    stack[-1][0] += t1 - t0
            if after is not None:
                t2 = perf_counter_ns()
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter_ns() - t2
            return result

        return traced

    # -- bookkeeping after a call, excluded from every self time

    def _record_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _after(self, name):
        def dims(args, result):
            self._record_max("matops.max_dim", len(args[0]))

        def matops_bits(args, result):
            self._record_max("matops.max_entry_bits", _bits(result))

        def k0_bits(values):
            self._record_max("k0.max_entry_bits", _bits(values))

        def k0_cached_bits(args, result):
            if id(result) not in self._bits_seen:
                self._bits_seen.add(id(result))
                k0_bits(result)

        def results(args, maps):
            self.calls["reduction.enumerate.results"] += len(maps)

        def witness(args, verdict):
            k0_bits(getattr(verdict, "alpha", ()))

        hooks = {
            "matops.rank": dims,
            "matops.det": lambda a, r: (dims(a, r), matops_bits(a, r)),
            "matops.inverse": lambda a, r: (dims(a, r), matops_bits(a, r)),
            "matops.mat_mul": matops_bits,
            "matops.mat_vec": matops_bits,
            "reduction.enumerate": results,
            "k0.complete_matrix": lambda a, r: k0_bits(r),
            "k0.a_matrix": k0_cached_bits,
            "k0.u_matrix": k0_cached_bits,
            "k0.phi": lambda a, r: k0_bits(r.values),
            "k0.membership": witness,
        }
        return hooks.get(name)

    # -- per-layer metrics

    def metrics(self):
        calls, maxima = self.calls, self.maxima

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in [n for _, _, n in FUNCTIONS] + [n for _, _, _, n in METHODS]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(
            {
                "matops.max_dim": maxima["matops.max_dim"],
                "matops.max_entry_bits": maxima["matops.max_entry_bits"],
                "reduction.rank_per_reduce": ratio(
                    calls["matops.rank@reduction.minimal_reduce"], calls["reduction.minimal_reduce"]
                ),
                "reduction.enumerate.results": calls["reduction.enumerate.results"],
                "pathspace.levels_materialized": calls["pathspace.levels_materialized"],
                "config.depth_limit.calls": calls["config.depth_limit"],
                "k0.det_per_completion": ratio(
                    calls["matops.det@k0.complete_matrix"], calls["k0.complete_matrix"]
                ),
                "k0.a_matrix.hit_ratio": ratio(
                    calls["k0.a_matrix"] - calls["matops.inverse@k0.a_matrix"], calls["k0.a_matrix"]
                ),
                "k0.max_entry_bits": maxima["k0.max_entry_bits"],
            }
        )
        return out
