"""Benchmark entry point: one workload, one seed, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it measures the sources in that
checkout's src/.  --trace 0 gives the end-to-end metrics with tracing off.
--trace 1 gives the per-layer metrics: the same rounds run once untraced
and once traced, and the difference in op time is the tracing overhead.
Every op's answer is checked exactly in both modes.  --smoke runs one
round of the smallest sizes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

from common import BENCH, ROOT, SRC, child_env, percentile, source_identity, tail_percentile
from workloads import WORKLOADS

SETUP_SAMPLES = 7
BUDGET_S = 170


class Run:
    """The child processes of one benchmark run, under one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env()
        self.failures = []

    def child(self, argv):
        """Wall seconds and stdout of a child that exited 0, else None."""
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{argv[1:]} ran out of time")
            return None
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.failures.append(f"{argv[1:]} exited {proc.returncode}: {tail[0]}")
            return None
        return elapsed, proc.stdout

    def seconds_of(self, argv, samples):
        got = [self.child(argv) for _ in range(samples)]
        return [g[0] for g in got if g]

    def runner(self, *extra):
        args = self.args
        argv = [
            sys.executable,
            str(BENCH / "runner.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            *(["--smoke"] if args.smoke else []),
            *extra,
        ]
        got = self.child(argv)
        return json.loads(got[1].splitlines()[-1]) if got else None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **source_identity(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def flat(result):
    return [ns for samples in result["latencies_ns"].values() for ns in samples]


def end_to_end(run):
    """Metrics with tracing off, plus notes for the report."""
    length = ["--rounds", "1"] if run.args.smoke else ["--seconds", str(run.args.seconds)]
    result = run.runner(*length, "--setup-samples", str(SETUP_SAMPLES))
    if result is None:
        return {}, 0, 0, []
    setup = result["setup_s"]
    run.failures += result["setup_failures"]
    lat_ms = [ns / 1e6 for ns in flat(result)]
    n, failed = len(lat_ms), result["failed"]
    # The shared host runs whole stretches of a run up to 1.7 times slower,
    # so percentiles over every op move with the share of the run that was
    # slow.  Every round runs each op kind once; the latency metrics describe
    # a summary round, each kind at its workload's kind_latency of the run.
    stat = WORKLOADS[run.args.workload].kind_latency
    round_ms = sorted(stat(samples) / 1e6 for samples in result["latencies_ns"].values())
    kinds = len(round_ms)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "verdicts_per_s": kinds / (sum(round_ms) / 1e3) * (n - failed) / n,
        "op_p50_ms": statistics.median(round_ms),
        "op_tail_ms": round_ms[-1],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    tail_p = tail_percentile(n)
    notes = [
        f"setup_s: median of {len(setup)} set-ups spread evenly between the ops",
        f"summary round: {kinds} op kinds, each at its {stat.__name__} latency of {result['rounds']} rounds "
        f"({n} samples), take {sum(round_ms):.3f} ms",
        f"verdicts_per_s: all {n - failed} checked ops took {sum(lat_ms) / 1e3:.3f} s",
        f"op_p50_ms: median of the summary round; p50 of all {n} samples {percentile(lat_ms, 50):.3f} ms",
        f"op_tail_ms: slowest op kind of the summary round; p{tail_p} of all {n} samples "
        f"{percentile(lat_ms, tail_p):.3f} ms",
        *(f"failure: {f}" for f in result["failures"]),
    ]
    return metrics, n, failed, notes


def per_layer(run):
    """Per-layer metrics from a traced run, plus notes for the report."""
    from tracer import Tracer

    cls = WORKLOADS[run.args.workload]
    rounds = str(1 if run.args.smoke else cls.trace_rounds)
    plain = run.runner("--rounds", rounds)
    traced = run.runner("--rounds", rounds, "--trace")
    interp = run.seconds_of([sys.executable, "-c", "pass"], SETUP_SAMPLES)
    imports = run.seconds_of([sys.executable, "-c", "import brattice.cli"], SETUP_SAMPLES)
    if plain is None or traced is None or not interp or not imports:
        return {}, 0, 0, []
    metrics = Tracer(traced["trace"]).metrics()
    traced_s = sum(flat(traced)) / 1e9
    plain_s = sum(flat(plain)) / 1e9
    attempted = len(flat(plain)) + len(flat(traced))
    failed = plain["failed"] + traced["failed"]
    metrics.update(
        {
            "cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports) - statistics.median(interp),
            "fail_ratio": failed / attempted,
            "trace.op_s": traced_s,
            "trace.overhead_s": traced_s - plain_s,
        }
    )
    unexercised = [name for name in cls.exercised if not metrics[name]]
    metrics["trace.unexercised"] = len(unexercised)
    notes = [
        f"rounds: {rounds} untraced ({plain_s:.3f} s op time), then {rounds} traced ({traced_s:.3f} s)",
        *(f"unexercised: {name} is 0 on {run.args.workload}" for name in unexercised),
        *(f"failure: {f}" for f in plain["failures"] + traced["failures"]),
    ]
    return metrics, attempted, failed, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of the smallest sizes")
    args = parser.parse_args()
    if not (SRC / "brattice" / "__init__.py").is_file():
        print(f"error: no brattice sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("meta: " + json.dumps(metadata(args)))
    run = Run(args)
    metrics, attempted, failed, notes = (per_layer if args.trace else end_to_end)(run)
    attempted += len(run.failures)
    failed += len(run.failures)
    if not args.trace:
        notes.append(f"fail_ratio: {failed / max(attempted, 1)} ratio ({failed} of {attempted} ops)")
    for m in wanted:
        print(f"{m['name']:32s} {metrics.get(m['name'], 0):>16.6g} {m['unit']}")
    for line in notes + [f"failure: {f}" for f in run.failures]:
        print(line)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if metrics else max(failed, 1),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
