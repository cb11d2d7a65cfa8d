"""One workload in one process: set up, run whole rounds, print a result.

    python bench/runner.py --workload NAME --seed N (--seconds S | --rounds R)
                           [--setup-samples K] [--setup-only] [--trace] [--smoke]

run.py starts it with the pinned child environment.  It runs rounds until
S seconds of wall time have passed (finishing the round in progress), or
exactly R rounds, and prints one JSON line: per-op latencies by op kind,
the rounds run, failed ops, peak resident set, the wall seconds of K
set-up processes spread evenly between the ops, and with --trace the span
totals.
One client, closed loop: each op starts when the previous one returned.
A failed check, an exception or an op over the timeout counts as a
failure and the run goes on.
"""

import argparse
import json
import resource
import signal
import subprocess
import sys
import time

from common import BENCH, EXPECTED, OP_TIMEOUT_S, ROOT, WORK
from workloads import WORKLOADS, CliVerbs

CLI_TRACE = WORK / "cli-trace.json"


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op ran past {OP_TIMEOUT_S} s")


def make_workload(args, expected, tracer):
    cls = WORKLOADS[args.workload]
    if cls is not CliVerbs or tracer is None:
        return cls(args.seed, expected, args.smoke)

    def command(argv):
        return [sys.executable, str(BENCH / "clitrace.py"), str(CLI_TRACE), *argv]

    def collect():
        tracer.merge(json.loads(CLI_TRACE.read_text()))
        CLI_TRACE.unlink()

    return CliVerbs(args.seed, expected, args.smoke, command, collect)


def setup_argv(args):
    """A process that starts, sets up exactly as a run does, and exits.

    For cli-verbs that is the start-up every invocation repeats.
    """
    if args.workload == "cli-verbs":
        return [sys.executable, "-c", "import brattice.cli"]
    return [sys.executable, str(BENCH / "runner.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", *(["--smoke"] if args.smoke else [])]


class SetUps:
    """Set-up processes timed between the ops, spread evenly through the run.

    Samples taken at one moment would all see the host in one state; spread
    out, their median is the run's typical set-up time.
    """

    def __init__(self, argv, samples):
        self.argv = argv
        self.samples = samples
        self.taken = 0
        self.seconds = []
        self.failures = []

    def due(self, progress):
        """Run the samples due once `progress` (0 to 1) of the run is done;
        return the wall seconds they took."""
        start = time.perf_counter()
        while self.taken < self.samples and (self.taken + 0.5) / self.samples <= progress:
            self.taken += 1
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.failures.append(f"set-up ran past {OP_TIMEOUT_S} s")
                continue
            if proc.returncode == 0:
                self.seconds.append(time.perf_counter() - t0)
            else:
                self.failures.append(f"set-up exited {proc.returncode}")
        return time.perf_counter() - start


def run_rounds(workload, seconds, rounds, setups):
    """Latencies of every op by op kind, the rounds run, the failure messages.
    Time spent in `setups` does not count against `seconds`."""
    latencies_ns = {}
    failures = []
    done = 0
    start = time.perf_counter()
    paused = 0.0

    def run_time():
        return time.perf_counter() - start - paused

    while (done < rounds) if rounds else (done == 0 or run_time() < seconds):
        for op in workload.round(done):
            paused += setups.due(done / rounds if rounds else run_time() / seconds)
            signal.alarm(OP_TIMEOUT_S)
            t0 = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                error = None
            finally:
                elapsed = time.perf_counter_ns() - t0
                signal.alarm(0)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            latencies_ns.setdefault(op.kind, []).append(elapsed)
            if error is not None:
                failures.append(f"{op.kind}: {error}")
        done += 1
    setups.due(1.0)
    return latencies_ns, done, failures


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-verbs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        if args.workload != "cli-verbs":
            tracer.install()
    workload = make_workload(args, expected, tracer)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    setups = SetUps(setup_argv(args), args.setup_samples)
    latencies_ns, rounds, failures = run_rounds(workload, args.seconds, args.rounds, setups)
    result = {
        "latencies_ns": latencies_ns,
        "rounds": rounds,
        "failed": len(failures),
        "failures": failures[:20],
        "setup_s": setups.seconds,
        "setup_failures": setups.failures,
        "peak_rss_mb": peak_rss_mb(args.workload),
        "trace": tracer.raw() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
