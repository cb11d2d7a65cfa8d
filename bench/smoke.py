"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its smallest size (run.py --smoke), with tracing off
and on, and checks that the last line of output parses, that every op's
check passed, that every metric BENCHMARK.json names is present with its
unit, and that the traced run exercised every layer its workload should.
Then checks that run.py refuses to run, without printing a result, in a
directory that holds the benchmark but no sources.  No timing thresholds.
Exits 1 if anything is wrong.
"""

import json
import shutil
import subprocess
import sys

from common import BENCH, ROOT, WORK
from workloads import WORKLOADS


def run_bench(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def problems_of(proc, wanted, trace):
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("run not correct: " + "; ".join(ln for ln in lines if ln.startswith("failure")))
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    if trace and metrics.get("trace.unexercised", {}).get("value"):
        problems.append("; ".join(ln for ln in lines if ln.startswith("unexercised")))
    return problems


def refuses_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "reduce-tree", 0)
    shutil.rmtree(bare)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems = problems_of(run_bench(ROOT, workload, trace), wanted, trace)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failed |= bool(problems)
    refused = refuses_without_sources()
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without src/")
    return 1 if failed or not refused else 0


if __name__ == "__main__":
    sys.exit(main())
