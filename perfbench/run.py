#!/usr/bin/env python3
"""Build and run the oocc benchmark.

One measurement (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (and the oocc library beside it) as a Release build under
$CARGO_TARGET_DIR or .bench_build/, runs one workload and prints its
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The determinism guard runs workloads repeatedly under different seeds,
reports the spread of every end-to-end metric and fails if a count that
must not depend on timing or input values drifts:

    python3 perfbench/run.py --guard [--runs 3] [--seconds 10] [--workload <name> ...]

README.md next to this file documents every metric and workload.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "oocc_perfbench"
RUN_TIMEOUT_S = 160

# Counts the program must reproduce exactly on every run and seed.
DETERMINISTIC = [
    "sim_makespan_s",
    "io.read_requests", "io.write_requests", "io.read_mb", "io.write_mb",
    "runtime.pool_hits", "runtime.pool_misses", "runtime.pool_hit_ratio",
    "runtime.pool_evictions", "runtime.pool_writebacks", "runtime.pool_mb_avoided",
    "sim.messages", "compiler.verify_events", "compiler.search_priced",
    "serve.hit_ratio",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(env):
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_root() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", BINARY, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            sys.exit(1)
        if done.returncode != 0:
            if "-S" in cmd:  # a failed configure must not look configured
                shutil.rmtree(out, ignore_errors=True)
            log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
            sys.exit(1)
    return out / BINARY


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(binary, env, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (output lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited {done.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    differ = metric_names(trace) ^ set(result["metrics"])
    if differ:
        log(f"perfbench: metrics differ from BENCHMARK.json: {sorted(differ)}")
        sys.exit(1)
    return lines, result


def guard(binary, env, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = {False: [], True: []}
        for trace in (False, True):
            for seed in range(1, args.runs + 1):
                _, result = measure(binary, env, workload, seed, args.seconds, trace)
                runs[trace].append(result)
                ok = ok and result["correct"]
        print(f"== {workload}: {args.runs} untraced + {args.runs} traced runs")
        failed = sum(r["failed"] for r in runs[False] + runs[True])
        attempted = sum(r["attempted"] for r in runs[False] + runs[True])
        print(f"   fail_rate {failed}/{attempted}")
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in runs[False]]
            med = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / abs(med)
            print(f"   {name:16s} median {med:<14.6g} spread {spread:6.3f}"
                  f"  (bound {bounds[name]})")
        for name in DETERMINISTIC:
            source = runs[name not in bounds]
            values = {r["metrics"][name]["value"] for r in source}
            if len(values) != 1:
                print(f"   DRIFT {name}: {sorted(values)}")
                ok = False
    print("determinism guard:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--guard", action="store_true")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    if not args.guard and (not args.workload or len(args.workload) != 1):
        parser.error("one --workload is required")

    # Every file the build and the runs create stays under the build root.
    tmp = build_root() / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(env)
    if args.guard:
        return guard(binary, env, args)
    lines, _ = measure(binary, env, args.workload[0], args.seed, args.seconds,
                       bool(args.trace))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
