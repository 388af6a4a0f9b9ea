#!/usr/bin/env bash
# Fault soak: runs the fault-tolerant Jacobi driver across a matrix of
# deterministic fault schedules and asserts every run either completes
# BIT-IDENTICAL to the serial reference or fails with a structured
# `error:` diagnostic — never hangs, never prints WRONG.
#
# Usage: tools/soak.sh [-o results.json] [-b oocc_compile-path] [-t secs]
#
#   -o FILE   machine-readable results JSON (default: SOAK_results.json)
#   -b BIN    driver binary (default: $OOCC_COMPILE_BIN, then
#             ./build/tools/oocc_compile)
#   -t SECS   per-run timeout (default: 120)
#
# The schedule matrix is fixed (seeded p-mode plans plus deterministic
# nth/crash plans at every injection site), so CI runs are reproducible;
# per-run fault/retry/recovery/restart counters land in the JSON.
set -euo pipefail

OUT="SOAK_results.json"
BIN="${OOCC_COMPILE_BIN:-}"
TIMEOUT_S=120

while getopts "o:b:t:h" opt; do
  case "$opt" in
    o) OUT="$OPTARG" ;;
    b) BIN="$OPTARG" ;;
    t) TIMEOUT_S="$OPTARG" ;;
    h) sed -n '2,17p' "$0"; exit 0 ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

if [ -z "$BIN" ]; then
  BIN="./build/tools/oocc_compile"
fi
if [ ! -x "$BIN" ]; then
  echo "soak.sh: driver binary not found at $BIN (build first, or pass -b)" >&2
  exit 1
fi

# Fixed schedule matrix. Three groups:
#   - recoverable: transient faults masked by retry, crashes and budget
#     failures recovered via the write-back journal + checkpoint/restart;
#     the run MUST exit 0 and print BIT-IDENTICAL.
#   - fatal: permanent faults past the retry/restart budget; the run MUST
#     exit non-zero with a structured `error:` line (and never WRONG).
#   - the seed sweep: probabilistic plans over a seed matrix, recoverable
#     by construction (transient kinds only).
RECOVERABLE=(
  "read:nth=1"
  "read:nth=7"
  "write:nth=5"
  "write:nth=11"
  "collective:nth=2,rank=1"
  "collective:nth=9,rank=3"
  "budget:nth=1"
  "crash:at=shadow,rank=0,nth=2"
  "crash:at=apply,rank=0,nth=2"
  "crash:at=apply,rank=0,nth=8"
  "crash:at=apply,rank=2,nth=5;read:nth=3"
)
# Fatal plans must keep firing across restart attempts (p-mode); a bare
# nth spec is consumed by its first injection and recovers via restart.
FATAL=(
  "read:p=1.0,seed=1,kind=permanent"
  "collective:p=1.0,seed=2,rank=0,kind=permanent"
)
SEEDS=(1 2 3 5 8 13 21 34)
for seed in "${SEEDS[@]}"; do
  RECOVERABLE+=("read:p=0.02,seed=$seed;write:p=0.02,seed=$((seed + 100))")
  RECOVERABLE+=("collective:p=0.01,seed=$seed;crash:at=apply,rank=$((seed % 4)),nth=$((seed % 7 + 2))")
done
# Recoverable plans run with a checkpoint every 3 sweeps instead of 2. The
# checkpoint flush cleans every slab, so at every 2 sweeps the target half
# a sweep drops is always clean; at every 3, sweep 3 drops the slabs sweep 1
# left dirty, and these crashes and transient faults land around that drop.
RECOVERABLE_CKPT3=(
  "crash:at=shadow,rank=0,nth=2"
  "crash:at=apply,rank=1,nth=4"
  "crash:at=apply,rank=3,nth=9"
  "read:p=0.02,seed=55;write:p=0.02,seed=155"
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

run_one() {
  # run_one <index> <expect: recover|fail> <plan> [checkpoint interval]
  local idx="$1" expect="$2" plan="$3" every="${4:-2}"
  local out="$WORK/run$idx.out" rc=0
  timeout "$TIMEOUT_S" "$BIN" --stencil=48,4 --memory 1024 --iters 6 \
    --checkpoint-every "$every" --restarts 10 --faults="$plan" --run \
    --verify > "$out" 2>&1 || rc=$?
  local verdict="fail"
  if [ "$rc" -eq 124 ]; then
    verdict="hang"
  elif grep -q "WRONG" "$out"; then
    verdict="corrupt"
  elif [ "$rc" -eq 0 ] && grep -q "BIT-IDENTICAL" "$out"; then
    verdict="identical"
  elif [ "$rc" -ne 0 ] && grep -q "^error:" "$out"; then
    verdict="structured-error"
  fi
  local ok=0
  case "$expect:$verdict" in
    recover:identical | fail:structured-error) ok=1 ;;
  esac
  local counters
  counters="$(grep "^fault tolerance:" "$out" | tail -1 || true)"
  printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' \
    "$idx" "$ok" "$rc" "$expect" "$verdict" "$every" "$counters" \
    >> "$WORK/results.tsv"
  printf '%s\n' "$plan" > "$WORK/run$idx.plan"
  if [ "$ok" -ne 1 ]; then
    echo "soak.sh: FAIL [$expect -> $verdict, rc=$rc] plan: $plan" \
      "(checkpoint every $every)" >&2
    tail -5 "$out" >&2 || true
  else
    echo "soak.sh: ok [$verdict] plan: $plan (checkpoint every $every)" >&2
  fi
}

: > "$WORK/results.tsv"
i=0
for plan in "${RECOVERABLE[@]}"; do
  run_one "$i" recover "$plan"
  i=$((i + 1))
done
for plan in "${FATAL[@]}"; do
  run_one "$i" fail "$plan"
  i=$((i + 1))
done
for plan in "${RECOVERABLE_CKPT3[@]}"; do
  run_one "$i" recover "$plan" 3
  i=$((i + 1))
done

python3 - "$WORK" "$OUT" <<'PYEOF'
"""Fold the per-run soak results into SOAK_results.json."""
import json
import os
import re
import sys
import time

work, out_path = sys.argv[1], sys.argv[2]
counter_re = re.compile(
    r"fault tolerance: injected (\d+) transient / (\d+) permanent / "
    r"(\d+) crash; (\d+) retries, (\d+) recoveries, (\d+) restarts")

runs = []
with open(os.path.join(work, "results.tsv")) as f:
    for line in f:
        idx, ok, rc, expect, verdict, every, counters = (
            line.rstrip("\n").split("\t"))
        plan = open(os.path.join(work, f"run{idx}.plan")).read().strip()
        entry = {
            "plan": plan,
            "checkpoint_every": int(every),
            "expect": expect,
            "verdict": verdict,
            "exit_code": int(rc),
            "ok": ok == "1",
        }
        m = counter_re.search(counters)
        if m:
            keys = ("transient_injected", "permanent_injected",
                    "crashes_injected", "retries", "recoveries", "restarts")
            entry["counters"] = dict(zip(keys, map(int, m.groups())))
        runs.append(entry)

ok = sum(1 for r in runs if r["ok"])
doc = {
    "schema": "oocc-soak-results/v1",
    "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "total": len(runs),
    "passed": ok,
    "hangs": sum(1 for r in runs if r["verdict"] == "hang"),
    "corruptions": sum(1 for r in runs if r["verdict"] == "corrupt"),
    "runs": runs,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"soak.sh: {ok}/{len(runs)} fault schedules ok -> {out_path}",
      file=sys.stderr)
sys.exit(0 if ok == len(runs) else 1)
PYEOF
