#!/usr/bin/env bash
# Compares the plans two builds of the compiler driver emit for the same
# inputs, and what those plans do when run: the check for refactors that
# must not move a plan or a measured count.
#
# Every docs/examples/*.hpf program is compiled at each budget in BUDGETS
# with --dump-plan --dump-verify under each option set in OPTION_SETS, plus
# one --dump-search run per program and budget, so a refactor shows that
# neither the plans nor the verifier's verdicts and replay statistics
# moved. Each program is also run (--run --verify) at each budget under
# each option set in RUN_SETS, so the simulated time, LAF and message
# counts, slab-cache counters, priced and measured traffic and the result
# check must match too; only the host-time fields (the "; wall: ..." tail
# of the "simulated time:" line and the "async io:" line) are dropped.
# Over the six examples (gaxpy_uneven.hpf is GAXPY under an uneven BLOCK
# distribution; scaled_cyclic.hpf sets its statements' scalar and its
# BLOCK-CYCLIC block by PARAMETER) that is 540 runs per binary. Each run's
# stdout, stderr and exit status are captured from both binaries; every run
# whose capture differs is printed as a `diff -u` (old first).
#
# Usage: tools/plan_diff.sh <old oocc_compile> <new oocc_compile>
#
# Exits 0 when every run matches, 1 when any differs, 2 on bad usage.
set -euo pipefail

if [ $# -ne 2 ]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
OLD="$1"
NEW="$2"
for bin in "$OLD" "$NEW"; do
  if [ ! -x "$bin" ]; then
    echo "plan_diff.sh: $bin is not an executable" >&2
    exit 2
  fi
done

cd "$(dirname "$0")/.."

BUDGETS=(512 1024 2048 2176 4096 16384)
OPTION_SETS=(
  ""
  "--prefetch"
  "--prefetch=auto"
  "--equal-split"
  "--no-access-reorg"
  "--no-storage-reorg"
  "--no-fuse"
  "--opt=search"
  "--opt=search --prefetch=auto"
)
RUN_SETS=(
  ""
  "--no-cache"
  "--prefetch"
  "--no-fuse"
  "--opt=search"
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# capture <binary> <output file> <args...>: stdout without its host-time
# fields, then stderr, then the exit status, in one file.
capture() {
  local bin="$1" out="$2"
  shift 2
  local status=0
  "$bin" "$@" >"$out.stdout" 2>"$out.stderr" || status=$?
  {
    echo "--- stdout"
    sed -e 's/^\(simulated time: .*\); wall: .*$/\1/' -e '/^async io: /d' \
      "$out.stdout"
    echo "--- stderr"
    cat "$out.stderr"
    echo "--- exit $status"
  } >"$out"
  rm -f "$out.stdout" "$out.stderr"
}

runs=0
differing=0
compare() {
  runs=$((runs + 1))
  capture "$OLD" "$WORK/old" "$@"
  capture "$NEW" "$WORK/new" "$@"
  if ! cmp -s "$WORK/old" "$WORK/new"; then
    differing=$((differing + 1))
    echo "=== oocc_compile $*"
    diff -u --label old --label new "$WORK/old" "$WORK/new" || true
  fi
}

for program in docs/examples/*.hpf; do
  for budget in "${BUDGETS[@]}"; do
    for opts in "${OPTION_SETS[@]}"; do
      # Word splitting of $opts is intended: each set is a flag list.
      # shellcheck disable=SC2086
      compare "$program" --memory "$budget" --dump-plan --dump-verify $opts
    done
    compare "$program" --memory "$budget" --dump-search
    for opts in "${RUN_SETS[@]}"; do
      # shellcheck disable=SC2086
      compare "$program" --memory "$budget" --run --verify $opts
    done
  done
done

echo "plan_diff.sh: $differing of $runs runs differ"
[ "$differing" -eq 0 ]
