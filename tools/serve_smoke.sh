#!/usr/bin/env bash
# End-to-end smoke of the compile server (CI's serve-smoke job).
#
# Starts oocc_serve on a private Unix socket, drives it with a
# multi-tenant oocc_client matrix, and asserts:
#   * every response ok, bit-identical result hashes across tenants/reps
#     (the client exits nonzero on divergence);
#   * >= 90% cache hit rate on the repeat workload (--min-hit-rate 0.9);
#   * two programs that differ only in a PARAMETER value, run through one
#     daemon in either order, each get their own result: the hash
#     oocc_compile --run --result-hash prints for that file;
#   * the daemon shuts down cleanly on op=shutdown (exit 0, socket gone).
#
# Usage: tools/serve_smoke.sh [-b build/tools]
#
#   -b DIR   directory holding oocc_serve, oocc_client and oocc_compile
#            (default: build/tools)
set -euo pipefail

BIN_DIR="build/tools"
while getopts "b:h" opt; do
  case "$opt" in
    b) BIN_DIR="$OPTARG" ;;
    h) sed -n '2,17p' "$0"; exit 0 ;;
    *) exit 2 ;;
  esac
done

SERVE="$BIN_DIR/oocc_serve"
CLIENT="$BIN_DIR/oocc_client"
COMPILE="$BIN_DIR/oocc_compile"
EXAMPLE="$(dirname "$0")/../docs/examples/scaled_cyclic.hpf"
for bin in "$SERVE" "$CLIENT" "$COMPILE"; do
  if [ ! -x "$bin" ]; then
    echo "serve_smoke.sh: missing binary $bin (build oocc_serve oocc_client oocc_compile first)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SOCK="$WORK/serve.sock"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$SERVE" --socket "$SOCK" --budget $((1 << 14)) --work-root "$WORK/laf" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "serve_smoke.sh: daemon never opened $SOCK" >&2;
                    cat "$WORK/serve.log" >&2; exit 1; }

echo "== compile matrix: repeat workload must be >= 90% cache hits" >&2
"$CLIENT" --socket "$SOCK" --op compile --builtin gaxpy --n 64 --p 4 \
  --tenants 2 --reps 10 --min-hit-rate 0.9 --quiet
"$CLIENT" --socket "$SOCK" --op compile --builtin stencil --n 48 --p 2 \
  --tenants 2 --reps 10 --min-hit-rate 0.9 --quiet

echo "== run matrix: 3 tenants x 4 reps, shared budget, bit-identity" >&2
"$CLIENT" --socket "$SOCK" --op run --builtin stencil --n 64 --p 2 \
  --memory 1024 --iters 4 --tenants 3 --reps 4 --min-hit-rate 0.9 --quiet
"$CLIENT" --socket "$SOCK" --op run --builtin gaxpy --n 24 --p 3 \
  --memory 512 --tenants 2 --reps 3 --quiet

echo "== PARAMETER values key apart: each program gets its own result" >&2
sed 's/alpha=3/alpha=4/' "$EXAMPLE" > "$WORK/scaled_alpha4.hpf"
# Each order runs at its own budget, so its first request is a cold key.
for memory in 512 1024; do
  files=("$EXAMPLE" "$WORK/scaled_alpha4.hpf")
  [ "$memory" -eq 1024 ] && files=("$WORK/scaled_alpha4.hpf" "$EXAMPLE")
  hashes=()
  for file in "${files[@]}"; do
    want="$("$COMPILE" "$file" --memory "$memory" --run --result-hash |
      sed -n 's/^result hash: //p')"
    got="$("$CLIENT" --socket "$SOCK" --op run --program "$file" \
      --memory "$memory" | sed -n 's/.*"result_hash":"\([^"]*\)".*/\1/p')"
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
      echo "serve_smoke.sh: $file at --memory $memory served result_hash" \
        "'$got', oocc_compile computes '$want'" >&2
      exit 1
    fi
    hashes+=("$got")
  done
  if [ "${hashes[0]}" = "${hashes[1]}" ]; then
    echo "serve_smoke.sh: alpha=3 and alpha=4 computed one result" >&2
    exit 1
  fi
done

echo "== stats + clean shutdown" >&2
"$CLIENT" --socket "$SOCK" --op ping --stats --shutdown --quiet

rc=0
wait "$SERVE_PID" || rc=$?
SERVE_PID=""
if [ "$rc" -ne 0 ]; then
  echo "serve_smoke.sh: daemon exited with $rc" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
if [ -S "$SOCK" ]; then
  echo "serve_smoke.sh: socket file left behind after shutdown" >&2
  exit 1
fi
grep "serve:" "$WORK/serve.log" >&2 || true
echo "serve_smoke.sh: OK" >&2
