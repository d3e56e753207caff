#!/usr/bin/env bash
# Builds the end-to-end benchmark, ukraft_e2e, and runs it.
#
#   bench/e2e/run.sh --workload <name> [--seed N] [--seconds 10] [--trace 0|1]
#   bench/e2e/run.sh [--seed N] ...        # every workload in turn
#
# The build goes to build-e2e/ at the repository root. Build output goes to
# stderr, so the last line of stdout is ukraft_e2e's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja > /dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S "$root/bench/e2e" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target ukraft_e2e -j 4 >&2

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$build/ukraft_e2e" "$@"
  fi
done
status=0
for w in redis-get redis-set-aof kv-udp-sharded fleet-churn tcp-bulk-loss; do
  "$build/ukraft_e2e" --workload "$w" "$@" || status=1
done
exit "$status"
