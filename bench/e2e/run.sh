#!/usr/bin/env bash
# Builds the end-to-end benchmark in Release and runs it (README.md here).
#
#   bench/e2e/run.sh                  every workload of BENCHMARK.json, timed
#                                     and traced, seed $SEED (default 1);
#                                     results in $OUT (default build/e2e/results)
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                     one run; the arguments go to bench_e2e,
#                                     whose last output line is the JSON result
#
# Build output goes to standard error. Exits non-zero when the build fails
# or any correctness check does.
set -euo pipefail
cd "$(dirname "$0")/../.."

build=build/e2e
if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e --parallel 3 >&2

out=${OUT:-$build/results}
mkdir -p "$out"
if [[ $# -gt 0 ]]; then
  exec "$build/bench_e2e" --out "$out" "$@"
fi

read_benchmark() {
  python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); $1"
}
seconds=$(read_benchmark 'print(b["run_seconds"])')
workloads=$(read_benchmark 'print(" ".join(w["name"] for w in b["workloads"]))')
status=0
for workload in $workloads; do
  for trace in 0 1; do
    "$build/bench_e2e" --workload "$workload" --seed "${SEED:-1}" \
      --seconds "$seconds" --trace "$trace" --out "$out" | grep -v '^{' ||
      status=1
  done
done
exit $status
