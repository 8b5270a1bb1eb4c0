#!/usr/bin/env bash
# The repository benchmark: builds vcfd and the vcf_bench load generator (Release,
# through the bench/e2e superbuild) and runs the end-to-end workloads
# against a freshly spawned vcfd. See bench/e2e/README.md.
#
#   bench/e2e/run.sh                          # all four workloads, untraced
#   bench/e2e/run.sh --workload dram --seed 3 --seconds 10 [--trace 0|1]
#   bench/e2e/run.sh --trace                  # per-layer run of every workload
#   bench/e2e/run.sh --quick                  # 2^16..2^18 tables, one round
#   bench/e2e/run.sh --selftest               # must fail: plants a false negative
#   bench/e2e/run.sh ... --results DIR        # also keep each JSON line in DIR
#
# Every run prints its metrics by name and unit, and as its last stdout line
# one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
# status is non-zero when a correctness check fails, the build fails, or
# vcf_bench refuses the host (fewer than 4 cpus, a vcfd already running).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build/e2e"
out="$root/.bench_build/out"

workload="" seed=1 seconds=10 trace=0 quick=0 selftest=0 results=""
while [[ $# -gt 0 ]]; do
  case $1 in
    --*=*) set -- "${1%%=*}" "${1#*=}" "${@:2}" ;;  # --flag=value → --flag value
    --workload) workload=${2:?--workload needs a value}; shift 2 ;;
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    --results) results=${2:?--results needs a value}; shift 2 ;;
    --trace)  # --trace 0|1; a bare --trace means 1
      if [[ ${2:-} == [01] ]]; then trace=$2; shift 2; else trace=1; shift; fi ;;
    --quick) quick=1; shift ;;
    --selftest) selftest=1; shift ;;
    -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
    *) echo "error: unknown argument $1" >&2; exit 64 ;;
  esac
done

# Build quietly; the log is shown only when something fails.
mkdir -p "$build" "$out"
log="$out/build.log"
jobs=$(nproc)
(( jobs > 4 )) && jobs=4
if ! cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release \
       >"$log" 2>&1 ||
   ! cmake --build "$build" --target vcfd vcf_bench -j "$jobs" >>"$log" 2>&1; then
  cat "$log" >&2
  echo "error: build failed" >&2
  exit 2
fi

sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") \
      git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
flags=(--vcfd="$build/repo/tools/vcfd" --seed="$seed" --seconds="$seconds"
       --out="$out" --git_sha="$sha")
[[ $trace == 1 ]] && flags+=(--trace)
[[ $quick == 1 ]] && flags+=(--quick)
[[ $selftest == 1 ]] && flags+=(--selftest)

run_one() {
  local w=$1 status=0 output
  output=$("$build/vcf_bench" --workload="$w" "${flags[@]}") || status=$?
  printf '%s\n' "$output"
  if [[ -n $results ]]; then
    mkdir -p "$results"
    printf '%s\n' "$output" | tail -n 1 >"$results/$w.$seed.json"
  fi
  return $status
}

if [[ -n $workload ]]; then
  run_one "$workload"
  exit $?
fi
failed=0
for w in wire dram elastic-grow tiered-cold; do
  echo "== $w"
  run_one "$w" || failed=1
done
exit $failed
