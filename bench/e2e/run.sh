#!/usr/bin/env bash
# Build the end-to-end benchmark and run its workloads, one process each.
#
#   bench/e2e/run.sh [--seed S] [--seconds N] [--trace [0|1]] [--workload W]
#                    [--smoke]
#
# Run from the repository root. Builds into build-e2e/ (Release, library
# only), prints `workload metric value unit` lines and writes
# bench_results.json. With one --workload the last line of standard output
# is that workload's JSON result: end-to-end metrics by default, per-layer
# metrics with --trace. --smoke runs 2 s windows and verifies every
# response.
set -euo pipefail

here="bench/e2e"
build="build-e2e"
seed=42
seconds=20
trace=0
smoke=()
workloads=(serve_ucr_mixed serve_small_rpc serve_paged_rebind eval_paper)
picked=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) picked+=("$2"); shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ ${#picked[@]} -gt 0 ]] && workloads=("${picked[@]}")

if [[ ! -f "$here/CMakeLists.txt" || ! -f CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
mkdir -p "$build/run"
log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

status=0
outs=()
for w in "${workloads[@]}"; do
  out="$build/run/$w.json"
  rm -f "$out"
  "$build/uts_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$out" --scratch "$build/run" "${smoke[@]}" ||
    status=1
  [[ -f "$out" ]] && outs+=("$out")
done

# Collect the per-workload results and check their metric names against
# BENCHMARK.json, so the driver and the file cannot drift apart.
python3 - "$trace" "$seed" "${outs[@]}" <<'EOF' || status=1
import json, os, sys
trace, seed, paths = sys.argv[1] == "1", int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json")) if os.path.exists("BENCHMARK.json") else None
results, ok = {}, True
for path in paths:
    workload = os.path.basename(path)[:-len(".json")]
    results[workload] = json.load(open(path))
    if spec is not None:
        want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        missing = [m for m in want if m not in results[workload]["metrics"]]
        if missing:
            print(f"run.sh: {workload} lacks {missing}", file=sys.stderr)
            ok = False
with open("bench_results.json", "w") as f:
    json.dump({"seed": seed, "trace": trace, "workloads": results}, f, indent=1)
sys.exit(0 if ok else 1)
EOF
exit "$status"
