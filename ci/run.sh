#!/usr/bin/env bash
# CI entry point: the tier-1 verify on the strict `dev` preset, the full
# test suite under Address+UB sanitizers, the parallel-sweep tests under
# ThreadSanitizer, and the report stage that regenerates the experiment
# docs and fails on drift. Usage:
#
#   ci/run.sh           # dev + asan + tsan stages
#   ci/run.sh dev       # strict-warnings build + tests only
#   ci/run.sh asan      # sanitizer build + tests only
#   ci/run.sh tsan      # ThreadSanitizer build + `parallel`-labeled tests
#   ci/run.sh report    # release build + head-to-head grid; archives
#                       # BENCH_headtohead.json and fails if the committed
#                       # docs/experiments tables or the EXPERIMENTS.md
#                       # generated block drift from the artifact
#   ci/run.sh lint      # kkt_lint self-scan (determinism/allocation rules,
#                       # docs/LINT_RULES.md) + clang-tidy build when the
#                       # binary is available; archives LINT_findings.json
#   ci/run.sh bigraph   # web-scale backend gate (docs/GRAPH_STORE.md):
#                       # backend-labelled tests (own/clone/mmap
#                       # equivalence + seeded-family oracles + store
#                       # corruption matrix), pack/validate a .kkg store
#                       # artifact, BuildMST from the mmap'd store, then
#                       # the build_mst_xl grid up to n = 1048576 on the
#                       # generated frozen CSR -- fails when peak RSS is
#                       # missing or exceeds the documented 2 GiB budget;
#                       # archives BENCH_bigraph.json + the .kkg store
#   ci/run.sh faults    # fault-injection gate (docs/FAULTS.md): the
#                       # fault-labelled suite (batch deletions, regional
#                       # outages, partition-and-heal over reliable links;
#                       # bit-identical metrics across reruns and between
#                       # the sync schedule and its adversarial spelling,
#                       # oracle-clean heals)
#                       # under the strict dev preset, then the full fault
#                       # matrix through kkt_lab
#                       # at the canonical seed, once per maintained kind;
#                       # archives BENCH_faultmodel.json (MST) and
#                       # BENCH_faultmodel_st.json (ST) (counter-only
#                       # records -- byte-deterministic at a fixed seed)
#   ci/run.sh bench     # repo-benchmark smoke: one short run of every
#                       # BENCHMARK.json workload through perfbench/run.py;
#                       # fails unless each result line reads correct with
#                       # no failed op (wall time is not gated)
#
# The exact counter gate (`kkt_report bench <suite>` for all eight suites
# against tests/baselines/) is part of the ctest suite the dev and asan
# stages run (bench_gate.*, docs/PERF.md); wall time is the repo
# benchmark's job (perfbench/, BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
stage="${1:-all}"

run_preset() {
  local preset="$1"
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test [$preset]"
  ctest --preset "$preset"
}

build_release() {
  echo "==> configure [release]"
  cmake --preset release
  echo "==> build [release]"
  cmake --build --preset release -j "$jobs"
}

# Report stage: run the KKT-vs-baseline head-to-head grid at the canonical
# seeds, then verify the committed experiment docs are exactly what the
# fresh artifact renders. Drift means someone changed counters or docs
# without regenerating (kkt_report gen) -- fail loudly.
run_report() {
  build_release
  echo "==> head-to-head grid (canonical seeds)"
  ./build/release/tools/kkt_report run --threads "$jobs" \
    --out BENCH_headtohead.json
  echo "==> drift check (docs/experiments + EXPERIMENTS.md)"
  ./build/release/tools/kkt_report check --in BENCH_headtohead.json \
    --docs docs/experiments --experiments EXPERIMENTS.md
  echo "==> archived BENCH_headtohead.json"
}

# Lint stage: the `lint` preset builds with KKT_CLANG_TIDY=ON (a warning,
# not an error, when no clang-tidy binary is installed) and runs the
# lint-labeled ctest cases (kkt_lint self-scan + seeded-violation check +
# lint_test unit suite). The self-scan artifact is then regenerated at the
# repo root so CI can upload LINT_findings.json.
run_lint() {
  run_preset lint
  echo "==> kkt_lint self-scan artifact"
  ./build/lint/tools/kkt_lint --root . --format=json --out LINT_findings.json
  echo "==> archived LINT_findings.json"
}

# Faults stage: the fault-injection gate (docs/FAULTS.md). The labelled
# suite pins the deterministic fault matrix -- every model x transport x
# seed with bit-identical metrics across reruns and between the sync
# schedule and the adversarial factory with every delay fixed at one tick,
# oracle-clean after every event -- under the strict dev build.
# Faults are graph updates; links stay reliable, so the only undelivered
# sends are max_rounds backstop leftovers (dropped_deliveries, 0 in a
# correct run). The kkt_lab runs then replay all three fault models through
# MaintenanceSession::apply_batch, on a maintained MST and on a maintained
# ST, and archive the two counter-only artifacts.
run_faults() {
  echo "==> configure/build [dev]"
  cmake --preset dev
  cmake --build --preset dev -j "$jobs"
  echo "==> fault-labelled tests [dev]"
  ctest --test-dir build/dev -L fault --output-on-failure -j "$jobs"
  build_release
  echo "==> fault matrix through kkt_lab (canonical seed)"
  ./build/release/examples/kkt_lab churn --family gnm --n 64 --m 192 \
    --faults batch,regional,partition --events 4 --seed 2015 --net sync \
    --out BENCH_faultmodel.json
  ./build/release/examples/kkt_lab churn --family gnm --n 64 --m 192 \
    --faults batch,regional,partition --events 4 --seed 2015 --net sync \
    --kind st --out BENCH_faultmodel_st.json
  echo "==> archived BENCH_faultmodel.json BENCH_faultmodel_st.json"
}

# Bench stage: the repo benchmark (perfbench/, BENCHMARK.json) end to end,
# one 1-second run per declared workload. Each run checks its own outputs
# against the oracle and prints one JSON result as its last line; the stage
# fails unless every result has "correct": true and "failed": 0. Wall time
# on a CI runner is noise, so no metric is compared here.
run_bench() {
  local workloads w result
  workloads=$(python3 -c 'import json; print(" ".join(
    w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  for w in $workloads; do
    echo "==> perfbench workload $w"
    result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1)
    echo "$result"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' \
        "$result"; then
      echo "FAIL: workload $w is not correct or has failed ops" >&2
      exit 1
    fi
  done
}

# Bigraph stage: the web-scale backend gate (docs/GRAPH_STORE.md). The
# backend-labelled suite pins metric bit-identity across each seeded
# family's own backend (implicit K_n, frozen igridlong / igeo), its
# adjacency clone and its mapped .kkg pack, the seeded-family oracles and
# the store corruption matrix; the kkt_lab gen -> info -> build --in chain
# proves a packed .kkg round-trips through the mmap backend end to end;
# and the build_mst_xl grid completes a BuildMST point at n = 1048576 on
# the frozen CSR igridlong generates in memory. The RSS gate is hard: the
# documented budget (2 GiB, docs/GRAPH_STORE.md) is ~3x the measured
# 739 MiB footprint, so tripping it means the O(n + m) frozen-layout
# footprint regressed, not runner noise; a run log without the peak RSS
# line fails too. Every build cell of the grid is checked against the
# oracle MSF; a wrong cell fails the stage.
# Wall/RSS telemetry lands in BENCH_bigraph.json via --measure, which is
# why this artifact is advisory-only and never drift-checked against docs.
run_bigraph() {
  build_release
  echo "==> backend-labelled tests (equivalence, family oracles, store)"
  ctest --test-dir build/release -L backend --output-on-failure -j "$jobs"
  echo "==> pack + validate a .kkg store artifact"
  ./build/release/examples/kkt_lab gen --family igridlong --n 65536 \
    --links 2 --seed 1 --out STORE_igridlong_65536.kkg
  ./build/release/examples/kkt_lab info STORE_igridlong_65536.kkg
  echo "==> BuildMST from the mmap'd store (read-only kFrozen backend)"
  ./build/release/examples/kkt_lab build --algo kkt-mst \
    --in STORE_igridlong_65536.kkg --rss-budget-mb 2048
  echo "==> web-scale grid: build_mst_xl up to n = 1048576 (frozen CSR)"
  local run_log
  run_log=$(./build/release/tools/kkt_report run --sizes 64,128 --seeds 1 \
    --ops 2 --xl-sizes 65536,262144,1048576 --measure \
    --out BENCH_bigraph.json | tee /dev/stderr)
  local rss_kb budget_kb=$((2048 * 1024))
  rss_kb=$(sed -n 's/^peak_rss_kb=//p' <<<"$run_log")
  if [ -z "$rss_kb" ]; then
    echo "FAIL: the run log has no peak_rss_kb= line" >&2
    exit 1
  fi
  if [ "$rss_kb" -gt "$budget_kb" ]; then
    echo "FAIL: peak RSS ${rss_kb} KiB exceeds the documented" \
         "$((budget_kb / 1024)) MiB budget (docs/GRAPH_STORE.md)" >&2
    exit 1
  fi
  echo "==> peak RSS ${rss_kb} KiB within the 2 GiB budget"
  echo "==> archived BENCH_bigraph.json STORE_igridlong_65536.kkg"
}

case "$stage" in
  dev)     run_preset dev ;;
  asan)    run_preset asan ;;
  tsan)    run_preset tsan ;;
  report)  run_report ;;
  lint)    run_lint ;;
  bigraph) run_bigraph ;;
  faults)  run_faults ;;
  bench)   run_bench ;;
  all)     run_preset dev; run_preset asan; run_preset tsan; run_lint ;;
  *)       echo "usage: $0 [dev|asan|tsan|report|lint|bigraph|faults|bench|all]" >&2; exit 2 ;;
esac

echo "==> OK [$stage]"
