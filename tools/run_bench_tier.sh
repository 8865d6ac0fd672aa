#!/usr/bin/env bash
# Runs the small/deterministic benchmark tier and collects one
# BENCH_*.json report per invocation into an output directory.
#
#   tools/run_bench_tier.sh [build-dir] [out-dir]
#
# This is THE definition of the tier: bench/baselines/ is generated by
# exactly this script (via `tools/bench_compare --update-baseline`), and
# CI's bench-report job runs it verbatim before comparing. Every bench
# binary runs with a fixed seed and bounded dataset selection so the
# accuracy-class metrics are deterministic; the roster suites run at 1
# kernel thread (the historical configuration) and the efficiency suite
# additionally at 2 threads to keep one multi-threaded point in the
# trajectory.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench-out}
SEED=${BENCH_SEED:-1}

if [ ! -x "$BUILD_DIR/bench_table1_datasets" ]; then
  echo "error: $BUILD_DIR does not contain built bench binaries" >&2
  echo "       (build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

# Baselines from an invariant-violating tree are not comparable: refuse
# to record them. cgnp_lint is part of the default build; a missing
# binary means a stale build dir, which is the same problem.
if [ ! -x "$BUILD_DIR/cgnp_lint" ]; then
  echo "error: $BUILD_DIR/cgnp_lint not built (stale build dir?)" >&2
  exit 2
fi
if ! "$BUILD_DIR/cgnp_lint" --root="$(dirname "$0")/.."; then
  echo "error: cgnp_lint failed; fix the findings before recording" \
       "benchmark baselines (docs/STATIC_ANALYSIS.md)" >&2
  exit 2
fi

mkdir -p "$OUT_DIR"

run() {
  local out=$1
  shift
  echo "=== $* --json=$OUT_DIR/$out"
  "$@" --json="$OUT_DIR/$out"
}

run BENCH_table1_datasets.json     "$BUILD_DIR/bench_table1_datasets" --seed="$SEED"
run BENCH_fig3_efficiency.json     "$BUILD_DIR/bench_fig3_efficiency" --seed="$SEED" --threads=1 --datasets=Citeseer
run BENCH_fig3_efficiency_t2.json  "$BUILD_DIR/bench_fig3_efficiency" --seed="$SEED" --threads=2 --datasets=Citeseer
run BENCH_fig4_scalability.json    "$BUILD_DIR/bench_fig4_scalability" --seed="$SEED" --threads=1
# Storage tier: a 10^6-node graph through the binary graph container
# (build/save/load/map/query on both backings; docs/GRAPH_FORMAT.md).
run BENCH_fig4_scalability_xl.json "$BUILD_DIR/bench_fig4_scalability" --seed="$SEED" --threads=1 --scale=xl
run BENCH_fig5_groundtruth.json    "$BUILD_DIR/bench_fig5_groundtruth" --seed="$SEED" --threads=1 --datasets=Citeseer
run BENCH_table2_single_graph.json "$BUILD_DIR/bench_table2_single_graph" --seed="$SEED" --threads=1 --datasets=Citeseer
run BENCH_table3_multi_graph.json  "$BUILD_DIR/bench_table3_multi_graph" --seed="$SEED" --threads=1 --datasets=Facebook
run BENCH_table4_ablation.json     "$BUILD_DIR/bench_table4_ablation" --seed="$SEED" --threads=1 --datasets=Citeseer
run BENCH_serve_throughput.json    "$BUILD_DIR/bench_serve_throughput" --seed="$SEED"
# Dynamic tier: graph delta + incremental index + scoped invalidation
# (docs/ARCHITECTURE.md "Dynamic graphs"). Single-threaded serving keeps
# the retention counts exact.
run BENCH_dynamic_graph.json       "$BUILD_DIR/bench_dynamic_graph" --seed="$SEED" --threads=1

# Micro benches need Google Benchmark, an optional dependency; the
# ThreadSweep|SimdSweep filter keeps the run short while still exercising
# the parallel kernels at 1-8 threads and every SIMD dispatch level
# available on this host (forced-scalar baseline first; tensor/simd.h).
# BM_GatLayer (forward) and BM_GatLayerBackward time one GAT encoder
# layer on a 200-node task, the encode step of a cgnp cache miss.
# Every report records the active dispatch level in its host block, so
# bench_compare can flag cross-level comparisons.
for micro in bench_micro_tensor bench_micro_graph; do
  if [ -x "$BUILD_DIR/$micro" ]; then
    suite=${micro#bench_}
    echo "=== $BUILD_DIR/$micro --benchmark_filter='ThreadSweep|SimdSweep|GatLayer'"
    "$BUILD_DIR/$micro" --benchmark_filter='ThreadSweep|SimdSweep|GatLayer' \
      --json="$OUT_DIR/BENCH_$suite.json"
  else
    echo "=== skipping $micro (not built; Google Benchmark missing)"
  fi
done

echo
echo "host simd_level recorded in reports:"
grep -h '"simd_level"' "$OUT_DIR"/BENCH_*.json | sort | uniq -c || true

echo
echo "reports in $OUT_DIR:"
ls -l "$OUT_DIR"/BENCH_*.json
