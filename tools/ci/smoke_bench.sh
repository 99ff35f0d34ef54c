#!/usr/bin/env bash
# CI smoke: the quick bench gates of the Release leg — each suite
# re-measures its stage, enforces its determinism contract where it has
# one (the kernel suite times the integer span merge alone and has none),
# and fails on a >2x regression against the committed baseline where one
# exists (docs/BENCHMARKS.md). Records land in the current directory as
# BENCH_*_quick.json for the artifact upload.
#
#   tools/ci/smoke_bench.sh [build_dir] [suite]
#
# With no suite, runs all of: pipeline ingest kernel sweep.
# CI invokes one suite per step so each gate is its own line in the run.
# The scale bench's quick gate is the ctest entry bench_scale_quick.
set -euo pipefail

BUILD="${1:-build}"
SUITE="${2:-all}"

run_suite() {
  case "$1" in
    pipeline)
      "$BUILD/bench/bench_pipeline" --quick \
        --out BENCH_pipeline_quick.json \
        --baseline bench/baselines/BENCH_pipeline_quick.json ;;
    ingest)
      "$BUILD/bench/bench_ingest" --quick \
        --out BENCH_ingest_quick.json \
        --baseline bench/baselines/BENCH_ingest_quick.json ;;
    kernel)
      "$BUILD/bench/bench_kernel" --quick \
        --out BENCH_kernel_quick.json \
        --baseline bench/baselines/BENCH_kernel_quick.json ;;
    sweep)
      "$BUILD/tools/slim_sweep" --quick \
        --gate_f1 0.95 --gate_workload commute \
        --out BENCH_sweep_quick.json ;;
    *)
      echo "smoke_bench: unknown suite '$1'" >&2
      echo "suites: pipeline ingest kernel sweep" >&2
      exit 2 ;;
  esac
}

if [ "$SUITE" = "all" ]; then
  for suite in pipeline ingest kernel sweep; do
    run_suite "$suite"
  done
else
  run_suite "$SUITE"
fi

echo "smoke_bench: OK ($SUITE)"
