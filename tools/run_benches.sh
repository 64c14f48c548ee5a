#!/usr/bin/env bash
# Runs the core benchmark set and aggregates the results into BENCH_core.json
# at the repository root (tools/aggregate_benches.py does the merging and
# computes the derived ablation speedups).
#
# Usage:
#   tools/run_benches.sh [--build-dir DIR] [--smoke] [--out FILE] \
#                        [--min-speedup KEY:RATIO]... [--min-delta-write-ratio R] \
#                        [--min-batch-speedup PROGRAM:RATIO]... [--max-batch-fsyncs F]
#
#   --build-dir DIR  build tree containing bench/ binaries (default: build-rel)
#   --smoke          short measurement windows — CI sanity run, not for
#                    quoting numbers
#   --out FILE       aggregate destination (default: <repo>/BENCH_core.json)
#   --min-speedup KEY:RATIO
#                    forwarded gate: fail unless derived speedup KEY >= RATIO
#   --min-delta-write-ratio R
#                    forwarded gate: fail unless the delta write ratio >= R
#   --min-batch-speedup PROGRAM:RATIO
#                    forwarded gate: fail unless the group-commit 256-vs-1
#                    throughput ratio for PROGRAM >= RATIO (bench_batch)
#   --max-batch-fsyncs F
#                    forwarded gate: fail unless every bench_batch program
#                    stays <= F fsyncs/request at batch sizes >= 256
#   --with-service-soak
#                    also run bench_service (the multi-session soak +
#                    SnapshotView O(1) probe; DESIGN.md §15) and enforce the
#                    service_soak gates of aggregate_benches.py's
#                    GATE_GROUPS. Smoke runs the 65536-request soak; the
#                    full run soaks 1M requests.
#
# The build directory is configured and built here if needed, always as an
# optimized Release tree: quoting (or gating on) numbers from a debug build
# is meaningless, so a debug-configured --build-dir is rejected outright and
# aggregate_benches.py double-checks the library_build_type each binary
# reports at run time.
#
# The dense-backend ablation (DESIGN.md §13) runs inside bench_evaluators:
# the *Dense benchmark variants replay the identical workloads with
# use_dense_relations on while their hash twins run it off, so the derived
# dense-vs-hash speedups always compare the same binary and build flags.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-rel"
OUT="$ROOT/BENCH_core.json"
EXTRA_FLAGS=()
AGG_FLAGS=()
SMOKE=0
WITH_SERVICE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --smoke) SMOKE=1; EXTRA_FLAGS+=("--benchmark_min_time=0.02"); shift ;;
    --out) OUT="$2"; shift 2 ;;
    --min-speedup) AGG_FLAGS+=("--min-speedup" "$2"); shift 2 ;;
    --min-delta-write-ratio) AGG_FLAGS+=("--min-delta-write-ratio" "$2"); shift 2 ;;
    --min-batch-speedup) AGG_FLAGS+=("--min-batch-speedup" "$2"); shift 2 ;;
    --max-batch-fsyncs) AGG_FLAGS+=("--max-batch-fsyncs" "$2"); shift 2 ;;
    --with-service-soak)
      WITH_SERVICE=1
      AGG_FLAGS+=("--require" "service_soak")
      shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

CORE_BENCHES=(bench_evaluators bench_parity bench_reach_u bench_batch)
if [[ "$WITH_SERVICE" == 1 ]]; then
  CORE_BENCHES+=(bench_service)
fi

cache_build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$1/CMakeCache.txt" 2>/dev/null || true
}

if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  echo "== configuring $BUILD_DIR (Release -O2)"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
BUILD_TYPE="$(cache_build_type "$BUILD_DIR")"
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    echo "error: $BUILD_DIR is configured as '${BUILD_TYPE:-<unset>}';" \
         "benchmarks must come from an optimized build. Reconfigure with" \
         "-DCMAKE_BUILD_TYPE=Release or point --build-dir elsewhere." >&2
    exit 1
    ;;
esac
echo "== building core benchmarks in $BUILD_DIR ($BUILD_TYPE)"
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${CORE_BENCHES[@]}"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

for bench in "${CORE_BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing benchmark binary: $bin (build with -DDYNFO_BUILD_BENCHMARKS=ON)" >&2
    exit 1
  fi
  echo "== $bench"
  if [[ "$bench" == bench_service ]]; then
    # The soak runs exactly once (it is a survival campaign with in-binary
    # aborts, not a timing measurement) against a fixed seed; smoke scales
    # the request target down, the full run soaks 1M requests. The O(1)
    # SnapshotView probe rides along in the same JSON.
    soak_filter="BM_ServiceSoak/1048576|BM_SnapshotViewO1"
    if [[ "$SMOKE" == 1 ]]; then
      soak_filter="BM_ServiceSoak/65536|BM_SnapshotViewO1"
    fi
    "$bin" --benchmark_out="$TMP_DIR/$bench.json" --benchmark_out_format=json \
      --benchmark_filter="$soak_filter" --benchmark_repetitions=1
    continue
  fi
  # 3 repetitions, aggregates only: the gates and quoted numbers come from
  # the per-benchmark *median*, so a single descheduled measurement window
  # (common on shared hosts) cannot decide a pass/fail.
  "$bin" --benchmark_out="$TMP_DIR/$bench.json" --benchmark_out_format=json \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    "${EXTRA_FLAGS[@]+"${EXTRA_FLAGS[@]}"}"
done

mkdir -p "$(dirname "$OUT")"
python3 "$ROOT/tools/aggregate_benches.py" --out "$OUT" \
  --binary-build-type "$BUILD_TYPE" \
  "${AGG_FLAGS[@]+"${AGG_FLAGS[@]}"}" "$TMP_DIR"/*.json
echo "wrote $OUT"
