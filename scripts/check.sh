#!/usr/bin/env bash
# The end-to-end check of appscope. Each CI job is one call of this script,
# so a local run with the same arguments checks what that job checks.
#
# Every run configures, builds and tests the preset from CMakePresets.json
# (default release; every test three times over), then runs every bench at
# APPSCOPE_SCALE=test and every example the preset builds. Each mode adds
# end-to-end checks against that build:
#   --metrics     every bench writes a well-formed metrics document
#   --trace       a traced test-scale report equals the untraced one, and
#                 so do the reports at APPSCOPE_THREADS=1 and 4; the
#                 trace's critical path covers 90% of core.run_study
#   --query       example-scale snapshot save/reload gives the same report;
#                 appscope_query answers from the sections it reads and
#                 agrees with a full load (--check)
#   --region      a 4-region campaign, its warm rerun (every region reused,
#                 same report) and the merged snapshot through paper_report
#   --serve       a ~30 s throttled appscope_serve run scraped live, drained
#                 by SIGTERM; its sealed snapshot feeds paper_report and
#                 appscope_query. Then an unthrottled run is SIGKILLed
#                 mid-seal: what it published must load, and a daemon
#                 restarted on its directory must succeed
#   --bench-gate  perf_core against BENCH_core.json, measured right after
#                 ctest and judged at the end (bench_regression.py;
#                 APPSCOPE_BENCH_REGRESSION_SKIP=1 skips the comparison)
# scripts/metrics_contract.py makes every assertion on the documents these
# runs write. The compiler, generator and compiler launcher come from the
# environment (CC/CXX, CMAKE_GENERATOR, CMAKE_CXX_COMPILER_LAUNCHER), which
# CMake reads itself. Outputs land in build-<preset>/check/, the CI
# artifacts in its metrics-artifacts/, snapshot-artifacts/ and
# soak-artifacts/.
set -euo pipefail
cd "$(dirname "$0")/.."

USAGE="usage: scripts/check.sh [--preset=dev|release|scalar|tsan|asan] \
[--metrics] [--trace] [--query] [--region] [--serve] [--bench-gate]"
PRESET=release
METRICS=0 TRACE=0 QUERY=0 REGION=0 SERVE=0 GATE=0
for arg in "$@"; do
  case "$arg" in
    --preset=*) PRESET="${arg#--preset=}" ;;
    --metrics) METRICS=1 ;;
    --trace) TRACE=1 ;;
    --query) QUERY=1 ;;
    --region) REGION=1 ;;
    --serve) SERVE=1 ;;
    --bench-gate) GATE=1 ;;
    *) echo "$USAGE" >&2; exit 2 ;;
  esac
done
for tool in python3 curl; do
  if ! command -v "$tool" > /dev/null; then
    echo "check.sh: $tool is required" >&2
    exit 2
  fi
done
trap 'echo "check.sh: FAILED: $BASH_COMMAND (line $LINENO)" >&2' ERR

BUILD="$PWD/build-$PRESET"  # the base preset's binaryDir
OUT="$BUILD/check"
ART="$OUT/metrics-artifacts"
contract() { python3 scripts/metrics_contract.py "$@"; }

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "$(nproc)"
# Three rounds of the parallel suite also catch sibling tests sharing
# scratch files.
ctest --preset "$PRESET" -j "$(nproc)" --repeat until-fail:3

rm -rf "$OUT"
mkdir -p "$ART"
# The gate measures before the benches and the end-to-end modes (after the
# --serve soak, BM_IngestEvents/4 reads well above its quiet-machine time)
# and fails the run at the end, so a gate failure hides no other check.
GATE_FAILED=0
if [ "$GATE" = 1 ]; then
  echo "==== bench regression gate"
  APPSCOPE_BENCH_JSON="$OUT/BENCH_fresh.json" APPSCOPE_THREADS=1 \
    "$BUILD"/bench/perf_core \
    --benchmark_filter='^(BM_SbdMatrix/real_time|BM_KShape/5|BM_Fft/512|BM_RealFft/512|BM_SbdWeeklySeries|BM_Znorm/168|BM_ConjMultiply/257|BM_DatasetGenerate/real_time|BM_SnapshotSave/real_time|BM_SnapshotLoad/real_time|BM_SnapshotLazyLoad/real_time|BM_IngestEvents/4/real_time|BM_QueryHourSlice/1/real_time|BM_QueryCommuneFingerprint/1/real_time|BM_RegionOrchestrate/real_time|BM_RegionMerge/real_time)$' \
    --benchmark_min_time=0.5
  python3 scripts/bench_regression.py BENCH_core.json "$OUT/BENCH_fresh.json" \
    || GATE_FAILED=1
fi
for b in "$BUILD"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "==== $name"
  if [ "$name" = perf_core ]; then
    "$b" --benchmark_min_time=0.05
  elif [ "$METRICS" = 1 ]; then
    APPSCOPE_SCALE=test APPSCOPE_METRICS=1 \
      APPSCOPE_METRICS_PATH="$ART/$name.metrics.json" "$b"
  else
    APPSCOPE_SCALE=test "$b"
  fi
done
for e in "$BUILD"/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "==== $(basename "$e")"
  (cd "$OUT" && "$e" > /dev/null)  # some write their snapshot to the cwd
done
if [ "$METRICS" = 1 ]; then
  # Some perf_core benchmarks reset the registry, dropping the dispatch
  # counter recorded at startup, so its document comes from a subset that
  # keeps it.
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$ART/perf_core.metrics.json" \
    "$BUILD"/bench/perf_core --benchmark_min_time=0.05 \
    --benchmark_filter='BM_KShape|BM_PeakDetection|BM_SbdWeeklySeries'
  contract perf_core "$ART/perf_core.metrics.json"
fi

REPORT="$BUILD/examples/paper_report"
QUERY_CLI="$BUILD/src/query/appscope_query"

if [ "$TRACE" = 1 ]; then
  echo "==== trace export"
  APPSCOPE_METRICS_PATH="$OUT/report_traced.metrics.json" \
    "$REPORT" --scale=test --trace="$ART/paper_report.trace.json" \
    --out="$OUT/report_traced.md"
  "$REPORT" --scale=test --out="$OUT/report_untraced.md"
  cmp "$OUT/report_traced.md" "$OUT/report_untraced.md"
  for threads in 1 4; do
    APPSCOPE_THREADS="$threads" "$REPORT" --scale=test \
      --out="$OUT/report_threads$threads.md"
    cmp "$OUT/report_threads$threads.md" "$OUT/report_untraced.md"
  done
  python3 scripts/trace_summary.py "$ART/paper_report.trace.json" \
    --root core.run_study --min-coverage 0.9
fi

if [ "$QUERY" = 1 ]; then
  echo "==== snapshot round trip and query engine"
  SNAP="$OUT/snapshot-artifacts/example.snapshot"
  mkdir -p "$OUT/snapshot-artifacts"
  for run in save load; do
    APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$ART/snapshot_$run.metrics.json" \
      "$REPORT" --scale=example --snapshot="$SNAP" --out="$OUT/report_$run.md"
    contract "snapshot_$run" "$ART/snapshot_$run.metrics.json"
  done
  cmp "$OUT/report_save.md" "$OUT/report_load.md"
  # The metered run reads only the sections its query touches: --check adds
  # a full load, which reads every section, to io.snapshot.mapped_bytes.
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$ART/appscope_query.metrics.json" \
    "$QUERY_CLI" --snapshot="$SNAP" --hours=18:22 --op=sum --repeat=3 \
    --stats --slicing > /dev/null
  contract query "$ART/appscope_query.metrics.json" "$SNAP"
  "$QUERY_CLI" --snapshot="$SNAP" --hours=18:22 --op=sum --check > /dev/null
  "$QUERY_CLI" --snapshot="$SNAP" --source=communes --op=topk --k=5 \
    --group-by=commune --check > /dev/null
fi

if [ "$REGION" = 1 ]; then
  echo "==== multi-region campaign"
  R="$OUT/region"
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$ART/appscope_region.metrics.json" \
    "$BUILD"/src/region/appscope_region --count=4 --scale=test --out="$R" \
    --report="$R/report.md"
  for f in report.md national.snapshot \
           {paris,lyon,marseille,toulouse}/latest.snapshot; do
    test -s "$R/$f"
  done
  contract region "$ART/appscope_region.metrics.json"
  "$BUILD"/src/region/appscope_region --count=4 --scale=test --out="$R" \
    --report="$R/report_warm.md" 2> "$OUT/region_warm.log"
  cmp "$R/report.md" "$R/report_warm.md"
  test "$(grep -c ': reused' "$OUT/region_warm.log")" = 4
  "$REPORT" --load="$R/national.snapshot" --out="$OUT/national_report.md"
  test -s "$OUT/national_report.md"
fi

if [ "$SERVE" = 1 ]; then
  echo "==== serve soak"
  S="$OUT/soak-artifacts"
  SNAPS="$OUT/serve"
  mkdir -p "$S/snapshots"
  # 60k ev/s covers a test-scale week (~1.26M events) in ~21 s, so the
  # sealed state feeds the study's full-week analyses; --weeks=100 keeps the
  # daemon running until the SIGTERM below. The log exists before the daemon
  # starts, so the port poll never reads a missing file.
  : > "$OUT/serve.log"
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$S/serve.metrics.json" \
    "$BUILD"/src/serve/appscope_serve --scale=test --rate=60000 --weeks=100 \
    --epoch-seconds=21600 --admin-port=0 --snapshot-dir="$SNAPS" \
    2> "$OUT/serve.log" &
  SERVE_PID=$!
  trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's|.*admin endpoint on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
      "$OUT/serve.log")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  test -n "$port"
  URL="http://127.0.0.1:$port"
  scrapes=0
  for _ in $(seq 1 15); do
    sleep 2
    kill -0 "$SERVE_PID" 2> /dev/null || break
    curl -fsS --max-time 5 "$URL/healthz" | grep -qx ok
    curl -fsS --max-time 5 "$URL/metrics" > "$S/metrics.prom"
    curl -fsS --max-time 5 "$URL/statusz" > "$S/statusz.json"
    scrapes=$((scrapes + 1))
  done
  test "$scrapes" -ge 10
  curl -fsS --max-time 5 "$URL/tracez" > "$S/tracez.json"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT
  test -s "$SNAPS/latest.snapshot"  # else paper_report would generate one
  python3 scripts/promcheck.py "$S/metrics.prom"
  contract exposition "$S/metrics.prom"
  contract statusz "$S/statusz.json"
  contract serve "$S/serve.metrics.json"
  # The query engine's slicing section, on the lazy read path, must match
  # the full-load paper_report's byte for byte.
  "$REPORT" --scale=test --snapshot="$SNAPS/latest.snapshot" \
    --out="$OUT/soak_report.md"
  "$QUERY_CLI" --snapshot="$SNAPS/latest.snapshot" --hours=18:22 --op=sum \
    --slicing --check > "$OUT/soak_query.txt"
  for f in soak_report.md soak_query.txt; do
    grep -A4 '^### Network-slicing economics' "$OUT/$f" > "$OUT/$f.slicing"
  done
  cmp "$OUT/soak_report.md.slicing" "$OUT/soak_query.txt.slicing"
  epochs=("$SNAPS"/epoch_*.snapshot)
  cp "$SNAPS/latest.snapshot" "${epochs[0]}" "${epochs[-1]}" "$S/snapshots/"

  echo "==== serve SIGKILL"
  KILLED="$OUT/serve-killed"
  "$BUILD"/src/serve/appscope_serve --scale=test --weeks=100 \
    --snapshot-dir="$KILLED" 2> "$OUT/serve_killed.log" &
  KILL_PID=$!
  trap 'kill -KILL "$KILL_PID" 2> /dev/null || true' EXIT
  sleep 1
  kill -KILL "$KILL_PID"
  status=0
  wait "$KILL_PID" || status=$?
  trap - EXIT
  test "$status" = 137  # killed mid-run, not finished or failed
  "$QUERY_CLI" --snapshot="$KILLED/latest.snapshot" --check > /dev/null
  "$BUILD"/src/serve/appscope_serve --scale=test --weeks=1 \
    --snapshot-dir="$KILLED" 2> "$OUT/serve_restart.log"
  "$QUERY_CLI" --snapshot="$KILLED/latest.snapshot" --check > /dev/null
fi

if [ "$METRICS" = 1 ]; then
  contract metrics "$ART"/*.metrics.json
fi

if [ "$GATE_FAILED" = 1 ]; then
  echo "check.sh: FAILED: the bench regression gate (see its report above)" >&2
  exit 1
fi
echo "ALL CHECKS PASSED ($PRESET)"
