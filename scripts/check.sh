#!/usr/bin/env bash
# Full verification: configure, build (warnings as errors), run every test,
# every figure bench and every example. This is the CI entry point.
#
# Flags (combinable, any order):
#   --tsan     rebuild with ThreadSanitizer and run the Parallel* tests
#              (also enabled by APPSCOPE_TSAN=1)
#   --metrics  run an instrumented bench and assert metrics.json is
#              produced and well-formed (also enabled by APPSCOPE_METRICS_CHECK=1)
#   --trace    run paper_report with --trace, assert the Chrome trace
#              validates (scripts/trace_summary.py), the critical path covers
#              >=90% of the run, and the report is byte-identical to an
#              untraced run (also enabled by APPSCOPE_TRACE_CHECK=1)
#   --serve    run the appscope_serve ingest daemon for a short soak,
#              assert the metrics JSON (net.ingested, net.sampled,
#              serve.queue.depth) and that the sealed epoch snapshot loads
#              through paper_report; then rerun throttled with the live
#              admin endpoint attached (--admin-port=0), scrape /healthz and
#              /metrics mid-run, and lint the Prometheus exposition with
#              scripts/promcheck.py (also enabled by APPSCOPE_SERVE_CHECK=1)
#   --query    seal a test-scale snapshot, run appscope_query on the lazy
#              read path with --check (bitwise cross-validation against the
#              full-load path), and assert the query.* metrics counters and
#              the partial-mapping invariant (also enabled by
#              APPSCOPE_QUERY_CHECK=1)
#   --region   run a 4-region appscope_region campaign (orchestrate ->
#              merge -> comparison report), assert the warm rerun reuses
#              every region with a byte-identical report, and that the
#              merged national snapshot loads through paper_report --load
#              (also enabled by APPSCOPE_REGION_CHECK=1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-check}"

RUN_TSAN="${APPSCOPE_TSAN:-0}"
RUN_METRICS="${APPSCOPE_METRICS_CHECK:-0}"
RUN_TRACE="${APPSCOPE_TRACE_CHECK:-0}"
RUN_SERVE="${APPSCOPE_SERVE_CHECK:-0}"
RUN_QUERY="${APPSCOPE_QUERY_CHECK:-0}"
RUN_REGION="${APPSCOPE_REGION_CHECK:-0}"
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --metrics) RUN_METRICS=1 ;;
    --trace) RUN_TRACE=1 ;;
    --serve) RUN_SERVE=1 ;;
    --query) RUN_QUERY=1 ;;
    --region) RUN_REGION=1 ;;
    *) echo "usage: $0 [--tsan] [--metrics] [--trace] [--serve] [--query] [--region]" >&2; exit 2 ;;
  esac
done

# Prefer Ninja but don't require it: fall back to CMake's default generator
# when ninja is not installed. An existing cache keeps whatever generator
# configured it (passing -G against a differently-configured cache errors).
generator_args() {
  local dir="$1"
  if [ ! -f "$dir/CMakeCache.txt" ] && command -v ninja > /dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

# shellcheck disable=SC2046  # generator_args is intentionally word-split
cmake -B "$BUILD_DIR" $(generator_args "$BUILD_DIR") -DAPPSCOPE_WARNINGS_AS_ERRORS=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure --repeat until-fail:3

for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "==== $b"
  APPSCOPE_SCALE=test "$b"
done

for e in "$BUILD_DIR"/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "==== $e"
  "$e" > /dev/null
done

# Observability check (--metrics): run one instrumented bench with
# APPSCOPE_METRICS=1 and assert the machine-readable metrics document is
# written and well-formed (schema, stage timings, spans).
if [ "$RUN_METRICS" != "0" ]; then
  echo "==== metrics.json validation"
  METRICS_FILE="$BUILD_DIR/metrics-check.json"
  rm -f "$METRICS_FILE"
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$METRICS_FILE" APPSCOPE_SCALE=test \
    "$BUILD_DIR"/bench/perf_core \
    --benchmark_filter='BM_KShape/2$|BM_PeakDetection' \
    --benchmark_min_time=0.05 > /dev/null
  if [ ! -s "$METRICS_FILE" ]; then
    echo "FAIL: $METRICS_FILE was not written" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$METRICS_FILE" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "appscope.metrics/1", doc.get("schema")
for key in ("counters", "gauges", "histograms", "spans", "spans_dropped"):
    assert key in doc, f"missing key: {key}"
assert any(k.startswith("stage.") for k in doc["histograms"]), "no stage timings"
assert any(k.endswith(".calls") for k in doc["counters"]), "no stage call counters"
print(f"metrics OK: {len(doc['counters'])} counters, "
      f"{len(doc['histograms'])} histograms, {len(doc['spans'])} spans")
PY
  else
    grep -q '"schema": "appscope.metrics/1"' "$METRICS_FILE"
    grep -q '"stage\.' "$METRICS_FILE"
    echo "metrics OK (grep validation; python3 unavailable)"
  fi
fi

# Tracing check (--trace): run paper_report twice — once with --trace, once
# plain — assert the reports are byte-identical (observation must not
# perturb the analysis), then validate the Chrome trace document and its
# critical-path coverage with scripts/trace_summary.py.
if [ "$RUN_TRACE" != "0" ]; then
  echo "==== trace export validation"
  TRACE_FILE="$BUILD_DIR/trace-check.json"
  rm -f "$TRACE_FILE"
  "$BUILD_DIR"/examples/paper_report --scale=test \
    --trace="$TRACE_FILE" > "$BUILD_DIR/report-traced.md" 2> /dev/null
  "$BUILD_DIR"/examples/paper_report --scale=test \
    > "$BUILD_DIR/report-plain.md" 2> /dev/null
  if ! cmp -s "$BUILD_DIR/report-traced.md" "$BUILD_DIR/report-plain.md"; then
    echo "FAIL: report differs with tracing enabled" >&2
    exit 1
  fi
  if [ ! -s "$TRACE_FILE" ]; then
    echo "FAIL: $TRACE_FILE was not written" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 scripts/trace_summary.py "$TRACE_FILE" \
      --root core.run_study --min-coverage 0.9
  else
    grep -q '"schema": "appscope.trace/1"' "$TRACE_FILE"
    grep -q '"core.run_study"' "$TRACE_FILE"
    echo "trace OK (grep validation; python3 unavailable)"
  fi
fi

# Serving check (--serve): replay one full synthetic week through the
# appscope_serve ingest daemon (unthrottled, so this takes ~a second),
# assert the metrics document carries the ingest counters and the
# queue-depth histogram, and that the sealed epoch snapshot loads into the
# offline study via paper_report.
if [ "$RUN_SERVE" != "0" ]; then
  echo "==== appscope_serve soak validation"
  SERVE_DIR="$BUILD_DIR/serve-check"
  SERVE_METRICS="$BUILD_DIR/serve-metrics.json"
  rm -rf "$SERVE_DIR" "$SERVE_METRICS"
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$SERVE_METRICS" \
    "$BUILD_DIR"/src/serve/appscope_serve \
    --scale=test --weeks=1 --epoch-seconds=21600 \
    --snapshot-dir="$SERVE_DIR" 2> /dev/null
  if [ ! -s "$SERVE_METRICS" ] || [ ! -s "$SERVE_DIR/latest.snapshot" ]; then
    echo "FAIL: serve metrics or latest.snapshot missing" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$SERVE_METRICS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["counters"]
assert counters.get("net.ingested", 0) > 0, counters
assert "net.sampled" in counters, sorted(counters)
assert counters.get("serve.epochs.sealed", 0) > 0, counters
assert doc["histograms"].get("serve.queue.depth", {}).get("count", 0) > 0
print(f"serve OK: ingested {counters['net.ingested']}, "
      f"sampled {counters['net.sampled']}, "
      f"epochs {counters['serve.epochs.sealed']}")
PY
  else
    grep -q '"net.ingested"' "$SERVE_METRICS"
    grep -q '"net.sampled"' "$SERVE_METRICS"
    echo "serve metrics OK (grep validation; python3 unavailable)"
  fi
  "$BUILD_DIR"/examples/paper_report --scale=test \
    --snapshot="$SERVE_DIR/latest.snapshot" > /dev/null 2>&1
  echo "serve sealed snapshot loads through paper_report"

  # Live telemetry scrape: rerun the daemon throttled with the admin plane
  # on an ephemeral port (printed at startup), pull /healthz and /metrics
  # mid-run, lint the exposition, then SIGTERM and expect a clean exit.
  fetch() {
    if command -v curl > /dev/null 2>&1; then
      curl -fsS --max-time 5 "$1"
    else
      python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())' "$1"
    fi
  }
  if command -v curl > /dev/null 2>&1 || command -v python3 > /dev/null 2>&1; then
    echo "==== live admin endpoint scrape"
    ADMIN_LOG="$BUILD_DIR/serve-admin.log"
    ADMIN_PROM="$BUILD_DIR/serve-metrics.prom"
    rm -f "$ADMIN_LOG" "$ADMIN_PROM"
    "$BUILD_DIR"/src/serve/appscope_serve \
      --scale=test --weeks=100 --rate=60000 --epoch-seconds=21600 \
      --admin-port=0 --snapshot-dir="$BUILD_DIR/serve-admin-check" \
      2> "$ADMIN_LOG" &
    SERVE_PID=$!
    ADMIN_PORT=""
    for _ in $(seq 1 100); do
      ADMIN_PORT="$(sed -n 's|.*admin endpoint on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$ADMIN_LOG")"
      [ -n "$ADMIN_PORT" ] && break
      sleep 0.1
    done
    if [ -z "$ADMIN_PORT" ]; then
      echo "FAIL: admin endpoint never came up" >&2
      kill "$SERVE_PID" 2> /dev/null || true
      exit 1
    fi
    sleep 2  # let a couple of epochs seal so the latency histograms exist
    fetch "http://127.0.0.1:$ADMIN_PORT/healthz" | grep -qx ok
    fetch "http://127.0.0.1:$ADMIN_PORT/metrics" > "$ADMIN_PROM"
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    grep -q '^net_ingested ' "$ADMIN_PROM"
    grep -q '^obs_health_healthy 1' "$ADMIN_PROM"
    if command -v python3 > /dev/null 2>&1; then
      python3 scripts/promcheck.py "$ADMIN_PROM"
    fi
    echo "admin endpoint scrape OK on port $ADMIN_PORT"
  else
    echo "skipping admin scrape (neither curl nor python3 available)"
  fi
fi

# Query check (--query): seal a test-scale snapshot, answer a slice over it
# through appscope_query on the lazy read path, cross-validate against the
# eager full-load path (--check exits non-zero on any divergence), and
# assert the query.* counters plus the partial-mapping invariant
# (io.snapshot.mapped_bytes strictly below the file size).
if [ "$RUN_QUERY" != "0" ]; then
  echo "==== appscope_query validation"
  QUERY_SNAP="$BUILD_DIR/query-check.snapshot"
  QUERY_METRICS="$BUILD_DIR/query-metrics.json"
  rm -f "$QUERY_SNAP" "$QUERY_METRICS"
  "$BUILD_DIR"/examples/paper_report --scale=test \
    --snapshot="$QUERY_SNAP" > /dev/null 2>&1
  # Metered run stays lazy-only; --check (which adds an eager full-file
  # load to the mapping counter) runs unmetered afterwards.
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$QUERY_METRICS" \
    "$BUILD_DIR"/src/query/appscope_query \
    --snapshot="$QUERY_SNAP" --hours=18:22 --op=sum --repeat=3 \
    --stats --slicing > /dev/null
  "$BUILD_DIR"/src/query/appscope_query \
    --snapshot="$QUERY_SNAP" --hours=18:22 --op=sum --check > /dev/null
  "$BUILD_DIR"/src/query/appscope_query \
    --snapshot="$QUERY_SNAP" --source=communes --op=topk --k=5 \
    --group-by=commune --check > /dev/null
  if [ ! -s "$QUERY_METRICS" ]; then
    echo "FAIL: $QUERY_METRICS was not written" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$QUERY_METRICS" "$QUERY_SNAP" <<'PY'
import json, os, sys
doc = json.load(open(sys.argv[1]))
counters = doc["counters"]
assert counters.get("query.executed", 0) >= 1, counters
assert counters.get("query.bytes_scanned", 0) > 0, counters
assert counters.get("query.cache.hits", 0) >= 2, counters  # --repeat=3
mapped = counters.get("io.snapshot.mapped_bytes", 0)
size = os.path.getsize(sys.argv[2])
assert 0 < mapped < size, (mapped, size)
print(f"query OK: scanned {counters['query.bytes_scanned']} bytes, "
      f"mapped {mapped} of {size}")
PY
  else
    grep -q '"query.executed"' "$QUERY_METRICS"
    grep -q '"io.snapshot.mapped_bytes"' "$QUERY_METRICS"
    echo "query metrics OK (grep validation; python3 unavailable)"
  fi
fi

# Multi-region check (--region): drive a 4-region campaign through
# appscope_region — per-region snapshots under a region-keyed layout, one
# merged national snapshot, the comparison report — then prove the warm
# rerun reuses every published snapshot with a byte-identical report, and
# that the merged snapshot feeds the full offline study via --load.
if [ "$RUN_REGION" != "0" ]; then
  echo "==== appscope_region validation"
  REGION_DIR="$BUILD_DIR/region-check"
  REGION_METRICS="$BUILD_DIR/region-metrics.json"
  rm -rf "$REGION_DIR" "$REGION_METRICS"
  APPSCOPE_METRICS=1 APPSCOPE_METRICS_PATH="$REGION_METRICS" \
    "$BUILD_DIR"/src/region/appscope_region \
    --count=4 --scale=test --out="$REGION_DIR" \
    --report="$REGION_DIR/report.md" 2> /dev/null
  if [ ! -s "$REGION_DIR/report.md" ] || [ ! -s "$REGION_DIR/national.snapshot" ]; then
    echo "FAIL: region report or national snapshot missing" >&2
    exit 1
  fi
  "$BUILD_DIR"/src/region/appscope_region \
    --count=4 --scale=test --out="$REGION_DIR" \
    --report="$REGION_DIR/report-warm.md" 2> "$REGION_DIR/warm.log"
  if ! cmp -s "$REGION_DIR/report.md" "$REGION_DIR/report-warm.md"; then
    echo "FAIL: warm rerun report differs" >&2
    exit 1
  fi
  if [ "$(grep -c ': reused' "$REGION_DIR/warm.log")" != "4" ]; then
    echo "FAIL: warm rerun regenerated a region" >&2
    cat "$REGION_DIR/warm.log" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$REGION_METRICS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["counters"]
assert counters.get("region.orchestrate.regions", 0) == 4, counters
assert counters.get("region.orchestrate.generated", 0) == 4, counters
assert counters.get("region.merge.regions", 0) == 4, counters
assert counters.get("region.compare.pairs", 0) == 6, counters
print(f"region OK: merged {counters['region.merge.communes']} communes, "
      f"{counters['region.merge.bytes']} snapshot bytes")
PY
  else
    grep -q '"region.merge.regions"' "$REGION_METRICS"
    echo "region metrics OK (grep validation; python3 unavailable)"
  fi
  "$BUILD_DIR"/examples/paper_report \
    --load="$REGION_DIR/national.snapshot" > /dev/null 2>&1
  echo "merged national snapshot loads through paper_report --load"
fi

# Optional ThreadSanitizer pass over the parallel/determinism tests
# (APPSCOPE_TSAN=1 or --tsan): rebuilds with -DAPPSCOPE_SANITIZE=thread and
# runs every Parallel* test under TSan.
if [ "$RUN_TSAN" != "0" ]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  echo "==== TSan pass ($TSAN_BUILD_DIR)"
  # shellcheck disable=SC2046
  cmake -B "$TSAN_BUILD_DIR" $(generator_args "$TSAN_BUILD_DIR") \
    -DAPPSCOPE_SANITIZE=thread \
    -DAPPSCOPE_BUILD_BENCH=OFF \
    -DAPPSCOPE_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_BUILD_DIR" -j"$(nproc)"
  ctest --test-dir "$TSAN_BUILD_DIR" -R '^Parallel' --output-on-failure
fi

echo "ALL CHECKS PASSED"
