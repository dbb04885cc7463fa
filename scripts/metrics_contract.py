#!/usr/bin/env python3
"""Check one appscope artifact against the contract the end-to-end checks
hold it to. scripts/check.sh calls this once per artifact it produces; it
is the only place those assertions are written.

Usage:  metrics_contract.py <artifact> <file> [<file> ...]

  metrics        FILE...        any metrics document (APPSCOPE_METRICS_PATH)
  perf_core      FILE           perf_core's metrics document
  snapshot_save  FILE           paper_report run that generated and saved
  snapshot_load  FILE           paper_report run that reloaded the snapshot
  query          FILE SNAPSHOT  metered appscope_query run on SNAPSHOT
  region         FILE           4-region appscope_region campaign
  serve          FILE           appscope_serve daemon run
  statusz        FILE           scraped /statusz document
  exposition     FILE           scraped /metrics Prometheus exposition

Exit status: 0 when the artifact holds, 1 with the failed condition on
stderr, 2 on a usage error.
"""

import inspect
import json
import os
import re
import sys


class ContractError(Exception):
    pass


def require(condition, what, context=None):
    if not condition:
        detail = "" if context is None else ": %s" % (context,)
        raise ContractError(what + detail)


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metrics(*paths):
    """Schema and top-level keys of every metrics document."""
    for path in paths:
        doc = load(path)
        require(doc.get("schema") == "appscope.metrics/1",
                "%s: schema is not appscope.metrics/1" % path, doc.get("schema"))
        for key in ("counters", "gauges", "histograms", "spans",
                    "spans_dropped"):
            require(key in doc, "%s: missing key %r" % (path, key))
        print("%s: %d counters, %d histograms, %d spans"
              % (path, len(doc["counters"]), len(doc["histograms"]),
                 len(doc["spans"])))


def perf_core(path):
    """The SIMD dispatch path and the stage timers are recorded."""
    doc = load(path)
    counters, histograms = doc["counters"], doc["histograms"]
    dispatch = [k for k in counters if k.startswith("la.simd.dispatch.")]
    require(dispatch, "no la.simd.dispatch.* counter", sorted(counters))
    require(any(k.startswith("stage.") for k in histograms),
            "no stage.* histogram", sorted(histograms))
    require(any(k.endswith(".calls") for k in counters),
            "no *.calls counter", sorted(counters))
    print("perf_core: dispatch path %s" % ", ".join(dispatch))


def snapshot_save(path):
    counters = load(path)["counters"]
    require(counters.get("io.snapshot.bytes_written", 0) > 0,
            "io.snapshot.bytes_written is not > 0", counters)
    require(counters.get("io.snapshot.sections", 0) >= 9,
            "io.snapshot.sections is not >= 9", counters)
    print("snapshot save: %d bytes" % counters["io.snapshot.bytes_written"])


def snapshot_load(path):
    counters = load(path)["counters"]
    require(counters.get("io.snapshot.bytes_read", 0) > 0,
            "io.snapshot.bytes_read is not > 0", counters)
    require(counters.get("io.snapshot.sections", 0) >= 9,
            "io.snapshot.sections is not >= 9", counters)
    require("io.snapshot.checksum_failures" not in counters,
            "io.snapshot.checksum_failures recorded", counters)
    print("snapshot load: %d bytes" % counters["io.snapshot.bytes_read"])


def query(path, snapshot):
    """The lazy read path answered, hit its cache and mapped only part of
    the file."""
    counters = load(path)["counters"]
    require(counters.get("query.executed", 0) >= 1,
            "query.executed is not >= 1", counters)
    require(counters.get("query.bytes_scanned", 0) > 0,
            "query.bytes_scanned is not > 0", counters)
    require(counters.get("query.cache.hits", 0) >= 2,
            "query.cache.hits is not >= 2 (run with --repeat=3)", counters)
    require(counters.get("query.cache.misses", 0) >= 1,
            "query.cache.misses is not >= 1", counters)
    mapped = counters.get("io.snapshot.mapped_bytes", 0)
    size = os.path.getsize(snapshot)
    require(0 < mapped < size, "io.snapshot.mapped_bytes not in (0, file size)",
            (mapped, size))
    print("query: mapped %d of %d bytes" % (mapped, size))


def region(path):
    """A cold 4-region campaign: every region generated, merged, compared."""
    doc = load(path)
    counters = doc["counters"]
    for name, want in (("region.orchestrate.regions", 4),
                       ("region.orchestrate.generated", 4),
                       ("region.merge.regions", 4),
                       ("region.compare.regions", 4),
                       ("region.compare.pairs", 6)):
        require(counters.get(name, 0) == want, "%s != %d" % (name, want),
                counters)
    for name in ("region.orchestrate.bytes", "region.merge.communes",
                 "region.merge.bytes"):
        require(counters.get(name, 0) > 0, "%s is not > 0" % name, counters)
    span_names = {span["name"] for span in doc["spans"]}
    for name in ("region.orchestrate", "region.shard", "region.merge",
                 "region.compare"):
        require(name in span_names, "no %s span" % name, sorted(span_names))
    print("region: merged %d communes, %d snapshot bytes"
          % (counters["region.merge.communes"], counters["region.merge.bytes"]))


def serve(path):
    """Ingest, sampling, queue depth, enqueue-to-seal latency, and one
    seal-wall and one seal-wait observation per sealed epoch."""
    doc = load(path)
    counters, histograms = doc["counters"], doc["histograms"]
    require(counters.get("net.ingested", 0) > 0, "net.ingested is not > 0",
            counters)
    require("net.sampled" in counters, "no net.sampled counter",
            sorted(counters))
    sealed = counters.get("serve.epochs.sealed", 0)
    require(sealed > 0, "serve.epochs.sealed is not > 0", counters)
    depth = histograms.get("serve.queue.depth", {})
    require(depth.get("count", 0) > 0, "serve.queue.depth has no observations",
            sorted(histograms))
    latency = histograms.get("serve.ingest.enqueue_to_seal", {})
    require(latency.get("count", 0) > 0 and latency.get("max", 0) > 0,
            "serve.ingest.enqueue_to_seal is empty", latency)
    seal = histograms.get("serve.epoch.seal_wall_seconds", {})
    require(seal.get("count", 0) == sealed,
            "serve.epoch.seal_wall_seconds count != serve.epochs.sealed",
            (seal.get("count"), sealed))
    wait = histograms.get("serve.epoch.seal_wait_seconds", {})
    require(wait.get("count", 0) == sealed,
            "serve.epoch.seal_wait_seconds count != serve.epochs.sealed",
            (wait.get("count"), sealed))
    print("serve: ingested %d, sampled %d, %d epochs"
          % (counters["net.ingested"], counters["net.sampled"], sealed))


def statusz(path):
    doc = load(path)
    require(doc.get("schema") == "appscope.statusz/1",
            "schema is not appscope.statusz/1", doc.get("schema"))
    require(doc.get("healthy") is True, "not healthy", doc)
    require(doc.get("samples", 0) >= 1, "no samples", doc)
    require(doc.get("ingest_rate_per_second", 0) > 0, "ingest rate is not > 0",
            doc)
    require("net.ingested" in doc.get("series", {}), "no net.ingested series",
            sorted(doc.get("series", {})))
    print("statusz: healthy after %d samples" % doc["samples"])


def exposition(path):
    """The families a live daemon must already expose (promcheck.py lints
    the format)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for pattern in (r"^serve_ingest_enqueue_to_seal_bucket",
                    r"^serve_epoch_seal_wall_seconds_bucket",
                    r"^serve_epoch_seal_wait_seconds_bucket",
                    r"^net_ingested ", r"^obs_health_healthy 1"):
        require(re.search(pattern, text, re.MULTILINE),
                "no line matches %s" % pattern)
    print("exposition: ingest, seal and health families present")


ARTIFACTS = {f.__name__: f for f in (metrics, perf_core, snapshot_save,
                                     snapshot_load, query, region, serve,
                                     statusz, exposition)}


def main(argv):
    check = ARTIFACTS.get(argv[1]) if len(argv) > 2 else None
    try:
        inspect.signature(check).bind(*argv[2:])
    except TypeError:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        check(*argv[2:])
    except (ContractError, KeyError, OSError, ValueError) as error:
        print("metrics_contract: %s: FAIL: %s" % (argv[1], error),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
