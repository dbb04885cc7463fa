#!/usr/bin/env python3
"""Lists the library functions that no appscope program links.

    python3 scripts/unlinked.py BUILD_DIR

BUILD_DIR must be built with -ffunction-sections and -Wl,--gc-sections (the
dev preset), so that each program keeps only the functions it can reach.
The candidates are the strong text symbols in namespace appscope of the
static libraries under BUILD_DIR/src. The programs are the CLIs
(src/*/appscope_*), the benches and the examples; never the test binaries.
Names are compared demangled, so a constructor's or destructor's variants
count as one function.

Fails on an unlinked function that is not in ALLOWED below, and on an ALLOWED
entry that no library defines any more or that a program now links.
"""
import os
import subprocess
import sys

# Functions no program links that stay: test oracles, test hooks and
# destructors that never run. Each maps to why it stays.
SPAN = "std::span<double const, 18446744073709551615ul>"
STRING_VIEW = "std::basic_string_view<char, std::char_traits<char> >"
ALLOWED = {
    "appscope::la::cross_correlation_direct(%s, %s)" % (SPAN, SPAN):
        "oracle: test_fft and test_prop_sbd check the FFT cross-correlation",
    "appscope::la::Matrix::multiply(%s) const" % SPAN:
        "oracle: test_eigen checks eigenpairs through A*v",
    "appscope::la::simd::set_dispatch(appscope::la::simd::Dispatch)":
        "hook: test_simd, test_prop_simd, test_prop_query and test_snapshot "
        "run code under each dispatch",
    "appscope::la::simd::noise_log(double)":
        "oracle: NoiseKernel.ElementaryFunctionsWithinUlps",
    "appscope::la::simd::noise_exp(double)":
        "oracle: NoiseKernel.ElementaryFunctionsWithinUlps",
    "appscope::la::simd::noise_sincos_2pi(double, double*, double*)":
        "oracle: NoiseKernel.ElementaryFunctionsWithinUlps",
    "appscope::ts::is_znormalized(%s, double)" % SPAN:
        "oracle: test_kshape, test_znorm and test_prop_clustering",
    "appscope::ts::shift_series(%s, long)" % SPAN:
        "input generator: test_kshape, test_sbd and test_prop_sbd",
    "appscope::core::TrafficDataset::validate() const":
        "oracle: test_dataset, test_mobility, test_serve, test_snapshot_dataset, "
        "test_region and test_prop_scenario check datasets' invariants",
    "appscope::serve::ShardedIngest::set_shard_paused(unsigned long, bool)":
        "hook: ObsTelemetry.HealthzFlipsTo503WhenShardIsPaused stalls a shard",
    "appscope::query::Follower::reloads() const":
        "observer: QueryFollower.* and test_prop_query count reloads",
    "appscope::query::Follower::current() const":
        "observer: QueryFollower.EmptyDirectoryThrowsInputError",
    "appscope::obs::HealthWatchdog::stalls() const":
        "observer: ObsWatchdog.StatefulEvaluateCountsFlips and ObsTelemetry.*",
    "appscope::util::TraceRecorder::record(appscope::util::TraceEvent const&)":
        "hook: Trace.* and test_prop_fuzz record hand-made events",
    "appscope::util::Json::parse(%s)" % STRING_VIEW:
        "reader: test_json, test_metrics, test_obs and test_metrics_determinism "
        "read metrics, trace and /statusz documents",
    "appscope::util::Json::at(%s) const" % STRING_VIEW:
        "reader: as Json::parse",
    "appscope::util::Json::at(unsigned long) const":
        "reader: test_json and test_metrics",
    "appscope::util::Json::contains(%s) const" % STRING_VIEW:
        "reader: test_json, test_obs and test_metrics_determinism",
    "appscope::util::Json::operator==(appscope::util::Json const&) const":
        "oracle: Json.DumpParseRoundTrip",
    "appscope::util::MetricsRegistry::~MetricsRegistry()":
        "destructor of a singleton that is never destroyed",
    "appscope::util::TraceRecorder::~TraceRecorder()":
        "destructor of a singleton that is never destroyed",
}


def nm(path):
    """(type, demangled name) of every defined symbol in an object or archive."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            yield parts[1], parts[2]


def is_executable(path):
    return os.path.isfile(path) and os.access(path, os.X_OK)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    build = sys.argv[1]
    src = os.path.join(build, "src")
    libs = [os.path.join(d, f) for d, _, files in os.walk(src)
            for f in files if f.startswith("libappscope_") and f.endswith(".a")]
    programs = [os.path.join(d, f)
                for d in sorted(os.path.join(src, s) for s in os.listdir(src))
                if os.path.isdir(d)
                for f in sorted(os.listdir(d))
                if f.startswith("appscope_") and is_executable(os.path.join(d, f))]
    for sub in ("bench", "examples"):
        d = os.path.join(build, sub)
        if os.path.isdir(d):
            programs += [os.path.join(d, f) for f in sorted(os.listdir(d))
                         if is_executable(os.path.join(d, f))]
    if not libs or not programs:
        sys.exit("unlinked.py: no libraries or no programs under %s" % build)

    defined = {name for lib in libs for kind, name in nm(lib)
               if kind == "T" and name.startswith("appscope::")}
    linked = {name for prog in programs for kind, name in nm(prog)
              if kind in "TtWw"}
    unlinked = sorted(defined - linked)

    failures = ["unlinked: " + name for name in unlinked if name not in ALLOWED]
    failures += ["allowed but not defined: " + name
                 for name in sorted(ALLOWED) if name not in defined]
    failures += ["allowed but linked: " + name
                 for name in sorted(ALLOWED) if name in defined and name in linked]
    print("unlinked.py: %d library functions, %d programs, %d unlinked (%d allowed)"
          % (len(defined), len(programs), len(unlinked),
             sum(name in ALLOWED for name in unlinked)))
    for line in failures:
        print(line)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
