// appscope_query — interactive slice/aggregate queries over sealed
// "appscope.snapshot/1" files: only the header plus the sections a query
// touches are read and CRC-validated.
//
// Run:  ./appscope_query --snapshot=out/latest.snapshot --op=sum
//       ./appscope_query --dir=serve_out --source=national
//           --direction=downlink --hours=19:20 --op=sum
//       ./appscope_query --dir=serve_out --source=communes --op=topk
//           --k=10 --group-by=commune
//       ./appscope_query --dir=serve_out --follow --repeat=10
//       ./appscope_query --snapshot=out/latest.snapshot --slicing --check
//
// --slicing prints the same network-slicing economics lines paper_report
// emits (the CI soak job cross-checks them textually); --check recomputes
// the answer on a full load (io::read_snapshot, every section checked) and
// fails loudly on divergence.
// Under --follow, --admin-port=N (or APPSCOPE_ADMIN_PORT) attaches the
// same live telemetry plane as appscope_serve, so a long poll loop is
// scrapeable too.
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>

#include "core/dataset.hpp"
#include "core/slicing.hpp"
#include "geo/commune.hpp"
#include "io/snapshot.hpp"
#include "obs/telemetry.hpp"
#include "query/engine.hpp"
#include "query/follower.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

using namespace appscope;

namespace {

std::vector<std::uint32_t> parse_id_list(const std::string& text,
                                         const char* what) {
  std::vector<std::uint32_t> ids;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    if (token.empty()) {
      throw util::InputError(std::string("empty id in --") + what);
    }
    ids.push_back(static_cast<std::uint32_t>(util::parse_int(token)));
    pos = comma + 1;
  }
  return ids;
}

query::Slice slice_from_args(const util::CliArgs& args) {
  query::Slice slice;
  const std::string source = args.get_string("source", "national");
  if (source == "national") {
    slice.source = query::Source::kNational;
  } else if (source == "communes") {
    slice.source = query::Source::kCommuneTotals;
  } else if (source == "urbanization") {
    slice.source = query::Source::kUrbanization;
  } else {
    throw util::InputError("unknown --source=" + source +
                           " (national|communes|urbanization)");
  }

  const std::string direction = args.get_string("direction", "downlink");
  if (direction == "downlink") {
    slice.direction = workload::Direction::kDownlink;
  } else if (direction == "uplink") {
    slice.direction = workload::Direction::kUplink;
  } else {
    throw util::InputError("unknown --direction=" + direction);
  }

  const std::string hours = args.get_string("hours", "");
  if (!hours.empty()) {
    const std::size_t colon = hours.find(':');
    if (colon == std::string::npos) {
      throw util::InputError("--hours expects begin:end (e.g. 19:20)");
    }
    // Each end is a week hour, checked before the narrowing cast.
    const auto week_hour = [&](const std::string& text) {
      const std::int64_t hour = util::parse_int(text);
      if (hour < 0 || hour > 168) {
        throw util::InputError("--hours=" + hours +
                               ": each end must be in [0, 168]");
      }
      return static_cast<std::uint32_t>(hour);
    };
    slice.hour_begin = week_hour(hours.substr(0, colon));
    slice.hour_end = week_hour(hours.substr(colon + 1));
  }
  slice.services = parse_id_list(args.get_string("services", ""), "services");
  slice.communes = parse_id_list(args.get_string("communes", ""), "communes");
  slice.urbanization = static_cast<int>(
      args.get_int("class", -1, 0,
                   static_cast<std::int64_t>(geo::kUrbanizationCount) - 1));

  const std::string op = args.get_string("op", "sum");
  if (op == "sum") {
    slice.op = query::Op::kSum;
  } else if (op == "max") {
    slice.op = query::Op::kMax;
  } else if (op == "mean") {
    slice.op = query::Op::kMean;
  } else if (op == "topk") {
    slice.op = query::Op::kTopK;
  } else {
    throw util::InputError("unknown --op=" + op + " (sum|max|mean|topk)");
  }
  slice.k = args.get_count<std::uint32_t>("k", 5);

  const std::string group = args.get_string("group-by", "none");
  if (group == "none") {
    slice.group_by = query::GroupBy::kNone;
  } else if (group == "service") {
    slice.group_by = query::GroupBy::kService;
  } else if (group == "commune") {
    slice.group_by = query::GroupBy::kCommune;
  } else if (group == "hour") {
    slice.group_by = query::GroupBy::kHour;
  } else {
    throw util::InputError("unknown --group-by=" + group);
  }
  return slice;
}

/// The exact lines core::write_markdown_report prints for the slicing
/// section — the CI soak job compares them against paper_report output.
void print_slicing(std::ostream& out, const core::SlicingReport& slices) {
  out << "### Network-slicing economics (the Sec. 1 motivation)\n\n"
      << "- static per-slice capacity (sum of peaks): "
      << util::format_bytes(slices.static_capacity) << "/h\n"
      << "- dynamic hourly reallocation: "
      << util::format_bytes(slices.dynamic_capacity) << "/h\n"
      << "- multiplexing gain from temporal heterogeneity: "
      << util::format_percent(slices.multiplexing_gain(), 1) << "\n";
}

/// Naive full-load recomputation of the slice aggregate, for --check. Runs
/// plain sequential loops over the fully loaded dataset, so agreement is
/// up to summation-order rounding (checked at 1e-9 relative).
double naive_value(const core::TrafficDataset& dataset,
                   const query::Slice& slice, const query::QueryPlan& plan) {
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t cells = 0;
  const auto visit = [&](double v) {
    sum += v;
    if (v > max) max = v;
    ++cells;
  };
  for (const query::RowRef& row : plan.rows) {
    if (slice.source == query::Source::kCommuneTotals) {
      for (std::size_t c = plan.col_begin; c < plan.col_end; ++c) {
        if (!plan.mask.empty() && plan.mask[c] == 0) continue;
        visit(dataset.commune_total(row.service,
                                    static_cast<geo::CommuneId>(c),
                                    slice.direction));
      }
    } else {
      const auto& series =
          slice.source == query::Source::kNational
              ? dataset.national_series(row.service, slice.direction)
              : dataset.urbanization_series(
                    row.service, static_cast<geo::Urbanization>(row.cls),
                    slice.direction);
      for (std::size_t h = plan.col_begin; h < plan.col_end; ++h) {
        visit(series[h]);
      }
    }
  }
  switch (slice.op) {
    case query::Op::kMax:
      return max;
    case query::Op::kMean:
      return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
    default:
      return sum;  // kSum; kTopK's overall value is the sum
  }
}

int check_against_full_load(const query::SnapshotView& view,
                            const query::Slice& slice,
                            const query::Result& result) {
  const core::TrafficDataset dataset = core::TrafficDataset::load(view.path());
  const query::QueryPlan plan = query::plan_slice(view.header(), slice);
  const double expected = naive_value(dataset, plan.slice, plan);
  const double tolerance = 1e-9 * std::max(std::abs(expected), 1.0);
  if (std::abs(result.value - expected) > tolerance) {
    std::cerr << "appscope_query: CHECK FAILED: query path "
              << util::format_double_roundtrip(result.value)
              << " vs full-load " << util::format_double_roundtrip(expected)
              << "\n";
    return 1;
  }
  // The slicing figure must agree *bitwise* across the two paths.
  const core::SlicingReport via_query =
      core::analyze_slicing(view, slice.direction);
  const core::SlicingReport via_load =
      core::analyze_slicing(dataset, slice.direction);
  if (via_query.static_capacity != via_load.static_capacity ||
      via_query.dynamic_capacity != via_load.dynamic_capacity ||
      via_query.busy_hour != via_load.busy_hour) {
    std::cerr << "appscope_query: CHECK FAILED: slicing reports diverge "
                 "between the query and full-load paths\n";
    return 1;
  }
  std::cerr << "appscope_query: check OK (full-load path agrees)\n";
  return 0;
}

void print_result(std::ostream& out, const query::Slice& slice,
                  const query::Result& result) {
  out << query::canonical_query(slice) << "\n";
  out << "value " << util::format_double_roundtrip(result.value) << "\n";
  for (const query::GroupValue& g : result.groups) {
    out << query::group_by_name(slice.group_by) << " " << g.key << " "
        << util::format_double_roundtrip(g.value) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(
        argc, argv,
        {"snapshot", "dir", "source", "direction", "hours", "services",
         "communes", "class", "op", "k", "group-by", "follow", "repeat",
         "interval-ms", "cache", "slicing", "stats", "check", "trace",
         "admin-port", "admin-sample-ms"});
    if (args.has("help")) {
      std::cout << args.help();
      return 0;
    }
    util::write_metrics_at_exit();
    // A follow loop is commonly killed with Ctrl-C / SIGTERM mid-poll; the
    // handler flushes the metrics JSON so the run still leaves one behind.
    util::install_metrics_signal_flush();
    util::enable_trace_export(args.get_string("trace", ""));

    const std::string snapshot = args.get_string("snapshot", "");
    const std::string dir = args.get_string("dir", "");
    if ((snapshot.empty() && dir.empty()) ||
        (!snapshot.empty() && !dir.empty())) {
      std::cerr << "usage: appscope_query (--snapshot=<file> | --dir=<dir>) "
                   "[--follow] [query flags]\n";
      return 2;
    }

    const query::Slice slice = slice_from_args(args);
    const bool follow = args.has("follow");
    if (follow && dir.empty()) {
      std::cerr << "appscope_query: --follow needs --dir\n";
      return 2;
    }
    const auto repeat = args.get_count<std::size_t>("repeat", 1);
    const auto interval = std::chrono::milliseconds(
        args.get_count<std::uint32_t>("interval-ms", 200));

    // The admin flags are checked whether or not --follow starts the plane.
    const int admin_port = obs::resolve_admin_port(
        static_cast<int>(args.get_int("admin-port", -1, 0, 65535)));
    const auto admin_sample = std::chrono::milliseconds(
        args.get_count<std::uint32_t>("admin-sample-ms", 1000));
    std::unique_ptr<obs::TelemetryPlane> telemetry;
    if (follow && admin_port >= 0) {
      obs::TelemetryOptions topts;
      topts.admin.port = static_cast<std::uint16_t>(admin_port);
      topts.sampler.interval = admin_sample;
      telemetry = std::make_unique<obs::TelemetryPlane>(topts);
      telemetry->start();
      std::cerr << "appscope_query: admin endpoint on http://127.0.0.1:"
                << telemetry->port()
                << " (/metrics /healthz /statusz /tracez)\n";
    }

    query::Engine engine(
        {.cache_capacity = args.get_count<std::size_t>("cache", 128)});

    std::shared_ptr<const query::SnapshotView> view;
    query::Follower follower(dir);
    if (snapshot.empty()) {
      view = follower.refresh();
    } else {
      view = std::make_shared<const query::SnapshotView>(snapshot);
    }

    query::Result result;
    for (std::size_t i = 0; i < repeat; ++i) {
      if (i != 0) {
        std::this_thread::sleep_for(interval);
        if (follow) view = follower.refresh();
      }
      result = engine.run(*view, slice);
    }

    print_result(std::cout, slice, result);
    if (args.has("slicing")) {
      print_slicing(std::cout, core::analyze_slicing(*view, slice.direction));
    }
    if (args.has("stats")) {
      std::cerr << "appscope_query: snapshot " << view->path() << " ("
                << view->file_bytes() << " bytes, " << view->mapped_bytes()
                << " mapped), cache " << engine.cache().hits() << " hits / "
                << engine.cache().misses() << " misses, scanned "
                << result.bytes_scanned << " bytes\n";
    }
    if (args.has("check")) {
      return check_against_full_load(*view, slice, result);
    }
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "appscope_query: " << e.what() << "\n";
    return 1;
  }
}
