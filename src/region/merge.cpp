#include "region/merge.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "region/spec.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace appscope::region {

namespace {

constexpr std::size_t kSumChunk = 4096;

[[noreturn]] void reject(const std::string& what) {
  throw util::InputError("region merge: " + what);
}

/// Canonical region order: sorted by region id. Accumulation follows this
/// order exclusively, which is what makes the merge independent of the
/// caller's input ordering.
std::vector<std::size_t> canonical_order(
    const std::vector<io::LoadedSnapshot>& snapshots) {
  std::vector<std::size_t> order(snapshots.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return snapshots[a].config.region < snapshots[b].config.region;
  });
  return order;
}

void validate_inputs(const std::vector<io::LoadedSnapshot>& snapshots,
                     const std::vector<std::size_t>& order) {
  for (const io::LoadedSnapshot& snap : snapshots) {
    if (snap.config.region.empty()) {
      reject("input snapshot carries no region id (a format v1.0 "
             "single-country snapshot cannot join a multi-region merge)");
    }
    if (!valid_region_id(snap.config.region)) {
      reject("input region id \"" + snap.config.region +
             "\" is not a valid region key");
    }
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::string& prev = snapshots[order[i - 1]].config.region;
    const std::string& cur = snapshots[order[i]].config.region;
    if (prev == cur) {
      reject("two inputs claim region \"" + cur + "\"");
    }
  }
  // Regions must share one catalog up to per-region popularity tilt: same
  // services, same order, same categories. Rates may differ (the tilt only
  // rescales them); the merged snapshot embeds the canonical-first
  // region's catalog as the national model prior.
  const workload::ServiceCatalog& first = *snapshots[order[0]].catalog;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const workload::ServiceCatalog& other = *snapshots[order[i]].catalog;
    if (other.size() != first.size()) {
      reject("service catalogs disagree in size between regions \"" +
             snapshots[order[0]].config.region + "\" and \"" +
             snapshots[order[i]].config.region + "\"");
    }
    for (std::size_t s = 0; s < first.size(); ++s) {
      if (first[s].name != other[s].name ||
          first[s].category != other[s].category) {
        reject("service catalogs disagree at index " + std::to_string(s) +
               " between regions \"" + snapshots[order[0]].config.region +
               "\" and \"" + snapshots[order[i]].config.region +
               "\" (" + first[s].name + " vs " + other[s].name + ")");
      }
    }
  }
}

/// Lays the region territories out on a grid of identical square cells and
/// concatenates them into one national territory with dense commune ids.
geo::Territory merge_territories(
    const std::vector<io::LoadedSnapshot>& snapshots,
    const std::vector<std::size_t>& order,
    const std::vector<std::size_t>& commune_offset, double* out_side_km) {
  const std::size_t regions = order.size();
  const std::size_t cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(regions))));
  const std::size_t rows = (regions + cols - 1) / cols;

  double cell_km = 0.0;
  for (const io::LoadedSnapshot& snap : snapshots) {
    cell_km = std::max(cell_km, snap.territory->side_km());
  }
  const double side_km = cell_km * static_cast<double>(std::max(cols, rows));
  *out_side_km = side_km;

  std::vector<geo::Commune> communes;
  std::vector<geo::Metro> metros;
  std::vector<geo::Polyline> tgv_lines;
  std::size_t total_communes = 0;
  for (std::size_t i : order) total_communes += snapshots[i].territory->size();
  communes.reserve(total_communes);

  for (std::size_t pos = 0; pos < regions; ++pos) {
    const io::LoadedSnapshot& snap = snapshots[order[pos]];
    const geo::Territory& t = *snap.territory;
    const std::string& id = snap.config.region;
    const double dx = static_cast<double>(pos % cols) * cell_km;
    const double dy = static_cast<double>(pos / cols) * cell_km;
    const std::uint32_t metro_offset = static_cast<std::uint32_t>(metros.size());

    for (const geo::Commune& c : t.communes()) {
      geo::Commune merged = c;
      merged.id = static_cast<geo::CommuneId>(commune_offset[pos] + c.id);
      merged.name = id + "/" + c.name;
      merged.centroid.x_km += dx;
      merged.centroid.y_km += dy;
      if (c.metro != geo::Commune::kNoMetro) merged.metro = c.metro + metro_offset;
      communes.push_back(std::move(merged));
    }
    for (const geo::Metro& m : t.metros()) {
      geo::Metro merged = m;
      merged.name = id + "/" + m.name;
      merged.center.x_km += dx;
      merged.center.y_km += dy;
      metros.push_back(std::move(merged));
    }
    for (const geo::Polyline& line : t.tgv_lines()) {
      geo::Polyline merged = line;
      for (geo::Point& p : merged.points) {
        p.x_km += dx;
        p.y_km += dy;
      }
      tgv_lines.push_back(std::move(merged));
    }
  }
  return geo::Territory(std::move(communes), std::move(metros),
                        std::move(tgv_lines), side_km);
}

/// out[i] = sum over regions (canonical order) of inputs[r][i]. The chunk
/// decomposition depends only on the length, and every output cell is
/// written by exactly one chunk with a fixed-order inner sum — bitwise
/// identical at any thread count.
void sum_in_canonical_order(const std::vector<std::span<const double>>& inputs,
                            std::span<double> out) {
  util::parallel_for(0, out.size(), kSumChunk,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         double acc = 0.0;
                         for (const std::span<const double> in : inputs) {
                           acc += in[i];
                         }
                         out[i] = acc;
                       }
                     });
}

}  // namespace

std::vector<io::LoadedSnapshot> load_region_snapshots(
    const std::vector<std::string>& snapshot_paths) {
  if (snapshot_paths.empty()) reject("no input snapshot paths");
  std::vector<io::LoadedSnapshot> snapshots(snapshot_paths.size());
  util::ThreadPool::global().run(snapshot_paths.size(), [&](std::size_t i) {
    snapshots[i] = io::read_snapshot(snapshot_paths[i]);
  });
  return snapshots;
}

io::LoadedSnapshot merge_loaded_snapshots(
    const std::vector<io::LoadedSnapshot>& snapshots) {
  if (snapshots.empty()) reject("no input snapshots");
  util::ScopedSpan span("region.merge");
  const std::vector<std::size_t> order = canonical_order(snapshots);
  validate_inputs(snapshots, order);

  const std::size_t regions = order.size();
  const std::size_t services = snapshots[order[0]].catalog->size();

  std::vector<std::size_t> commune_offset(regions, 0);
  std::size_t total_communes = 0;
  for (std::size_t pos = 0; pos < regions; ++pos) {
    commune_offset[pos] = total_communes;
    total_communes += snapshots[order[pos]].territory->size();
  }

  io::LoadedSnapshot merged;

  // The merged config is descriptive: canonical-first region's parameters
  // with the national dimensions and a composite region key, so the config
  // hash identifies exactly this set of regions.
  merged.config = snapshots[order[0]].config;
  std::string national_id = "national:";
  for (std::size_t pos = 0; pos < regions; ++pos) {
    if (pos > 0) national_id += "+";
    national_id += snapshots[order[pos]].config.region;
  }
  merged.config.region = national_id;

  double side_km = 0.0;
  merged.territory = std::make_shared<const geo::Territory>(
      merge_territories(snapshots, order, commune_offset, &side_km));
  merged.config.country.commune_count = total_communes;
  merged.config.country.metro_count = merged.territory->metros().size();
  merged.config.country.side_km = side_km;

  {
    std::vector<std::uint32_t> counts;
    counts.reserve(total_communes);
    for (std::size_t pos = 0; pos < regions; ++pos) {
      const auto& region_counts = snapshots[order[pos]].subscribers->counts();
      counts.insert(counts.end(), region_counts.begin(), region_counts.end());
    }
    merged.subscribers =
        std::make_shared<const workload::SubscriberBase>(std::move(counts));
  }
  merged.catalog = snapshots[order[0]].catalog;

  synth::AggregateTables<double>& agg = merged.aggregates;
  agg = synth::AggregateTables<double>(services, total_communes);

  // Hourly tables and totals sum in canonical order; per-commune totals
  // concatenate at the regions' commune offsets (pure placement).
  std::vector<std::span<const double>> national;
  std::vector<std::span<const double>> urbanization;
  for (std::size_t pos = 0; pos < regions; ++pos) {
    const synth::AggregateTables<double>& in = snapshots[order[pos]].aggregates;
    national.push_back(in.national());
    urbanization.push_back(in.urbanization());
    for (const auto d :
         {workload::Direction::kDownlink, workload::Direction::kUplink}) {
      for (std::size_t s = 0; s < services; ++s) {
        std::ranges::copy(in.commune_row(s, d),
                          agg.commune_row(s, d).subspan(commune_offset[pos]).begin());
      }
    }
    agg.downlink_total += in.downlink_total;
    agg.uplink_total += in.uplink_total;
    agg.cells += in.cells;
  }
  sum_in_canonical_order(national, agg.national());
  sum_in_canonical_order(urbanization, agg.urbanization());
  return merged;
}

MergeStats write_national_snapshot(const io::LoadedSnapshot& merged,
                                   const std::string& out_path) {
  if (out_path.empty()) reject("empty output path");

  MergeStats stats;
  stats.communes = merged.territory->size();
  stats.services = merged.catalog->size();
  stats.subscribers = merged.subscribers->total();
  {
    // Recover the canonical ids from the composite key ("national:a+b+c").
    const std::string& key = merged.config.region;
    const std::size_t colon = key.find(':');
    std::size_t pos = colon == std::string::npos ? 0 : colon + 1;
    while (pos < key.size()) {
      std::size_t plus = key.find('+', pos);
      if (plus == std::string::npos) plus = key.size();
      stats.region_ids.push_back(key.substr(pos, plus - pos));
      pos = plus + 1;
    }
  }
  stats.regions = stats.region_ids.size();

  stats.bytes = io::write_snapshot(out_path, merged.config, *merged.territory,
                                   *merged.subscribers, *merged.catalog,
                                   merged.aggregates)
                    .bytes;

  if (util::MetricsRegistry::enabled()) {
    auto& metrics = util::MetricsRegistry::global();
    metrics.add("region.merge.regions", stats.regions);
    metrics.add("region.merge.communes", stats.communes);
    metrics.add("region.merge.bytes", stats.bytes);
  }
  return stats;
}

MergeStats merge_region_snapshots(const std::vector<std::string>& snapshot_paths,
                                  const std::string& out_path) {
  const io::LoadedSnapshot merged =
      merge_loaded_snapshots(load_region_snapshots(snapshot_paths));
  return write_national_snapshot(merged, out_path);
}

}  // namespace appscope::region
