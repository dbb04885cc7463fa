#include "query/plan.hpp"

#include <string>

#include "geo/commune.hpp"
#include "synth/aggregate_tables.hpp"
#include "util/error.hpp"

namespace appscope::query {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw util::InputError("query: " + what);
}

}  // namespace

QueryPlan plan_slice(const io::SnapshotHeader& header, const Slice& slice) {
  QueryPlan plan;
  plan.slice = slice;
  canonicalize(plan.slice);
  const Slice& q = plan.slice;

  const synth::AggregateLayout layout{header.services, header.communes};
  const std::size_t services = layout.services;
  const std::size_t communes = layout.communes;
  const std::size_t hours = synth::AggregateLayout::kHours;

  // --- Validate the aggregate shape -------------------------------------
  if (q.op == Op::kTopK) {
    if (q.group_by == GroupBy::kNone) {
      reject("op=topk needs a group-by (the k largest of *what*)");
    }
    if (q.k == 0) reject("op=topk needs k >= 1");
  }
  if (q.group_by == GroupBy::kCommune && q.source != Source::kCommuneTotals) {
    reject("group-by=commune needs source=communes");
  }
  if (q.group_by == GroupBy::kHour && q.source == Source::kCommuneTotals) {
    reject("group-by=hour needs an hourly source (national or urbanization)");
  }
  if ((q.group_by == GroupBy::kCommune || q.group_by == GroupBy::kHour) &&
      q.op == Op::kMax) {
    // Per-commune / per-hour maxima would need an elementwise-max kernel;
    // the sum-family ops cover the paper's queries.
    reject("op=max supports group-by=service or no grouping only");
  }

  // --- Service predicate -> rows ----------------------------------------
  for (const std::uint32_t s : q.services) {
    if (s >= services) {
      reject("service id " + std::to_string(s) + " out of range (snapshot has " +
             std::to_string(services) + ")");
    }
  }
  std::vector<std::uint32_t> row_services = q.services;
  if (row_services.empty()) {
    row_services.resize(services);
    for (std::size_t s = 0; s < services; ++s) {
      row_services[s] = static_cast<std::uint32_t>(s);
    }
  }

  // --- Hour / commune / class predicates -> window + mask ----------------
  const bool hourly = q.source != Source::kCommuneTotals;
  if (hourly) {
    const std::uint32_t end =
        q.hour_end == 0 ? static_cast<std::uint32_t>(hours) : q.hour_end;
    if (q.hour_begin >= end || end > hours) {
      reject("hour range [" + std::to_string(q.hour_begin) + ", " +
             std::to_string(end) + ") invalid for a " + std::to_string(hours) +
             "-hour snapshot");
    }
    if (!q.communes.empty()) {
      reject("commune predicate needs source=communes");
    }
    plan.row_len = hours;
    plan.col_begin = q.hour_begin;
    plan.col_end = end;
  } else {
    if (q.hour_begin != 0 || q.hour_end != 0) {
      reject("hour range does not apply to source=communes (weekly totals)");
    }
    plan.row_len = communes;
    plan.col_begin = 0;
    plan.col_end = communes;
    if (!q.communes.empty()) {
      plan.mask.assign(communes, 0);
      for (const std::uint32_t c : q.communes) {
        if (c >= communes) {
          reject("commune id " + std::to_string(c) +
                 " out of range (snapshot has " + std::to_string(communes) +
                 ")");
        }
        plan.mask[c] = 1;
      }
    }
  }
  plan.selected_per_row =
      plan.mask.empty() ? plan.col_end - plan.col_begin : q.communes.size();

  // --- Source -> section + row offsets ----------------------------------
  switch (q.source) {
    case Source::kNational: {
      if (q.urbanization >= 0) {
        reject("urbanization class needs source=urbanization");
      }
      plan.section = io::SectionId::kNationalSeries;
      plan.rows.reserve(row_services.size());
      for (const std::uint32_t s : row_services) {
        plan.rows.push_back({s, 0, layout.national_offset(s, q.direction)});
      }
      break;
    }
    case Source::kCommuneTotals: {
      if (q.urbanization >= 0) {
        reject("urbanization class needs source=urbanization");
      }
      plan.section = io::SectionId::kCommuneTotals;
      plan.rows.reserve(row_services.size());
      for (const std::uint32_t s : row_services) {
        plan.rows.push_back({s, 0, layout.commune_offset(s, q.direction)});
      }
      break;
    }
    case Source::kUrbanization: {
      if (q.urbanization >= static_cast<int>(geo::kUrbanizationCount)) {
        reject("urbanization class " + std::to_string(q.urbanization) +
               " out of range (0.." +
               std::to_string(geo::kUrbanizationCount - 1) + ")");
      }
      plan.section = io::SectionId::kUrbanizationSeries;
      for (const std::uint32_t s : row_services) {
        for (std::size_t u = 0; u < geo::kUrbanizationCount; ++u) {
          if (q.urbanization >= 0 &&
              u != static_cast<std::size_t>(q.urbanization)) {
            continue;
          }
          plan.rows.push_back(
              {s, static_cast<std::uint32_t>(u),
               layout.urbanization_offset(s, static_cast<geo::Urbanization>(u),
                                          q.direction)});
        }
      }
      break;
    }
  }

  plan.bytes_touched = static_cast<std::uint64_t>(plan.rows.size()) *
                       (plan.col_end - plan.col_begin) * sizeof(double);
  return plan;
}

}  // namespace appscope::query
