#include "query/snapshot_view.hpp"

#include "io/serialize.hpp"
#include "util/error.hpp"

namespace appscope::query {

SnapshotView::SnapshotView(const std::string& path) : reader_(path) {}

std::uint64_t SnapshotView::fingerprint() const noexcept {
  // FNV-1a over the identity fields; any republished snapshot with
  // different content changes file_bytes or table_crc (per-section CRCs
  // feed the table, the table CRC feeds the header).
  const io::SnapshotHeader& h = header();
  std::uint64_t x = 1469598103934665603ull;
  const auto mix = [&x](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      x ^= (v >> (8 * i)) & 0xff;
      x *= 1099511628211ull;
    }
  };
  mix(h.config_hash);
  mix(h.traffic_seed);
  mix(h.file_bytes);
  mix(h.table_crc);
  return x;
}

std::span<const double> SnapshotView::validated_column(
    io::SectionId id, std::size_t expected_elems) const {
  const std::span<const double> col = reader_.f64_section(id);
  if (col.size() != expected_elems) {
    throw util::InputError("snapshot: " + path() + ": section '" +
                           std::string(io::section_name(id)) +
                           "' element count disagrees with the header "
                           "dimensions");
  }
  return col;
}

std::span<const double> SnapshotView::column(io::SectionId id) const {
  switch (id) {
    case io::SectionId::kNationalSeries:
      return validated_column(id, layout().national_size());
    case io::SectionId::kCommuneTotals:
      return validated_column(id, layout().commune_size());
    case io::SectionId::kUrbanizationSeries:
      return validated_column(id, layout().urbanization_size());
    default:
      break;
  }
  throw util::PreconditionError(
      "SnapshotView::column: not an aggregate cube section");
}

std::span<const double> SnapshotView::national_row(std::size_t service,
                                                   workload::Direction d) const {
  APPSCOPE_REQUIRE(service < services(),
                   "SnapshotView::national_row: service out of range");
  return column(io::SectionId::kNationalSeries)
      .subspan(layout().national_offset(service, d),
               synth::AggregateLayout::kHours);
}

const workload::ServiceCatalog& SnapshotView::catalog() const {
  std::call_once(catalog_once_, [this] {
    catalog_ = std::make_unique<const workload::ServiceCatalog>(
        io::decode_catalog(reader_.section(io::SectionId::kCatalog)));
  });
  return *catalog_;
}

}  // namespace appscope::query
