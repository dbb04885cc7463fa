// appscope/util/csv.hpp
//
// Minimal RFC-4180-ish CSV writing used by benches and examples to export
// figure data for external plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace appscope::util {

/// Streaming CSV writer. Quotes fields containing separators/quotes/newlines.
class CsvWriter {
 public:
  /// Writes to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out, char sep = ',');

  /// Writes one row; each field is escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::string escape(std::string_view field) const;

  std::ostream& out_;
  char sep_;
  std::size_t rows_ = 0;
};

}  // namespace appscope::util
