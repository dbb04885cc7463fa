#include "util/csv.hpp"

#include <ostream>

namespace appscope::util {

CsvWriter::CsvWriter(std::ostream& out, char sep) : out_(out), sep_(sep) {}

std::string CsvWriter::escape(std::string_view field) const {
  const bool needs_quoting =
      field.find(sep_) != std::string_view::npos ||
      field.find('"') != std::string_view::npos ||
      field.find('\n') != std::string_view::npos ||
      field.find('\r') != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << sep_;
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace appscope::util
