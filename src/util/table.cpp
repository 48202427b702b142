#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace fdb {

std::string format_g(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_row_numeric(const std::vector<double>& cells) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (const double v : cells) row.push_back(format_g(v));
  add_row(std::move(row));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "") << row[c]
         << std::string(widths[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w;
  total += 2 * (widths.empty() ? 0 : widths.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace fdb
