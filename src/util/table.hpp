// Console table printer: the bench harnesses print the paper's
// tables/figure series as aligned text so runs are self-describing.
#pragma once

#include <string>
#include <vector>

namespace fdb {

/// Collects rows of string cells and renders an aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a data row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.6g.
  void add_row_numeric(const std::vector<double>& cells);

  /// Renders with column alignment and a header rule.
  std::string render() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double like printf %.6g (helper shared by benches).
std::string format_g(double v);

}  // namespace fdb
