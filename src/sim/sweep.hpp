// Parameter-sweep scaffolding shared by the bench binaries. Every
// experiment (bench/e*.cpp) has the same shape — vary one knob
// (distance, asymmetry k, channel BER, frame size), run the link
// simulator at each point, print one table row — so the sweep helper
// plus log/lin spacing keeps each bench main declarative: build the
// axis, map it through a row function, print the Table.
//
// Since the ExperimentRunner refactor the sweep is built on the
// parallel engine: rows are computed via ExperimentRunner::map, so a
// row function whose work is self-contained parallelises across the
// axis while the table keeps axis order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "util/table.hpp"

namespace fdb::sim {

/// Runs `row_fn` for every value in `values` through `runner`,
/// collecting table rows in axis order. Keeps the bench mains
/// declarative: sweep(runner, xs, fn).render(). `row_fn` must be safe to
/// call concurrently for distinct values.
template <typename T>
Table sweep(const ExperimentRunner& runner, std::vector<std::string> headers,
            const std::vector<T>& values,
            const std::function<std::vector<double>(const T&)>& row_fn) {
  Table table(std::move(headers));
  const auto rows = runner.map(
      values.size(), [&](std::size_t i) { return row_fn(values[i]); });
  for (const auto& row : rows) table.add_row_numeric(row);
  return table;
}

/// Serial convenience overload (single-job runner).
template <typename T>
Table sweep(std::vector<std::string> headers, const std::vector<T>& values,
            const std::function<std::vector<double>(const T&)>& row_fn) {
  return sweep(ExperimentRunner(1), std::move(headers), values, row_fn);
}

/// Logarithmically spaced values in [lo, hi], n points (lo, hi > 0).
/// n == 0 returns empty and n == 1 returns {lo}.
std::vector<double> logspace(double lo, double hi, std::size_t n);

/// Linearly spaced values in [lo, hi], n points.
/// n == 0 returns empty and n == 1 returns {lo}.
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace fdb::sim
