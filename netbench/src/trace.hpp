// Spans recorded by the benchmark around its calls into each layer.
//
// A span is a named host-time interval with a parent and, where it
// belongs to one, a trial id. Spans live in memory (per-chunk vectors
// merged in chunk order, so the dump order does not depend on
// scheduling) and are written out once, at exit.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover; children are clipped to the parent
// and overlapping children are counted once.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace netbench {

struct Span {
  const char* name = "";      ///< static string: layer.operation
  std::int64_t t0_ns = 0;     ///< start, ns since the benchmark's epoch
  std::int64_t t1_ns = 0;     ///< end
  std::int64_t parent = -1;   ///< index of the parent span, -1 for a root
  std::int64_t trial = -1;    ///< trial index, -1 outside a trial
  /// Laid out from a duration (TrialStageTimes) rather than timed as an
  /// interval: back-to-back children of their trial span.
  bool synthetic = false;

  std::int64_t duration_ns() const { return t1_ns - t0_ns; }
};

/// Self time of every span (same indexing as `spans`). A parent may sit
/// before or after its children; a parent index out of range makes the
/// span a root.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

struct SpanTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per-name totals of duration and self time.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// One JSON object per line: id, name, start_ns, end_ns, parent, trial,
/// synthetic. Returns false when the file cannot be written.
bool write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans);

/// Nanoseconds since a process-wide steady-clock epoch.
std::int64_t now_ns();

}  // namespace netbench
