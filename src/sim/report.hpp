// Experiment reporting: every bench emits its results through a Report,
// which renders the familiar aligned text table and, on request,
// machine-readable CSV or JSON — so sweep outputs can feed plotting and
// perf-trajectory tooling instead of dying in a terminal scrollback.
//
// The companion CliOptions/parse_cli give all bench binaries the same
// three flags:
//
//   --trials N              trial count per sweep point (bench default if absent)
//   --jobs N                worker threads (0 = all hardware threads)
//   --format table|csv|json output format (default table)
//   --output PATH           also write the chosen format to a file
//   --stages REGEX          run only matching stages (benches that
//                           declare named stages, e.g. e8; others
//                           ignore it)
//
// JSON schema (one object per run):
//
//   {
//     "experiment": "e2_ber_vs_distance",
//     "trials": 60,              // 0 when the bench default was used per-point
//     "jobs": 8,
//     "sections": [
//       {"name": "main",
//        "columns": ["distance_m", "ber_fb_on", ...],
//        "rows": [[0.5, 0.0012, ...], ...]}   // cells: number or string
//     ],
//     "notes": ["Shape check: ..."]
//   }
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fdb::sim {

enum class ReportFormat { kTable, kCsv, kJson };

/// Options shared by every bench binary.
struct CliOptions {
  std::size_t trials = 0;  ///< 0 = use the bench's per-point defaults
  std::size_t jobs = 0;    ///< 0 = hardware concurrency
  ReportFormat format = ReportFormat::kTable;
  std::string output_path;   ///< empty = stdout only
  std::string stages_filter;  ///< ECMAScript regex; empty = all stages
};

/// Parses --trials/--jobs/--format/--output (+ --help). `default_trials`
/// seeds CliOptions::trials when the flag is absent (0 keeps "bench
/// decides per point"). Prints usage and exits 0 on --help, exits 2 on a
/// malformed flag — bench mains can call this unconditionally first.
CliOptions parse_cli(int argc, char** argv, std::size_t default_trials = 0,
                     const char* trials_help = "trials per sweep point");

/// One table cell: a number (rendered %.6g in text, full precision in
/// JSON) or a string label.
struct ReportCell {
  ReportCell() : is_number(true), number(0.0) {}
  ReportCell(double v) : is_number(true), number(v) {}          // NOLINT
  ReportCell(int v) : ReportCell(static_cast<double>(v)) {}     // NOLINT
  ReportCell(std::size_t v) : ReportCell(static_cast<double>(v)) {}  // NOLINT
  ReportCell(std::string s) : is_number(false), text(std::move(s)) {}  // NOLINT
  ReportCell(const char* s) : is_number(false), text(s) {}      // NOLINT

  bool is_number;
  double number = 0.0;
  std::string text;
};

/// One titled table within a report (most benches have exactly one;
/// e10 has a data-plane and a feedback-plane section).
struct ReportSection {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<ReportCell>> rows;

  void add_row(std::vector<ReportCell> cells);

  /// Convenience for all-numeric rows (what runner.map cells return).
  void add_row_numeric(const std::vector<double>& values);
};

/// The build flavour a bench was compiled in ("native" under
/// -DFDB_NATIVE=ON, else "portable"), so a committed trajectory file
/// says what produced it. Inline so it reads the including target's
/// FDB_NATIVE_BUILD define.
inline const char* build_flavour() {
#if defined(FDB_NATIVE_BUILD)
  return "native";
#else
  return "portable";
#endif
}

/// An experiment's full output: sections plus free-text notes (the
/// "shape check" commentary), renderable as table, CSV, or JSON.
class Report {
 public:
  explicit Report(std::string experiment);

  /// Adds a section and returns a reference valid until the next call.
  ReportSection& section(std::string name, std::vector<std::string> columns);

  void add_note(std::string note);

  /// Records the trial/job counts echoed into CSV/JSON metadata.
  void set_run_info(std::size_t trials, std::size_t jobs);

  std::string render(ReportFormat format) const;

  /// Renders to stdout in `options.format`; additionally writes the
  /// same rendering to `options.output_path` when set. Returns false
  /// (after complaining on stderr) when that file cannot be written, so
  /// bench mains can exit non-zero instead of silently losing output.
  [[nodiscard]] bool emit(const CliOptions& options) const;

  const std::string& experiment() const { return experiment_; }
  const std::vector<ReportSection>& sections() const { return sections_; }

 private:
  std::string render_table() const;
  std::string render_csv() const;
  std::string render_json() const;

  std::string experiment_;
  std::vector<ReportSection> sections_;
  std::vector<std::string> notes_;
  std::size_t trials_ = 0;
  std::size_t jobs_ = 0;
};

}  // namespace fdb::sim
