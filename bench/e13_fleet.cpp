// E13 — Hybrid-fidelity fleet engine. The waveform simulator's
// O(tags x gateways x samples) per slot caps scenes at dozens of tags;
// the fleet engine (sim/fleet.hpp) resolves clear frames analytically,
// escalates only contested ones to sample-level synthesis, and culls
// tags outside every gateway's interference range. This experiment
// measures what that buys: slots/s on the warehouse-10k scenario at
// 100 / 1k / 10k tags under each fidelity mode, the escalation and
// culling accounting behind the speedup, and a cross-fidelity
// agreement table pinning hybrid verdict statistics against the full
// waveform ground truth.
//
// The wall-clock section is explicitly excluded from the jobs-1-vs-8
// determinism gate (its name carries the "[wall-clock]" marker the
// gate strips); every other section is bit-identical at any --jobs.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/network_sim.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

namespace {

using fdb::sim::FidelityMode;

struct SceneSize {
  std::size_t tags;
  std::size_t slots_per_trial;
};

fdb::sim::NetworkSimConfig warehouse(std::size_t tags,
                                     std::size_t slots_per_trial,
                                     FidelityMode mode) {
  auto scenario = fdb::sim::make_scenario("warehouse-10k", tags, 29);
  scenario.config.slots_per_trial = slots_per_trial;
  scenario.config.fleet.fidelity = mode;
  return scenario.config;
}

struct TimedRun {
  fdb::sim::NetworkSimSummary summary;
  double seconds = 0.0;
};

TimedRun run_timed(const fdb::sim::ExperimentRunner& runner,
                   const fdb::sim::NetworkSimConfig& config,
                   std::size_t trials) {
  const fdb::sim::NetworkSimulator sim(config);
  TimedRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.summary = runner.run_chunked<fdb::sim::NetworkSimSummary>(
      trials, [&sim](fdb::sim::NetworkSimSummary& acc, std::size_t trial) {
        acc.add(sim.run_trial(trial));
      });
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = fdb::sim::parse_cli(argc, argv, /*default_trials=*/2,
                                       "network trials per fleet arm");
  const fdb::sim::ExperimentRunner runner(cli.jobs);

  // --stages: keep only matching arms, e8-style (exit 2 on a bad regex
  // or an empty selection). Arm names: "<tags>/<mode>" for the timing
  // sweep, "agreement/<scenario>", "stage-breakdown/<mode>".
  const bool have_filter = !cli.stages_filter.empty();
  std::regex stage_re;
  if (have_filter) {
    try {
      stage_re = std::regex(cli.stages_filter);
    } catch (const std::regex_error& err) {
      std::fprintf(stderr, "%s: bad --stages regex '%s': %s\n", argv[0],
                   cli.stages_filter.c_str(), err.what());
      return 2;
    }
  }
  std::size_t matched = 0;
  const auto selected = [&](const std::string& name) {
    if (!have_filter) return true;
    if (!std::regex_search(name, stage_re)) return false;
    ++matched;
    return true;
  };

  fdb::sim::Report report("e13_fleet");
  report.set_run_info(cli.trials, runner.jobs());

  const SceneSize sizes[] = {{100, 96}, {1000, 48}, {10000, 24}};
  const FidelityMode modes[] = {FidelityMode::kWaveform,
                                FidelityMode::kAnalytic,
                                FidelityMode::kHybrid};

  // Rows are buffered locally and the sections created afterwards:
  // Report::section returns a reference that is only valid until the
  // next section() call.
  std::vector<std::vector<fdb::sim::ReportCell>> timing_rows;
  std::vector<std::vector<fdb::sim::ReportCell>> stats_rows;
  for (const SceneSize& size : sizes) {
    double waveform_rate = 0.0;
    for (const FidelityMode mode : modes) {
      if (!selected(std::to_string(size.tags) + "/" +
                    fdb::sim::fidelity_name(mode))) {
        continue;
      }
      const auto config = warehouse(size.tags, size.slots_per_trial, mode);
      const auto run = run_timed(runner, config, cli.trials);
      const auto& s = run.summary;
      const double rate =
          run.seconds > 0.0 ? static_cast<double>(s.slots) / run.seconds
                            : 0.0;
      if (mode == FidelityMode::kWaveform) waveform_rate = rate;
      timing_rows.push_back({size.tags, fdb::sim::fidelity_name(mode),
                             size.slots_per_trial, cli.trials,
                             run.seconds * 1e3, rate,
                             waveform_rate > 0.0 ? rate / waveform_rate
                                                 : 0.0});
      const fdb::sim::NetworkSimulator sim(config);
      stats_rows.push_back(
          {size.tags, fdb::sim::fidelity_name(mode), s.frames_attempted(),
           s.frames_delivered(), s.delivery_ratio(), s.collisions,
           s.escalation_rate(), s.frames_resolved_analytic,
           s.frames_escalated, s.frames_culled, sim.num_culled(),
           s.synthesized_slot_fraction()});
    }
  }
  {
    auto& timing = report.section(
        "warehouse-10k slots/s by scene size and fidelity [wall-clock]",
        {"tags", "mode", "slots_per_trial", "trials", "wall_ms",
         "slots_per_s", "speedup_vs_waveform"});
    for (auto& row : timing_rows) timing.add_row(std::move(row));
  }
  {
    auto& stats = report.section(
        "fleet verdict and escalation accounting (deterministic)",
        {"tags", "mode", "attempted", "delivered", "delivery_ratio",
         "collisions", "escalation_rate", "frames_analytic",
         "frames_escalated", "frames_culled", "culled_tags",
         "synth_slot_fraction"});
    for (auto& row : stats_rows) stats.add_row(std::move(row));
  }

  // Where does a 10k-tag trial actually spend its time? Serial runs
  // with the TrialStageTimes accumulator (pure measurement — the
  // summaries are bit-identical with or without it); excluded from the
  // determinism gates like every [wall-clock] section.
  {
    std::vector<std::vector<fdb::sim::ReportCell>> stage_rows;
    for (const FidelityMode mode : modes) {
      const std::string arm =
          std::string("stage-breakdown/") + fdb::sim::fidelity_name(mode);
      if (!selected(arm)) continue;
      const auto config = warehouse(10000, 24, mode);
      const fdb::sim::NetworkSimulator sim(config);
      fdb::sim::SynthArena arena;
      fdb::sim::TrialStageTimes st;
      fdb::sim::NetworkSimSummary sum;
      for (std::size_t t = 0; t < cli.trials; ++t) {
        sum.add(sim.run_trial(t, arena, &st));
      }
      stage_rows.push_back({std::size_t{10000},
                            fdb::sim::fidelity_name(mode), cli.trials,
                            st.setup_s * 1e3, st.slot_loop_s * 1e3,
                            st.verdict_s * 1e3, st.escalate_s * 1e3,
                            st.total_s() * 1e3});
    }
    auto& stage_sec = report.section(
        "trial stage breakdown, 10k tags, serial [wall-clock]",
        {"tags", "mode", "trials", "setup_ms", "slot_loop_ms", "verdict_ms",
         "escalate_ms", "total_ms"});
    for (auto& row : stage_rows) stage_sec.add_row(std::move(row));
  }

  // Cross-fidelity agreement at a size the waveform path can still
  // afford: the hybrid engine must tell the same network story.
  auto& agree = report.section(
      "cross-fidelity agreement, 100 tags (waveform vs hybrid)",
      {"scenario", "dr_waveform", "dr_hybrid", "dr_abs_err", "coll_waveform",
       "coll_hybrid", "latency_waveform", "latency_hybrid",
       "escalation_rate"});
  for (const char* name : {"warehouse-10k", "city-block"}) {
    if (!selected(std::string("agreement/") + name)) continue;
    auto scenario = fdb::sim::make_scenario(name, 100, 29);
    scenario.config.slots_per_trial = 96;
    scenario.config.fleet.fidelity = FidelityMode::kWaveform;
    const auto wf = run_timed(runner, scenario.config, cli.trials).summary;
    scenario.config.fleet.fidelity = FidelityMode::kHybrid;
    const auto hy = run_timed(runner, scenario.config, cli.trials).summary;
    const auto coll_rate = [](const fdb::sim::NetworkSimSummary& s) {
      return s.frames_attempted()
                 ? static_cast<double>(s.collisions) /
                       static_cast<double>(s.frames_attempted())
                 : 0.0;
    };
    agree.add_row({name, wf.delivery_ratio(), hy.delivery_ratio(),
                   std::abs(wf.delivery_ratio() - hy.delivery_ratio()),
                   coll_rate(wf), coll_rate(hy),
                   wf.mean_detect_latency_slots(),
                   hy.mean_detect_latency_slots(), hy.escalation_rate()});
  }

  report.section("build", {"build"}).add_row({fdb::sim::build_flavour()});
  report.add_note(
      "Verdict bands: clear-deliver needs the worst-case-interference "
      "margin >= +6 dB, clear-fail needs the zero-interference margin "
      "<= -5 dB; only the contested band in between is synthesized "
      "sample-level in hybrid mode (tests/sim/cross_fidelity_test.cpp "
      "pins clear verdicts to ground truth frame-for-frame).");
  report.add_note(
      "The [wall-clock] sections are excluded from the jobs-1-vs-8 "
      "determinism gate; all other sections are bit-identical at any "
      "--jobs.");
  if (have_filter && matched == 0) {
    std::fprintf(stderr, "%s: --stages '%s' matched no arm\n", argv[0],
                 cli.stages_filter.c_str());
    return 2;
  }
  return report.emit(cli) ? 0 : 1;
}
