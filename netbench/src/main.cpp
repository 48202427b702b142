// netbench: times the network simulator end to end on named workloads
// and, in a separate traced run, splits the time over its layers.
//
//   netbench --workload NAME|all --seed N --seconds S --trace 0|1
//            [--jobs J] [--git-sha SHA] [--trace-dir DIR] [--print-pin]
//
// A run is a closed loop of rounds. Each round is a fixed set of trials
// (trials [r*n, (r+1)*n) of the workload) handed to
// ExperimentRunner::run_chunked, whose workers each pull the next
// 16-trial chunk when they finish one; the next round starts when the
// last chunk merges. Round 0 warms the process up untimed; timed rounds
// then repeat until S seconds of round time and at least 100 timed
// trials have passed. Every trial's result and every round's merged
// summary are checked (see check.hpp), a sample of trials is re-run
// serially, and at the default seed round 0 must match its pinned digest.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the
// per-layer ones from an untraced and a traced phase of S/2 seconds
// each, a verdict-count pass and the layer replay (replay.hpp), and
// writes the traced phase's spans to DIR. The last stdout line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "check.hpp"
#include "replay.hpp"
#include "sim/runner.hpp"
#include "stamp.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using fdb::sim::ExperimentRunner;
using fdb::sim::FidelityMode;
using fdb::sim::NetworkSimSummary;
using fdb::sim::NetworkSimulator;
using fdb::sim::NetworkTrialResult;
using fdb::sim::TrialStageTimes;
using netbench::Span;
using netbench::now_ns;

constexpr std::int64_t kRoundParent = -2;  // fixed up once the round ends
constexpr std::size_t kMaxErrors = 8;

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// One round's accumulator: run_chunked default-constructs one per chunk,
// fills it serially on one worker, and merges them in chunk order.
// ---------------------------------------------------------------------------

template <bool Traced>
struct RoundAcc {
  NetworkSimSummary summary;
  // CPU time of each successful run_trial on its worker thread. Not wall
  // time: on a shared host a trial the hypervisor preempts would read as
  // slow, and that noise swamped p90 (spread 0.29 over 10 seeds).
  std::vector<double> trial_s;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> probes;  // trial, digest
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  // Traced only.
  TrialStageTimes stages;
  double add_s = 0.0;
  double merge_s = 0.0;
  std::vector<Span> spans;
  std::vector<std::pair<std::thread::id, std::size_t>> arena_bytes;

  void note_error(std::string e) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(e));
  }

  void merge(const RoundAcc& o) {
    const std::int64_t m0 = Traced ? now_ns() : 0;
    summary.merge(o.summary);
    const std::int64_t m1 = Traced ? now_ns() : 0;
    trial_s.insert(trial_s.end(), o.trial_s.begin(), o.trial_s.end());
    probes.insert(probes.end(), o.probes.begin(), o.probes.end());
    failed += o.failed;
    for (const auto& e : o.errors) note_error(e);
    if constexpr (Traced) {
      stages.merge(o.stages);
      add_s += o.add_s;
      merge_s += 1e-9 * static_cast<double>(m1 - m0);
      const auto offset = static_cast<std::int64_t>(spans.size());
      for (Span s : o.spans) {
        if (s.parent >= 0) s.parent += offset;
        spans.push_back(s);
      }
      spans.push_back(
          {"runner.summary_merge", m0, m1, kRoundParent, -1, false});
      arena_bytes.insert(arena_bytes.end(), o.arena_bytes.begin(),
                         o.arena_bytes.end());
    }
  }
};

struct TrialCtx {
  const NetworkSimulator* sim;
  netbench::ResultShape shape;
  std::vector<std::uint64_t> probe_trials;
};

// Probes trial 0 and a seed-picked trial of round 0 for the purity check.
TrialCtx make_ctx(const NetworkSimulator& sim, std::uint64_t trials_per_round,
                  std::uint64_t seed) {
  const std::uint64_t pick =
      1 + ((seed * 0x9e3779b97f4a7c15ULL) >> 33) % (trials_per_round - 1);
  return {&sim, netbench::shape_of(sim), {0, pick}};
}

// Synthesis scratch of a traced worker thread (run_trial's own arena is
// private, and the traced call needs the overload that takes one).
fdb::sim::SynthArena& worker_arena() {
  thread_local fdb::sim::SynthArena arena;
  return arena;
}

// Runs, checks and accumulates one trial inside a worker.
template <bool Traced>
void run_one(const TrialCtx& ctx, std::uint64_t trial, RoundAcc<Traced>& acc) {
  try {
    NetworkTrialResult res;
    TrialStageTimes st;
    if constexpr (Traced) {
      if (acc.spans.empty()) {
        acc.spans.push_back(
            {"runner.chunk", now_ns(), 0, kRoundParent, -1, false});
      }
    }
    const std::int64_t t0 = Traced ? now_ns() : 0;
    const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    if constexpr (Traced) {
      res = ctx.sim->run_trial(trial, worker_arena(), &st);
    } else {
      res = ctx.sim->run_trial(trial);
    }
    const double c1 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const std::int64_t t1 = Traced ? now_ns() : 0;
    const auto bad = netbench::violations(res, ctx.shape);
    if (!bad.empty()) {
      ++acc.failed;
      acc.note_error("trial " + std::to_string(trial) + ": " + bad.front());
    }
    if (std::find(ctx.probe_trials.begin(), ctx.probe_trials.end(), trial) !=
        ctx.probe_trials.end()) {
      acc.probes.push_back({trial, netbench::counter_digest(res)});
    }
    const std::int64_t a0 = Traced ? now_ns() : 0;
    acc.summary.add(res);
    acc.trial_s.push_back(c1 - c0);
    if constexpr (Traced) {
      const std::int64_t a1 = now_ns();
      acc.add_s += 1e-9 * static_cast<double>(a1 - a0);
      acc.stages.merge(st);
      const auto id = static_cast<std::int64_t>(trial);
      const auto trial_span = static_cast<std::int64_t>(acc.spans.size());
      acc.spans.push_back({"network_sim.run_trial", t0, t1, 0, id, false});
      // The stage split is a set of durations; lay them out back to back
      // inside the trial span.
      std::int64_t at = t0;
      const std::pair<const char*, double> parts[] = {
          {"network_sim.setup", st.setup_s},
          {"network_sim.slot_loop", st.slot_loop_s},
          {"network_sim.verdict", st.verdict_s},
          {"network_sim.escalate", st.escalate_s}};
      for (const auto& [name, s] : parts) {
        if (s <= 0.0) continue;
        const auto d = static_cast<std::int64_t>(s * 1e9);
        acc.spans.push_back({name, at, at + d, trial_span, id, true});
        at += d;
      }
      acc.spans.push_back({"runner.summary_add", a0, a1, 0, id, false});
      acc.spans[0].t1_ns = a1;
      const auto self = std::this_thread::get_id();
      if (acc.arena_bytes.empty() || acc.arena_bytes.back().first != self) {
        acc.arena_bytes.push_back({self, 0});
      }
      acc.arena_bytes.back().second = worker_arena().capacity_bytes();
    }
  } catch (const std::exception& e) {
    ++acc.failed;
    acc.note_error("trial " + std::to_string(trial) + " threw: " + e.what());
  }
}

// ---------------------------------------------------------------------------
// A phase: rounds until the time and sample budget is met.
// ---------------------------------------------------------------------------

struct Phase {
  NetworkSimSummary total;
  NetworkSimSummary round0;
  std::vector<double> trial_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t rounds = 0;        ///< including an untimed warm-up round
  std::size_t timed_rounds = 0;
  std::size_t attempted = 0;     ///< trials run, warm-up included
  std::size_t trials = 0;        ///< timed trials
  std::size_t chunks = 0;        ///< chunks of the timed rounds
  /// Peak resident memory once the warm-up round has run: setup plus one
  /// round's working set. Later rounds re-run the same working set on
  /// fresh runner threads, and how much of the dead threads' malloc
  /// arenas the allocator retains varies run to run (whole ~11 MB steps
  /// on phy-waveform-2gw), so the end-of-run peak is not reproducible.
  double warm_rss_mb = 0.0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> probes;
  // Traced phases only.
  TrialStageTimes stages;
  double add_s = 0.0;
  double merge_s = 0.0;
  std::vector<Span> spans;
  std::size_t arena_bytes = 0;

  double slots_per_s() const {
    return per(static_cast<double>(total.slots), wall_s);
  }
};

// With `warm_up`, round 0 is run and checked but not timed: the first
// round of a process pays one-off costs (fresh pages, new worker
// arenas) that sometimes stall it several-fold. `after_round` runs on
// the calling thread between rounds, outside the timed spans.
template <bool Traced>
Phase run_phase(const netbench::Workload& w, const TrialCtx& ctx,
                const ExperimentRunner& runner, double seconds, bool warm_up,
                const std::function<void()>& after_round = {}) {
  Phase ph;
  const std::size_t n = w.trials_per_round;
  while (ph.timed_rounds == 0 || ph.wall_s < seconds ||
         ph.trials < netbench::min_samples_for_percentile(90.0)) {
    const std::uint64_t base = ph.rounds * n;
    const double c0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t r0 = now_ns();
    RoundAcc<Traced> acc = runner.run_chunked<RoundAcc<Traced>>(
        n, [&](RoundAcc<Traced>& a, std::size_t i) {
          run_one<Traced>(ctx, base + i, a);
        });
    const std::int64_t r1 = now_ns();
    const double cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - c0;

    // Whole-round check: a merged summary that breaks an invariant
    // taints every trial in it.
    const auto bad = netbench::violations(acc.summary, ctx.shape,
                                          acc.trial_s.size());
    if (!bad.empty()) {
      acc.failed = n;
      acc.note_error("round " + std::to_string(ph.rounds) + ": " + bad.front());
    }
    if (ph.rounds == 0) ph.round0 = acc.summary;
    ph.probes.insert(ph.probes.end(), acc.probes.begin(), acc.probes.end());
    ph.failed += acc.failed;
    ph.attempted += n;
    for (auto& e : acc.errors) {
      if (ph.errors.size() < kMaxErrors) ph.errors.push_back(std::move(e));
    }
    ++ph.rounds;
    if (warm_up && ph.rounds == 1) {
      ph.warm_rss_mb = peak_rss_mb();
      if (after_round) after_round();
      continue;
    }

    ph.cpu_s += cpu;
    ph.wall_s += 1e-9 * static_cast<double>(r1 - r0);
    ph.total.merge(acc.summary);
    ph.trial_s.insert(ph.trial_s.end(), acc.trial_s.begin(), acc.trial_s.end());
    ++ph.timed_rounds;
    ph.trials += n;
    if constexpr (Traced) {
      ph.stages.merge(acc.stages);
      ph.add_s += acc.add_s;
      ph.merge_s += acc.merge_s;
      const auto offset = static_cast<std::int64_t>(ph.spans.size());
      const std::int64_t round_span =
          offset + static_cast<std::int64_t>(acc.spans.size());
      for (Span s : acc.spans) {
        s.parent = s.parent == kRoundParent ? round_span
                   : s.parent >= 0          ? s.parent + offset
                                            : s.parent;
        ph.spans.push_back(s);
      }
      ph.spans.push_back({"runner.run_chunked", r0, r1, -1, -1, false});
      // Live arena bytes this round: each worker thread's arena once.
      std::vector<std::pair<std::thread::id, std::size_t>> per_thread;
      for (const auto& [id, bytes] : acc.arena_bytes) {
        auto it = std::find_if(per_thread.begin(), per_thread.end(),
                               [&](const auto& p) { return p.first == id; });
        if (it == per_thread.end()) {
          per_thread.push_back({id, bytes});
        } else {
          it->second = std::max(it->second, bytes);
        }
      }
      std::size_t live = 0;
      for (const auto& p : per_thread) live += p.second;
      ph.arena_bytes = std::max(ph.arena_bytes, live);
    }
    ph.chunks += (n + ExperimentRunner::kTrialsPerChunk - 1) /
                 ExperimentRunner::kTrialsPerChunk;
    if (after_round) after_round();
  }
  return ph;
}

// Serial re-run of the probed trials: run_trial(i) must be pure.
void check_purity(const NetworkSimulator& sim, Phase& ph) {
  for (const auto& [trial, digest] : ph.probes) {
    if (netbench::counter_digest(sim.run_trial(trial)) != digest) {
      ++ph.failed;
      if (ph.errors.size() < kMaxErrors) {
        ph.errors.push_back("trial " + std::to_string(trial) +
                            " differs when re-run serially");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& ms,
                         const std::string& prefix) {
  std::string out;
  for (const Metric& m : ms) {
    if (!out.empty()) out += ", ";
    out += "\"" + prefix + m.name + "\": {\"value\": " + fmt(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  int trace = 0;
  std::size_t jobs = 0;
  std::string git_sha = "unknown";
  std::string trace_dir = ".bench_build/netbench/traces";
  bool print_pin = false;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Times make_scenario + simulator construction in blocks spread over the
// whole run, and reports the fastest block's median. On the shared host
// the same microsecond-scale setup reads anywhere from 1.7 to 3.5 us, in
// slow spells that last seconds; a median over one contiguous window
// took whichever spell it fell in (two 10-run sets: 1.8 vs 2.9 us).
// A short sleep before each block ends a spell more often than not:
// back to back, a third of 16-block runs never saw a fast block; with
// the sleeps, none of them missed one.
class SetupSampler {
 public:
  SetupSampler(const netbench::Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed) {}

  /// One block, unless the last one is less than kSpacingNs old.
  void between_rounds() {
    if (blocks_.empty() || now_ns() - last_ns_ >= kSpacingNs) block();
  }

  /// Tops the run up to kMinBlocks blocks; the fastest block's median.
  double seconds() {
    while (blocks_.size() < kMinBlocks) block();
    return *std::min_element(blocks_.begin(), blocks_.end());
  }

 private:
  static constexpr std::int64_t kSpacingNs = 500'000'000;
  static constexpr std::int64_t kBlockNs = 25'000'000;
  static constexpr auto kGap = std::chrono::milliseconds(20);
  static constexpr std::size_t kMinBlocks = 24;

  // At least one construction and kBlockNs of them, after a kGap sleep.
  void block() {
    std::this_thread::sleep_for(kGap);
    std::vector<double> reps;
    const std::int64_t start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      const NetworkSimulator sim(w_.make_config(seed_));
      reps.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    } while (now_ns() - start < kBlockNs);
    blocks_.push_back(netbench::median(reps));
    last_ns_ = now_ns();
  }

  const netbench::Workload& w_;
  std::uint64_t seed_;
  std::vector<double> blocks_;
  std::int64_t last_ns_ = 0;
};

void report_errors(const std::vector<std::string>& errors) {
  for (const auto& e : errors) std::printf("  FAIL %s\n", e.c_str());
}

// Pinned-digest check of round 0 at the default seed; a mismatch fails
// the whole run.
bool check_pin(const netbench::Workload& w, const Options& opt,
               const Phase& ph, Outcome& out) {
  if (opt.print_pin) {
    std::printf("  pin: {0x%016llxULL, {",
                static_cast<unsigned long long>(
                    netbench::counter_digest(ph.round0)));
    const auto m = netbench::moments(ph.round0);
    for (std::size_t i = 0; i < m.size(); ++i) {
      std::printf("%s%.17g", i ? ", " : "", m[i]);
    }
    std::printf("}}\n");
  }
  if (opt.seed != w.default_seed || w.pin.moments.empty()) return true;
  const auto bad = netbench::pin_mismatches(ph.round0, w.pin);
  if (bad.empty()) {
    std::printf("  round 0 matches the pinned digest at default seed %llu\n",
                static_cast<unsigned long long>(w.default_seed));
    return true;
  }
  report_errors(bad);
  out.failed = out.attempted;
  return false;
}

Outcome run_end_to_end(const netbench::Workload& w, const Options& opt,
                       const ExperimentRunner& runner) {
  Outcome out;
  const auto sim = std::make_unique<NetworkSimulator>(w.make_config(opt.seed));
  const std::uint64_t n = w.trials_per_round;
  const TrialCtx ctx = make_ctx(*sim, n, opt.seed);
  SetupSampler setup(w, opt.seed);
  Phase ph = run_phase<false>(w, ctx, runner, opt.seconds, true,
                              [&] { setup.between_rounds(); });
  check_purity(*sim, ph);
  const double setup_s = setup.seconds();
  out.attempted = ph.attempted;
  out.failed = std::min<std::uint64_t>(ph.failed, ph.attempted);
  report_errors(ph.errors);
  check_pin(w, opt, ph, out);

  const double slots = static_cast<double>(ph.total.slots);
  const double p = netbench::highest_reportable_percentile(ph.trial_s.size());
  std::printf("  %zu rounds x %llu trials = %zu timed trials, %.3f s; "
              "delivery ratio %.4f; highest reportable percentile p%g\n",
              ph.timed_rounds, static_cast<unsigned long long>(n),
              ph.trial_s.size(), ph.wall_s, ph.total.delivery_ratio(), p);
  out.metrics = {
      {"slots_per_s", per(slots, ph.wall_s), "slot/s"},
      {"cpu_ms_per_kslot", per(ph.cpu_s * 1e3, slots / 1e3), "ms"},
      {"trial_ms_p50", netbench::median(ph.trial_s) * 1e3, "ms"},
      {"trial_ms_p90", netbench::quantile(ph.trial_s, 0.9) * 1e3, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", ph.warm_rss_mb, "MB"},
  };
  print_metrics(out.metrics);
  std::printf("  %-36s %16.6g %s\n", "trials_failed_frac",
              per(static_cast<double>(out.failed),
                  static_cast<double>(out.attempted)),
              "ratio");
  return out;
}

// Demodulate calls and their outcomes, from a frame-logging re-run of
// trials [0, 16).
struct VerdictCounts {
  double calls_per_trial = 0.0;
  double ok_frac = 0.0;
};

VerdictCounts count_verdicts(const NetworkSimulator& sim,
                             const ExperimentRunner& runner) {
  const auto mode = sim.config().fleet.fidelity;
  if (mode == FidelityMode::kAnalytic) return {};
  auto config = sim.config();
  config.fleet.record_frames = true;
  const NetworkSimulator rec(config);
  struct Tally {
    std::uint64_t resolved = 0, escalated = 0, escalated_ok = 0, decodes = 0;
  };
  const std::size_t trials = ExperimentRunner::kTrialsPerChunk;
  const auto tallies = runner.map(trials, [&](std::size_t i) {
    const auto r = rec.run_trial(i);
    Tally t;
    t.resolved = r.frames.size();
    for (const auto& f : r.frames) {
      if (f.escalated) {
        ++t.escalated;
        if (f.delivered) ++t.escalated_ok;
      }
    }
    for (const auto d : r.gateway_decodes) t.decodes += d;
    return t;
  });
  Tally sum;
  for (const Tally& t : tallies) {
    sum.resolved += t.resolved;
    sum.escalated += t.escalated;
    sum.escalated_ok += t.escalated_ok;
    sum.decodes += t.decodes;
  }
  VerdictCounts vc;
  if (mode == FidelityMode::kWaveform) {
    // Every resolved frame is demodulated at every gateway.
    const double calls = static_cast<double>(sum.resolved * sim.num_gateways());
    vc.calls_per_trial = calls / static_cast<double>(trials);
    vc.ok_frac = per(static_cast<double>(sum.decodes), calls);
  } else {
    // At least one demodulate per escalated frame (more when the
    // best-margin gateway fails); success counted per frame.
    vc.calls_per_trial =
        static_cast<double>(sum.escalated) / static_cast<double>(trials);
    vc.ok_frac = per(static_cast<double>(sum.escalated_ok),
                     static_cast<double>(sum.escalated));
  }
  return vc;
}

Outcome run_traced(const netbench::Workload& w, const Options& opt,
                   const ExperimentRunner& runner) {
  Outcome out;
  const auto sim = std::make_unique<NetworkSimulator>(w.make_config(opt.seed));
  const auto& config = sim->config();
  const std::uint64_t n = w.trials_per_round;
  const TrialCtx ctx = make_ctx(*sim, n, opt.seed);

  // The run's time is split between an untraced and a traced phase; the
  // ratio of their rates is the tracing overhead.
  Phase plain = run_phase<false>(w, ctx, runner, opt.seconds / 2, true);
  Phase traced = run_phase<true>(w, ctx, runner, opt.seconds / 2, false);
  check_purity(*sim, traced);
  out.attempted = plain.attempted + traced.attempted;
  out.failed = std::min<std::uint64_t>(plain.failed + traced.failed,
                                       out.attempted);
  report_errors(plain.errors);
  report_errors(traced.errors);
  check_pin(w, opt, plain, out);
  if (netbench::counter_digest(plain.round0) !=
      netbench::counter_digest(traced.round0)) {
    std::printf("  FAIL traced round 0 differs from untraced round 0\n");
    out.failed = out.attempted;
  }

  const VerdictCounts vc = count_verdicts(*sim, runner);

  // Workload shape for the replay, from the traced phase's counters.
  const NetworkSimSummary& t = traced.total;
  const double trials = static_cast<double>(t.trials);
  const double on_air =
      static_cast<double>((t.frames_attempted() + t.relay_tx_frames) *
                          sim->frame_slots());
  const auto shape = netbench::replay_shape(
      *sim, per(on_air, static_cast<double>(t.busy_slots)));
  const auto u = netbench::replay_layers(config, shape, traced.spans);
  if (!u.modem_decoded || !u.fd_decoded) {
    std::printf("  FAIL replayed frame did not decode "
                "(modem %d, fd_modem %d)\n",
                u.modem_decoded, u.fd_decoded);
    out.failed = out.attempted;
  }

  // Attribution: unit cost x count = estimated ms per trial, beside the
  // measured TrialStageTimes split.
  const double s = static_cast<double>(shape.slot_samples);
  const double trial_samples = static_cast<double>(config.slots_per_trial) * s;
  const double gw_slots = per(static_cast<double>(t.gateway_slots_synthesized),
                              trials);
  const double ms = 1e-6;  // ns -> ms
  struct Row {
    const char* layer;
    const char* stage;
    double unit_cost;
    const char* unit;
    double count;
    double est_ms;
  };
  std::vector<Row> rows;
  const auto mode = config.fleet.fidelity;
  const bool waveform = mode == FidelityMode::kWaveform;
  if (mode != FidelityMode::kAnalytic) {
    const char* synth_stage = waveform ? "slot_loop" : "escalate";
    const char* decode_stage = waveform ? "verdict" : "escalate";
    const double env_samples =
        waveform ? gw_slots * s
                 : vc.calls_per_trial *
                       static_cast<double>(shape.escalation_samples);
    rows = {
        {"ambient_source", waveform ? "setup" : "escalate",
         u.ambient_ns_per_sample, "ns/sample", trial_samples,
         trial_samples * u.ambient_ns_per_sample * ms},
        {"synthesis", synth_stage, u.synthesis_ns_per_sample, "ns/sample",
         gw_slots * s, gw_slots * s * u.synthesis_ns_per_sample * ms},
        {"awgn(+rng)", synth_stage, u.awgn_ns_per_sample, "ns/sample",
         gw_slots * s, gw_slots * s * u.awgn_ns_per_sample * ms},
        {"envelope", synth_stage, u.envelope_ns_per_sample, "ns/sample",
         env_samples, env_samples * u.envelope_ns_per_sample * ms},
        {"fd_modem", decode_stage, u.fd_modem_us, "us/frame",
         vc.calls_per_trial, vc.calls_per_trial * u.fd_modem_us * 1e-3},
    };
  }
  const double measured_ms = per(traced.stages.total_s() * 1e3, trials);
  double est_ms = 0.0;
  for (const Row& r : rows) est_ms += r.est_ms;
  const double residual = per(measured_ms - est_ms, measured_ms);

  std::printf("  layer replay: %zu samples/slot, %zu gateways, %.3f tags on "
              "air per busy slot, %zu-sample decode window\n",
              shape.slot_samples, shape.gateways, shape.mean_reflecting,
              shape.window_samples);
  std::printf("  %-16s %-10s %12s %-10s %14s %12s\n", "layer", "stage",
              "unit cost", "unit", "count/trial", "est ms/trial");
  for (const Row& r : rows) {
    std::printf("  %-16s %-10s %12.4f %-10s %14.1f %12.4f\n", r.layer, r.stage,
                r.unit_cost, r.unit, r.count, r.est_ms);
  }
  std::printf("  (sync/decode inside fd_modem: correlator %.4f ns/sample, "
              "modem sync %.2f us, decode %.2f us per frame; rng %.3f ns/cn "
              "inside awgn)\n",
              u.correlator_ns_per_sample, u.sync_us(), u.modem_frame_at_us,
              u.rng_ns_per_cn);
  std::printf("  %-10s %14s %14s\n", "stage", "measured ms", "estimated ms");
  const std::pair<const char*, double> stages[] = {
      {"setup", traced.stages.setup_s},
      {"slot_loop", traced.stages.slot_loop_s},
      {"verdict", traced.stages.verdict_s},
      {"escalate", traced.stages.escalate_s}};
  for (const auto& [name, sec] : stages) {
    double est = 0.0;
    for (const Row& r : rows) {
      if (std::string_view(r.stage) == name) est += r.est_ms;
    }
    std::printf("  %-10s %14.4f %14.4f\n", name, per(sec * 1e3, trials), est);
  }
  std::printf("  %-10s %14.4f %14.4f  residual %.4f of measured\n", "trial",
              measured_ms, est_ms, residual);

  // Per-layer self times from the spans.
  std::printf("  %-28s %9s %14s %14s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, tot] : netbench::totals_by_name(traced.spans)) {
    std::printf("  %-28s %9zu %14.3f %14.3f\n", name.c_str(), tot.count,
                1e-6 * static_cast<double>(tot.total_ns),
                1e-6 * static_cast<double>(tot.self_ns));
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path = opt.trace_dir + "/" + w.name + "-seed" +
                           std::to_string(opt.seed) + ".spans.jsonl";
  if (netbench::write_spans_jsonl(path, traced.spans)) {
    std::printf("  %zu spans written to %s\n", traced.spans.size(),
                path.c_str());
  } else {
    std::printf("  could not write spans to %s\n", path.c_str());
  }
  const double overhead = 1.0 - per(traced.slots_per_s(), plain.slots_per_s());
  std::printf("  untraced %.1f slot/s, traced %.1f slot/s\n",
              plain.slots_per_s(), traced.slots_per_s());

  // Counts come from round 0 of the traced phase: a fixed trial set, so
  // they repeat exactly at a given seed.
  const NetworkSimSummary& c = traced.round0;
  const double ct = static_cast<double>(c.trials);
  const auto per_trial = [&](std::uint64_t v) {
    return per(static_cast<double>(v), ct);
  };
  const double jobs = static_cast<double>(runner.jobs());
  double busy = 0.0;
  for (const double x : traced.trial_s) busy += x;
  const double rounds = static_cast<double>(traced.timed_rounds);
  out.metrics = {
      {"ambient_source.ns_per_sample", u.ambient_ns_per_sample, "ns/sample"},
      {"synthesis.slot_ns_per_sample", u.synthesis_ns_per_sample, "ns/sample"},
      {"awgn.ns_per_sample", u.awgn_ns_per_sample, "ns/sample"},
      {"rng.ns_per_cn", u.rng_ns_per_cn, "ns/cn"},
      {"envelope.ns_per_sample", u.envelope_ns_per_sample, "ns/sample"},
      {"synthesis.gateway_slots", per_trial(c.gateway_slots_synthesized),
       "count/trial"},
      {"correlator.ns_per_sample", u.correlator_ns_per_sample, "ns/sample"},
      {"modem.sync_us_per_frame", u.sync_us(), "us/frame"},
      {"modem.decode_us_per_frame", u.modem_frame_at_us, "us/frame"},
      {"fd_modem.us_per_frame", u.fd_modem_us, "us/frame"},
      {"fd_modem.decode_ok_frac", vc.ok_frac, "ratio"},
      {"fd_modem.calls", vc.calls_per_trial, "count/trial"},
      {"network_sim.setup_ms_per_trial",
       per(traced.stages.setup_s * 1e3, trials), "ms/trial"},
      {"network_sim.slot_loop_ns_per_slot",
       per(traced.stages.slot_loop_s * 1e9, static_cast<double>(t.slots)),
       "ns/slot"},
      {"network_sim.verdict_ms_per_trial",
       per(traced.stages.verdict_s * 1e3, trials), "ms/trial"},
      {"network_sim.escalate_ms_per_trial",
       per(traced.stages.escalate_s * 1e3, trials), "ms/trial"},
      {"runner.add_us_per_trial", per(traced.add_s * 1e6, trials), "us/trial"},
      {"network_sim.frames_attempted", per_trial(c.frames_attempted()),
       "count/trial"},
      {"network_sim.frames_delivered", per_trial(c.frames_delivered()),
       "count/trial"},
      {"network_sim.busy_slots", per_trial(c.busy_slots), "count/trial"},
      {"network_sim.delivery_ratio", c.delivery_ratio(), "ratio"},
      {"fleet.frames_analytic", per_trial(c.frames_resolved_analytic),
       "count/trial"},
      {"fleet.frames_escalated", per_trial(c.frames_escalated), "count/trial"},
      {"fleet.frames_culled", per_trial(c.frames_culled), "count/trial"},
      {"fleet.escalation_rate", c.escalation_rate(), "ratio"},
      {"fleet.synth_slot_fraction", c.synthesized_slot_fraction(), "ratio"},
      {"runner.busy_frac", per(busy, traced.wall_s * jobs), "ratio"},
      {"runner.chunks", per(static_cast<double>(traced.chunks), rounds),
       "count/round"},
      {"runner.merge_ms", per(traced.merge_s * 1e3, rounds), "ms/round"},
      {"synthesis.arena_capacity_mb",
       static_cast<double>(traced.arena_bytes) / (1024.0 * 1024.0), "MB"},
      {"relay.tx_frames", per_trial(c.relay_tx_frames), "count/trial"},
      {"relay.delivered", per_trial(c.relayed_delivered), "count/trial"},
      {"relay.drops", per_trial(c.relay_drops), "count/trial"},
      {"faults.frames_exposed", per_trial(c.faulted_frames_attempted),
       "count/trial"},
      {"mac.failovers", per_trial(c.failovers), "count/trial"},
      {"attrib.residual_frac", residual, "ratio"},
      {"trace.overhead_frac", overhead, "ratio"},
  };
  print_metrics(out.metrics);
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t& v) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME|all --seed N --seconds S "
               "--trace 0|1 [--jobs J] [--git-sha SHA] [--trace-dir DIR] "
               "[--print-pin]\nworkloads:",
               argv0, why.c_str(), argv0);
  for (const auto& w : netbench::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--print-pin") {
      opt.print_pin = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(argv[0], "missing value for " + std::string(arg));
    }
    const std::string_view val = argv[++i];
    std::uint64_t u = 0;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed" && parse_u64(val, u)) {
      opt.seed = u;
      opt.have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(std::string(val).c_str());
    } else if (arg == "--trace" && (val == "0" || val == "1")) {
      opt.trace = val == "1";
    } else if (arg == "--jobs" && parse_u64(val, u) && u > 0) {
      opt.jobs = u;
    } else if (arg == "--git-sha") {
      opt.git_sha.clear();
      for (const char ch : val) {
        if (std::isxdigit(static_cast<unsigned char>(ch))) opt.git_sha += ch;
      }
      if (opt.git_sha.empty()) opt.git_sha = "unknown";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return usage(argv[0], "bad argument " + std::string(arg) + " " +
                                std::string(val));
    }
  }
  if (!opt.have_seed) return usage(argv[0], "--seed is required");
  if (!(opt.seconds > 0.0)) return usage(argv[0], "--seconds must be > 0");
  std::vector<const netbench::Workload*> selected;
  if (opt.workload == "all") {
    for (const auto& w : netbench::workloads()) selected.push_back(&w);
  } else if (const auto* w = netbench::find_workload(opt.workload)) {
    selected.push_back(w);
  } else {
    return usage(argv[0], "unknown workload '" + opt.workload + "'");
  }

  if (opt.jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opt.jobs = std::min<std::size_t>(hw ? hw : 1, 4);
  }
  const ExperimentRunner runner(opt.jobs);
  std::printf("build %s\n",
              netbench::build_stamp_json(runner.jobs(), opt.git_sha).c_str());

  Outcome all;
  std::string json;
  for (const auto* w : selected) {
    std::printf("workload %s (seed %llu, default %llu, %zu trials/round, "
                "%s run)\n",
                w->name, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(w->default_seed),
                w->trials_per_round, opt.trace ? "traced" : "untraced");
    std::fflush(stdout);
    Outcome o;
    try {
      o = opt.trace ? run_traced(*w, opt, runner)
                    : run_end_to_end(*w, opt, runner);
    } catch (const std::exception& e) {
      std::printf("  FAIL %s\n", e.what());
      o.attempted = std::max<std::uint64_t>(o.attempted, 1);
      o.failed = o.attempted;
    }
    all.attempted += o.attempted;
    all.failed += o.failed;
    if (!json.empty() && !o.metrics.empty()) json += ", ";
    json += metrics_json(o.metrics, selected.size() > 1
                                        ? std::string(w->name) + "/"
                                        : std::string());
    std::fflush(stdout);
  }
  const bool correct = all.failed == 0 && all.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), json.c_str());
  return correct ? 0 : 1;
}
