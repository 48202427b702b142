// E8 — Feasibility table: throughput of each receive-chain stage in
// samples (or chips) per second. A microcontroller-class decoder needs
// the whole chain to clear the ADC rate with a large margin; these
// numbers also put a floor under the flowgraph engine's overhead.
//
// Self-timed (no external benchmark library): each stage owns its state
// and runs `--trials` timed repetitions; repetition throughputs
// aggregate into RunningStats for mean/CI/min/max. When both correlator
// batch stages are selected, a serial paired run also measures their
// ratio (the statistic the SIMD ctest gate compares). Stages fan out
// across the runner's workers — keep --jobs 1 (the default here) for
// the cleanest timings, raise it for a quick smoke pass. Pipe
// `--format json --output BENCH_e8.json` to refresh the committed perf
// trajectory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "core/feedback.hpp"
#include "core/self_interference.hpp"
#include "dsp/correlator.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/moving_average.hpp"
#include "flowgraph/blocks_std.hpp"
#include "flowgraph/graph.hpp"
#include "phy/modem.hpp"
#include "phy/preamble.hpp"
#include "phy/slicer.hpp"
#include "phy/stream_rx.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

// Sink the compiler cannot prove dead, so timed loops survive -O2.
// thread_local: stages run on runner workers when --jobs > 1, and a
// shared non-atomic sink would be a racing read-modify-write.
thread_local volatile float g_sink = 0.0f;

std::vector<fdb::cf32> random_iq(std::size_t n, std::uint64_t seed) {
  fdb::Rng rng(seed);
  std::vector<fdb::cf32> samples(n);
  for (auto& s : samples) s = rng.cn(1.0);
  return samples;
}

std::vector<float> random_envelope(std::size_t n, std::uint64_t seed) {
  fdb::Rng rng(seed);
  std::vector<float> samples(n);
  for (auto& s : samples) {
    s = 1.0f + 0.1f * static_cast<float>(rng.uniform());
  }
  return samples;
}

struct StageResult {
  std::string name;
  std::size_t items_per_rep = 0;
  fdb::RunningStats msps;  // per-repetition throughput, Msamples/s
};

// Pre-batch reference correlator — the seed's per-sample algorithm,
// which recomputes the window mean and energy from scratch on every
// sample with modulo indexing. Kept here (not in the library) as the
// scalar-loop baseline the batch kernel's speedup is measured against.
class ScalarRefCorrelator {
 public:
  ScalarRefCorrelator(std::vector<float> pattern,
                      std::size_t samples_per_chip) {
    for (const float chip : pattern) {
      for (std::size_t s = 0; s < samples_per_chip; ++s) {
        stretched_.push_back(chip);
      }
    }
    double mean = 0.0;
    for (const float v : stretched_) mean += v;
    mean /= static_cast<double>(stretched_.size());
    for (auto& v : stretched_) {
      v -= static_cast<float>(mean);
      pattern_energy_ += static_cast<double>(v) * v;
    }
    window_len_ = stretched_.size();
    window_.assign(window_len_, 0.0f);
  }

  float process(float x) {
    window_[pos_] = x;
    pos_ = (pos_ + 1) % window_len_;
    if (filled_ < window_len_) {
      ++filled_;
      if (filled_ < window_len_) return 0.0f;
    }
    double mean = 0.0;
    for (const float v : window_) mean += v;
    mean /= static_cast<double>(window_len_);
    double dot = 0.0;
    double energy = 0.0;
    for (std::size_t i = 0; i < window_len_; ++i) {
      const double v = window_[(pos_ + i) % window_len_] - mean;
      dot += v * stretched_[i];
      energy += v * v;
    }
    const double denom = std::sqrt(energy * pattern_energy_);
    if (denom < 1e-12) return 0.0f;
    return static_cast<float>(dot / denom);
  }

 private:
  std::vector<float> stretched_;
  double pattern_energy_ = 0.0;
  std::size_t window_len_ = 0;
  std::vector<float> window_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

/// One micro-bench stage: `items` samples processed per inner pass,
/// `inner` passes per timed repetition (so cheap kernels dwarf clock
/// granularity), `pass` does one pass.
StageResult time_stage(const std::string& name, std::size_t items,
                       std::size_t inner, std::size_t reps,
                       const std::function<void()>& pass) {
  StageResult result;
  result.name = name;
  result.items_per_rep = items * inner;
  for (std::size_t warm = 0; warm < 2; ++warm) pass();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < inner; ++k) pass();
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (seconds > 0.0) {
      const double msps =
          static_cast<double>(result.items_per_rep) / seconds / 1e6;
      result.msps.add(msps);
    }
  }
  return result;
}

/// SIMD speedup of the correlator by paired repetitions: each pair
/// times one repetition (16 passes over 4096 samples) of the dispatched
/// process(span) and one of the scalar batch process_scalar back to
/// back, alternating which goes first, and records scalar/simd time.
/// A host slowdown that outlasts a pair hits both sides, so the ratio
/// does not swing with it the way a ratio of the separately timed
/// stages does. Returns the ratios sorted.
std::vector<double> paired_correlator_speedup(std::size_t pairs) {
  const auto env = random_envelope(4096, 4);
  const auto pattern =
      fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips());
  fdb::dsp::SlidingCorrelator simd(pattern, 6);
  fdb::dsp::SlidingCorrelator scalar(pattern, 6);
  std::vector<float> out(env.size());
  const auto run_simd = [&] {
    simd.process(env, out);
    g_sink = g_sink + out[0];
  };
  const auto run_scalar = [&] {
    scalar.process_scalar(env, out);
    g_sink = g_sink + out[0];
  };
  const auto time_rep = [](const auto& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < 16; ++k) pass();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  run_simd();
  run_scalar();
  std::vector<double> ratios;
  for (std::size_t r = 0; r < pairs; ++r) {
    double t_simd = 0.0, t_scalar = 0.0;
    if (r % 2 == 0) {
      t_simd = time_rep(run_simd);
      t_scalar = time_rep(run_scalar);
    } else {
      t_scalar = time_rep(run_scalar);
      t_simd = time_rep(run_simd);
    }
    if (t_simd > 0.0) ratios.push_back(t_scalar / t_simd);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = fdb::sim::parse_cli(argc, argv, /*default_trials=*/20,
                                 "timed repetitions per stage");
  // Unlike the Monte-Carlo benches, wall-clock numbers are cleanest
  // with one worker; parallel stages only perturb each other.
  if (cli.jobs == 0) cli.jobs = 1;
  const fdb::sim::ExperimentRunner runner(cli.jobs);
  const std::size_t reps = cli.trials;

  using StageFn = std::function<StageResult(std::size_t)>;
  struct NamedStage {
    std::string name;
    StageFn fn;
  };
  std::vector<NamedStage> all_stages;
  const auto add = [&all_stages](std::string name, StageFn fn) {
    all_stages.push_back({std::move(name), std::move(fn)});
  };

  add("envelope_detector", [](std::size_t n) {
    const auto iq = random_iq(4096, 1);
    fdb::dsp::EnvelopeDetector detector(100e3, 2e6);
    std::vector<float> out(iq.size());
    return time_stage("envelope_detector", iq.size(), 64, n, [&] {
      detector.process(iq, out);
      g_sink = g_sink + out[0];
    });
  });
  for (const std::size_t window : {16ul, 64ul, 256ul}) {
    add("moving_average_w" + std::to_string(window),
        [window](std::size_t n) {
          const auto env = random_envelope(4096, 2);
          fdb::dsp::MovingAverage<float> avg(window);
          return time_stage("moving_average_w" + std::to_string(window),
                            env.size(), 64, n, [&] {
                              float acc = 0.0f;
                              for (const float x : env) acc += avg.process(x);
                              g_sink = g_sink + acc;
                            });
        });
  }
  add("fir_taps15", [](std::size_t n) {
    const auto env = random_envelope(4096, 3);
    fdb::dsp::FirFilterF fir(fdb::dsp::design_lowpass(0.2, 15));
    std::vector<float> out(env.size());
    return time_stage("fir_taps15", env.size(), 16, n, [&] {
      fir.process(env, out);
      g_sink = g_sink + out[0];
    });
  });
  // The 63-tap FIR runs twice: once through the block kernel and once
  // through the per-sample scalar wrapper — the pair quantifies what
  // batch processing buys on the same filter.
  add("fir_63tap", [](std::size_t n) {
    const auto env = random_envelope(4096, 3);
    fdb::dsp::FirFilterF fir(fdb::dsp::design_lowpass(0.2, 63));
    std::vector<float> out(env.size());
    return time_stage("fir_63tap", env.size(), 16, n, [&] {
      fir.process(env, out);
      g_sink = g_sink + out[0];
    });
  });
  add("fir_63tap_scalar", [](std::size_t n) {
    const auto env = random_envelope(4096, 3);
    fdb::dsp::FirFilterF fir(fdb::dsp::design_lowpass(0.2, 63));
    return time_stage("fir_63tap_scalar", env.size(), 16, n, [&] {
      float acc = 0.0f;
      for (const float x : env) acc += fir.process(x);
      g_sink = g_sink + acc;
    });
  });
  // Sliding correlator, four ways: the dispatched batch kernel (SIMD
  // blocked dots on the widest ISA the host CPU has, picked at runtime
  // in every build), the scalar batch reference it must
  // match bit-for-bit, the per-sample wrapper, and the seed's
  // recompute-per-sample loop. `sliding_correlator` keeps naming the
  // scalar batch path so the committed perf trajectory stays
  // apples-to-apples; `sliding_correlator_simd` is the dispatched API.
  add("sliding_correlator_simd", [](std::size_t n) {
    const auto env = random_envelope(4096, 4);
    fdb::dsp::SlidingCorrelator corr(
        fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips()), 6);
    std::vector<float> out(env.size());
    return time_stage("sliding_correlator_simd", env.size(), 16, n, [&] {
      corr.process(env, out);
      g_sink = g_sink + out[0];
    });
  });
  add("sliding_correlator", [](std::size_t n) {
    const auto env = random_envelope(4096, 4);
    fdb::dsp::SlidingCorrelator corr(
        fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips()), 6);
    std::vector<float> out(env.size());
    return time_stage("sliding_correlator", env.size(), 16, n, [&] {
      corr.process_scalar(env, out);
      g_sink = g_sink + out[0];
    });
  });
  add("sliding_correlator_scalar_api", [](std::size_t n) {
    const auto env = random_envelope(4096, 4);
    fdb::dsp::SlidingCorrelator corr(
        fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips()), 6);
    return time_stage("sliding_correlator_scalar_api", env.size(), 16, n,
                      [&] {
                        float acc = 0.0f;
                        for (const float x : env) acc += corr.process(x);
                        g_sink = g_sink + acc;
                      });
  });
  add("sliding_correlator_scalar", [](std::size_t n) {
    const auto env = random_envelope(4096, 4);
    ScalarRefCorrelator corr(
        fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips()), 6);
    return time_stage("sliding_correlator_scalar", env.size(), 4, n, [&] {
      float acc = 0.0f;
      for (const float x : env) acc += corr.process(x);
      g_sink = g_sink + acc;
    });
  });
  // Cross-entity slot synthesis, two ways over the same 8-tag slot: the
  // fused select+add coefficient kernel and the historical per-link
  // fold (leak gain, then one keyed reflection pass per entity).
  // Throughput counts output samples, so the ratio is the per-gateway
  // slot-synthesis speedup at this entity count.
  add("synthesis_slot_batched", [](std::size_t n) {
    constexpr std::size_t kSamples = 4096;
    constexpr std::size_t kEntities = 8;
    const auto carrier = random_iq(kSamples, 9);
    fdb::Rng rng(10);
    std::vector<std::uint8_t> states(kEntities * kSamples);
    for (auto& s : states) s = rng.uniform() < 0.5 ? 1 : 0;
    std::vector<const std::uint8_t*> masks(kEntities);
    std::vector<fdb::cf32> c_on(kEntities), c_off(kEntities);
    for (std::size_t e = 0; e < kEntities; ++e) {
      masks[e] = states.data() + e * kSamples;
      c_on[e] = rng.cn(1e-3);
      c_off[e] = rng.cn(1e-4);
    }
    const fdb::cf32 leak = rng.cn(1e-2);
    std::vector<fdb::cf32> scratch(kSamples), out(kSamples);
    return time_stage("synthesis_slot_batched", kSamples, 32, n, [&] {
      fdb::sim::WaveformSynthesizer::synthesize_slot_gateway(
          carrier, leak, masks, c_on, c_off, scratch, out);
      g_sink = g_sink + out[0].real();
    });
  });
  add("synthesis_slot_perlink", [](std::size_t n) {
    constexpr std::size_t kSamples = 4096;
    constexpr std::size_t kEntities = 8;
    const auto carrier = random_iq(kSamples, 9);
    fdb::Rng rng(10);
    std::vector<std::uint8_t> states(kEntities * kSamples);
    for (auto& s : states) s = rng.uniform() < 0.5 ? 1 : 0;
    std::vector<fdb::cf32> c_on(kEntities), c_off(kEntities);
    for (std::size_t e = 0; e < kEntities; ++e) {
      c_on[e] = rng.cn(1e-3);
      c_off[e] = rng.cn(1e-4);
    }
    const fdb::cf32 leak = rng.cn(1e-2);
    std::vector<fdb::cf32> out(kSamples);
    return time_stage("synthesis_slot_perlink", kSamples, 32, n, [&] {
      fdb::sim::WaveformSynthesizer::apply_gain(carrier, leak, out);
      for (std::size_t e = 0; e < kEntities; ++e) {
        fdb::sim::WaveformSynthesizer::add_keyed_reflection(
            carrier, {states.data() + e * kSamples, kSamples}, 0, c_on[e],
            c_off[e], out);
      }
      g_sink = g_sink + out[0].real();
    });
  });
  add("integrate_slice_chain", [](std::size_t n) {
    const auto env = random_envelope(4096, 5);
    fdb::phy::IntegrateAndDump integrator(6);
    fdb::phy::AdaptiveSlicer slicer;
    return time_stage("integrate_slice_chain", env.size(), 32, n, [&] {
      std::vector<float> chips;
      integrator.process(env, chips);
      std::vector<std::uint8_t> bits;
      slicer.process(chips, bits);
      g_sink = g_sink + (bits.empty() ? 0.0f : bits[0]);
    });
  });
  add("self_interference_normalizer", [](std::size_t n) {
    const auto env = random_envelope(4096, 6);
    std::vector<std::uint8_t> states(env.size());
    for (std::size_t i = 0; i < states.size(); ++i) states[i] = (i / 480) % 2;
    std::vector<float> out(env.size());
    return time_stage("self_interference_normalizer", env.size(), 32, n, [&] {
      fdb::core::SelfInterferenceNormalizer::normalize_batch(env, states,
                                                             out);
      g_sink = g_sink + out[0];
    });
  });
  add("feedback_decode", [](std::size_t n) {
    fdb::phy::RateConfig rates;
    rates.samples_per_chip = 6;
    rates.asymmetry = 40;
    const fdb::core::FeedbackConfig config;
    fdb::core::FeedbackDecoder decoder(rates, config);
    const auto env = random_envelope(rates.samples_per_feedback_bit() * 8, 7);
    std::vector<std::uint8_t> own(env.size());
    for (std::size_t i = 0; i < own.size(); ++i) own[i] = (i / 12) % 2;
    return time_stage("feedback_decode", env.size(), 8, n, [&] {
      const auto result = decoder.decode(env, own, 8);
      g_sink = g_sink + (result.bits.empty() ? 0.0f : result.bits[0]);
    });
  });
  for (const std::size_t fft_size : {256ul, 4096ul}) {
    add("fft_" + std::to_string(fft_size), [fft_size](std::size_t n) {
      auto data = random_iq(fft_size, 8);
      return time_stage("fft_" + std::to_string(fft_size), fft_size, 32, n,
                        [&] {
                          fdb::dsp::fft(data);
                          g_sink = g_sink + data[0].real();
                        });
    });
  }
  add("full_frame_decode", [](std::size_t n) {
    // Whole receive chain: sync + slice + FM0 + deframe of a 32B frame.
    fdb::phy::ModemConfig config;
    config.rates.samples_per_chip = 6;
    fdb::phy::BackscatterTx tx(config);
    fdb::phy::BackscatterRx rx(config);
    std::vector<std::uint8_t> payload(32, 0x5A);
    const auto states = tx.modulate_frame(payload);
    std::vector<float> env;
    env.insert(env.end(), 100, 1.0f);
    for (const auto s : states) env.push_back(s ? 1.3f : 1.0f);
    env.insert(env.end(), 100, 1.0f);
    return time_stage("full_frame_decode", env.size(), 4, n, [&] {
      const auto result = rx.demodulate_frame(env);
      g_sink = g_sink +
               (result.payload.empty() ? 0.0f : result.payload[0]);
    });
  });
  add("full_rx_chain", [](std::size_t n) {
    // Streaming receive chain end to end: batch correlation, peak
    // confirmation, and zero-copy frame decode over a continuous
    // multi-frame envelope stream.
    fdb::phy::ModemConfig config;
    config.rates.samples_per_chip = 6;
    fdb::phy::BackscatterTx tx(config);
    std::vector<float> stream(2000, 1.0f);
    for (int f = 0; f < 4; ++f) {
      std::vector<std::uint8_t> payload(32, static_cast<std::uint8_t>(f));
      for (const auto s : tx.modulate_frame(payload)) {
        stream.push_back(s ? 1.3f : 1.0f);
      }
      stream.insert(stream.end(), 1500, 1.0f);
    }
    std::size_t frames = 0;
    fdb::phy::StreamingReceiver receiver(
        config, [&](const fdb::phy::StreamFrame&) { ++frames; });
    return time_stage("full_rx_chain", stream.size(), 4, n, [&] {
      receiver.reset();
      receiver.process(stream);
      g_sink = g_sink + static_cast<float>(frames);
    });
  });
  add("flowgraph_throughput", [](std::size_t n) {
    // Engine overhead: source -> moving average -> null sink.
    return time_stage("flowgraph_throughput", 65536, 1, n, [&] {
      fdb::fg::Graph graph;
      auto source = std::make_shared<fdb::fg::VectorSourceF>(
          std::vector<float>(65536, 1.0f));
      auto avg = std::make_shared<fdb::fg::MovingAverageBlockF>(32);
      auto sink = std::make_shared<fdb::fg::NullSinkF>();
      const auto s = graph.add(source);
      const auto a = graph.add(avg);
      const auto k = graph.add(sink);
      graph.connect(s, 0, a, 0);
      graph.connect(a, 0, k, 0);
      graph.run();
      g_sink = g_sink + static_cast<float>(sink->consumed());
    });
  });

  // --stages: keep only matching stages (exit 2 on a bad regex or an
  // empty selection, so CI typos fail loudly instead of gating nothing).
  std::vector<NamedStage> stages;
  if (cli.stages_filter.empty()) {
    stages = std::move(all_stages);
  } else {
    std::regex re;
    try {
      re = std::regex(cli.stages_filter);
    } catch (const std::regex_error& err) {
      std::fprintf(stderr, "%s: bad --stages regex '%s': %s\n", argv[0],
                   cli.stages_filter.c_str(), err.what());
      return 2;
    }
    for (auto& stage : all_stages) {
      if (std::regex_search(stage.name, re)) {
        stages.push_back(std::move(stage));
      }
    }
    if (stages.empty()) {
      std::fprintf(stderr, "%s: --stages '%s' matched no stage\n", argv[0],
                   cli.stages_filter.c_str());
      return 2;
    }
  }

  const auto results = runner.map(
      stages.size(), [&](std::size_t i) { return stages[i].fn(reps); });

  fdb::sim::Report report("e8_dsp_micro");
  report.set_run_info(reps, runner.jobs());
  auto& sec = report.section(
      "receive-chain stage throughput (Msamples/s per repetition)",
      {"stage", "items_per_rep", "reps", "mean_msps", "ci95_msps",
       "min_msps", "max_msps"});
  for (const auto& r : results) {
    sec.add_row({r.name, r.items_per_rep, r.msps.count(), r.msps.mean(),
                 r.msps.ci95_halfwidth(), r.msps.min(), r.msps.max()});
  }
  // Which build and correlator kernel produced these numbers, so a
  // committed trajectory file says what it measured.
  const std::string isa = fdb::dsp::detail::correlator_target_name(
      fdb::dsp::detail::correlator_dispatch_target());
#if defined(FDB_NATIVE_BUILD)
  const std::string build = "native";
#else
  const std::string build = "portable";
#endif
  report.section("build", {"correlator_isa", "build"}).add_row({isa, build});
  const auto selected = [&stages](const char* name) {
    return std::any_of(stages.begin(), stages.end(),
                       [name](const NamedStage& s) { return s.name == name; });
  };
  if (reps > 0 && selected("sliding_correlator_simd") &&
      selected("sliding_correlator")) {
    // Serial, after the stages: nothing else runs while pairs are timed.
    const auto ratios = paired_correlator_speedup(reps);
    if (!ratios.empty()) {
      const auto at = [&ratios](double q) {
        return ratios[static_cast<std::size_t>(
            q * static_cast<double>(ratios.size() - 1) + 0.5)];
      };
      report
          .section("correlator simd speedup (paired repetitions)",
                   {"correlator_isa", "pairs", "q1_x", "median_x", "q3_x"})
          .add_row({isa, ratios.size(), at(0.25), at(0.5), at(0.75)});
    }
  }
  report.add_note("sliding_correlator_simd ran the " + isa +
                  " dot kernel (dispatched at runtime) in a " + build +
                  " build.");
  report.add_note("Shape check: every stage clears a 2 MHz ADC rate with"
                  " margin. sliding_correlator_simd (dispatched blocked-dot"
                  " kernel) vs sliding_correlator (scalar batch reference,"
                  " bit-identical output) is the SIMD speedup, also"
                  " timed in paired repetitions when both are selected;"
                  " sliding_correlator vs sliding_correlator_scalar (seed"
                  " per-sample loop) is the batch speedup;"
                  " synthesis_slot_batched vs synthesis_slot_perlink is the"
                  " fused cross-entity slot-synthesis gain; full_rx_chain"
                  " times the streaming receiver end to end. --stages REGEX"
                  " runs a subset.");
  return report.emit(cli) ? 0 : 1;
}
