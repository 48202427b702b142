#include "sim/link_sim.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "channel/ambient_source.hpp"
#include "channel/fading.hpp"
#include "util/bits.hpp"

namespace fdb::sim {

double LinkSimConfig::noise_power_w() const {
  if (noise_power_override_w >= 0.0) return noise_power_override_w;
  return channel::thermal_noise_power(modem.data.rates.sample_rate_hz,
                                      noise_figure_db);
}

LinkSimulator::LinkSimulator(LinkSimConfig config)
    : config_(config),
      tx_(config.modem),
      rx_(config.modem),
      fb_rx_(config.modem),
      fb_tx_(config.modem.data.rates, config.modem.feedback),
      modulator_(channel::ReflectionStates::ook(config.reflection_rho)),
      harvester_(),
      synth_(config.modem.data.rates, config.envelope_cutoff_mult) {}

TrialResult LinkSimulator::run_trial(std::uint64_t trial_index) const {
  // One warm arena per thread: disjoint trials may run concurrently on
  // one simulator, and after warm-up no trial touches the heap for
  // synthesis scratch.
  thread_local SynthArena arena;
  return run_trial(trial_index, arena);
}

TrialResult LinkSimulator::run_trial(std::uint64_t trial_index,
                                     SynthArena& arena) const {
  arena.reset();
  TrialResult result;
  const auto& rates = config_.modem.data.rates;

  // Everything stochastic about this trial lives on the stack, keyed by
  // (seed, trial_index): the generator, the ambient carrier realisation,
  // and the fading processes. Member state stays untouched, so many
  // threads can run disjoint trials on one simulator.
  Rng rng = Rng::substream(config_.seed, trial_index);
  const auto source = channel::make_ambient_source(config_.carrier, rng());
  const auto fade_sa = channel::make_fading(config_.fading, rng);
  const auto fade_sb = channel::make_fading(config_.fading, rng);
  const auto fade_ab = channel::make_fading(config_.fading, rng);

  // ---- payload & on-air states for A (data transmitter) --------------
  std::vector<std::uint8_t> payload(payload_bytes_);
  for (auto& byte : payload) {
    byte = static_cast<std::uint8_t>(rng.uniform_int(256));
  }
  auto states_a = tx_.modulate(payload);
  // Capture tail: one feedback slot of silence after the burst. The RC
  // group delay shifts sync late by a fraction of a chip, so without a
  // tail the final chip would fall off the capture; the tail also lets
  // the drain-slot verdicts of the schedule ride out.
  states_a.insert(states_a.end(), rates.samples_per_feedback_bit(), 0);
  const std::size_t total = states_a.size();
  const std::size_t data_start = tx_.preamble_samples();

  // Ground-truth data bits as they appear on air (blocked + CRCs).
  const auto tx_bits =
      phy::blocks_to_bits(payload, config_.modem.block_size_bytes);

  // ---- feedback bits & states for B ----------------------------------
  // Random verdict pattern: BER probes want an unbiased bit mix.
  const std::size_t num_fb_bits = std::max<std::size_t>(
      1, (total - data_start) / rates.samples_per_feedback_bit());
  std::vector<std::uint8_t> fb_bits(num_fb_bits);
  for (auto& bit : fb_bits) bit = rng.chance(0.5) ? 1 : 0;

  std::vector<std::uint8_t> states_b(total, 0);
  if (config_.feedback_active) {
    const auto fb_states = fb_tx_.encode(fb_bits);
    // Feedback rides the slot grid anchored at A's data start.
    const std::size_t n =
        std::min(fb_states.size(), total - data_start);
    std::copy_n(fb_states.begin(), n, states_b.begin() + data_start);
  }

  // ---- channel gains for this coherence block (frame) ----------------
  fade_sa->next_block(rng);
  fade_sb->next_block(rng);
  fade_ab->next_block(rng);
  const double amp_tx = std::sqrt(config_.tx_power_w);
  const cf32 h_sa = fade_sa->gain() *
                    static_cast<float>(
                        amp_tx * config_.pathloss.amplitude_gain(
                                     config_.ambient_to_a_m));
  const cf32 h_sb = fade_sb->gain() *
                    static_cast<float>(
                        amp_tx * config_.pathloss.amplitude_gain(
                                     config_.ambient_to_b_m));
  const cf32 h_ab =
      fade_ab->gain() *
      static_cast<float>(config_.pathloss.amplitude_gain(config_.a_to_b_m));
  const auto c_self = static_cast<float>(config_.self_coupling);

  // ---- sample streams -------------------------------------------------
  auto ambient = arena.alloc<cf32>(total);
  source->generate(ambient);

  const double noise_power = config_.noise_power_w();
  channel::AwgnChannel noise_a(noise_power, rng.fork());
  channel::AwgnChannel noise_b(noise_power, rng.fork());
  channel::CfoRotator cfo(config_.cfo_hz, rates.sample_rate_hz);

  // Frequency-selective carrier paths (redrawn each frame).
  std::optional<channel::MultipathChannel> mp_a;
  std::optional<channel::MultipathChannel> mp_b;
  if (config_.multipath) {
    mp_a.emplace(config_.multipath_profile, rng);
    mp_b.emplace(config_.multipath_profile, rng);
  }

  // Co-channel interferer: a third reflector C toggling at random.
  const bool has_interferer = config_.interferer_distance_m > 0.0;
  double h_ic = 0.0;   // C's coupling into A and B (symmetric distance)
  cf32 h_sc{};         // ambient -> C
  std::vector<std::uint8_t> states_c;
  if (has_interferer) {
    h_ic = config_.pathloss.amplitude_gain(config_.interferer_distance_m);
    h_sc = static_cast<float>(
        amp_tx * config_.pathloss.amplitude_gain(config_.ambient_to_b_m));
    states_c.resize(total, 0);
    std::uint8_t state = 0;
    std::size_t i = 0;
    while (i < total) {
      const std::size_t dwell =
          1 + static_cast<std::size_t>(
                  rng.exponential(static_cast<double>(
                      config_.interferer_dwell_samples)));
      for (std::size_t k = 0; k < dwell && i < total; ++k, ++i) {
        states_c[i] = state;
      }
      state ^= 1u;
    }
  }

  // The whole receive chain — CFO/multipath carrier shaping, incident
  // fields, state-keyed reflections, inter-device coupling, AWGN, RC
  // envelope — runs as batch kernels in the shared synthesis engine
  // (bit-identical to the historical per-sample loop).
  LinkSynthSpec spec;
  spec.ambient = ambient;
  spec.states_a = states_a;
  spec.states_b = states_b;
  spec.modulator = &modulator_;
  spec.h_sa = h_sa;
  spec.h_sb = h_sb;
  spec.h_ab = h_ab;
  spec.self_coupling = c_self;
  spec.cfo = config_.cfo_hz != 0.0 ? &cfo : nullptr;
  spec.multipath_a = mp_a ? &*mp_a : nullptr;
  spec.multipath_b = mp_b ? &*mp_b : nullptr;
  spec.noise_a = &noise_a;
  spec.noise_b = &noise_b;
  if (has_interferer) {
    spec.states_c = states_c;
    spec.interferer_coupling = static_cast<float>(h_ic);
    spec.h_sc = h_sc;
  }
  const LinkSynthResult streams = synth_.synthesize_link(spec, arena);
  const std::span<const float> envelope_a = streams.envelope_a;
  const std::span<const float> envelope_b = streams.envelope_b;

  // Energy bookkeeping at B: what the antenna absorbs in each state.
  double incident_sum = 0.0;
  double harvested = 0.0;
  const double dt = 1.0 / rates.sample_rate_hz;
  for (std::size_t n = 0; n < total; ++n) {
    const double p_inc = std::norm(streams.incident_b[n]);
    incident_sum += p_inc;
    harvested += harvester_.harvest(
        p_inc * modulator_.harvest_fraction(states_b[n] != 0), dt);
  }
  result.incident_power_w = incident_sum / static_cast<double>(total);
  result.harvested_j = harvested;

  // ---- decode at B: data stream (with self-interference handling) ----
  std::span<const std::uint8_t> own_b =
      config_.feedback_active
          ? std::span<const std::uint8_t>(states_b)
          : std::span<const std::uint8_t>{};

  core::FdRxResult rx = rx_.demodulate(envelope_b, own_b, payload.size());
  result.data_bits = tx_bits.size();
  result.sync_sample = rx.diag.sync_sample;
  result.sync_corr = rx.diag.sync_corr;
  if (rx.status != Status::kSyncNotFound) {
    const std::size_t expected = data_start - 1;
    const std::size_t got = rx.diag.sync_sample;
    const std::size_t tolerance = rates.samples_per_chip;
    result.sync_correct = got + tolerance >= expected &&
                          got <= expected + tolerance;
  }
  if (rx.status == Status::kSyncNotFound) {
    // The frame is lost entirely; count every bit against the link.
    result.data_bit_errors = tx_bits.size();
  } else {
    result.sync_ok = true;
    // Re-derive the raw received bits for an honest BER (the block
    // decoder consumed them, so recompute from chips).
    const auto rx_bits_opt = phy::decode(
        config_.modem.data.line_code,
        std::span<const std::uint8_t>(rx.diag.chip_decisions));
    if (rx_bits_opt.has_value()) {
      const auto& rx_bits = *rx_bits_opt;
      const std::size_t n = std::min(rx_bits.size(), tx_bits.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (rx_bits[i] != tx_bits[i]) ++result.data_bit_errors;
      }
      result.data_bit_errors += tx_bits.size() - n;  // missing bits count
    } else {
      result.data_bit_errors = tx_bits.size();
    }
    for (const bool ok : rx.blocks.block_ok) result.block_ok.push_back(ok);
  }

  // ---- decode at A: feedback stream -----------------------------------
  if (config_.feedback_active) {
    const auto fb = fb_rx_.decode(envelope_a, states_a, data_start,
                                  fb_bits.size());
    const std::size_t n = std::min(fb.bits.size(), fb_bits.size());
    result.feedback_bits = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (fb.bits[i] != fb_bits[i]) ++result.feedback_bit_errors;
    }
  }
  return result;
}

void LinkSimSummary::add(const TrialResult& trial) {
  ++trials;
  if (!trial.sync_ok) ++sync_failures;
  if (trial.sync_ok && !trial.sync_correct) ++false_syncs;
  data.add(trial.data_bit_errors, trial.data_bits);
  if (trial.sync_correct) {
    data_aligned.add(trial.data_bit_errors, trial.data_bits);
  }
  feedback.add(trial.feedback_bit_errors, trial.feedback_bits);
  harvested_per_frame_j.add(trial.harvested_j);
}

void LinkSimSummary::merge(const LinkSimSummary& other) {
  data.merge(other.data);
  data_aligned.merge(other.data_aligned);
  feedback.merge(other.feedback);
  sync_failures += other.sync_failures;
  false_syncs += other.false_syncs;
  trials += other.trials;
  harvested_per_frame_j.merge(other.harvested_per_frame_j);
}

LinkSimSummary LinkSimulator::run(std::size_t n) const {
  LinkSimSummary summary;
  for (std::size_t t = 0; t < n; ++t) summary.add(run_trial(t));
  return summary;
}

}  // namespace fdb::sim
