#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <string>

namespace fdb::sim {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
// Hard cap on |drift| so shifted frames stay inside sane sample counts.
constexpr double kMaxDriftPpm = 1e5;

void require(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument("FaultConfig: " + message);
}

bool finite_in(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

}  // namespace

void FaultConfig::validate() const {
  require(finite_in(intensity, 0.0, 1.0), "intensity must be in [0, 1]");
  require(finite_in(gateway_outages_per_kslot, 0.0, 1e6),
          "gateway_outages_per_kslot must be finite and non-negative");
  require(std::isfinite(gateway_outage_mean_slots) &&
              gateway_outage_mean_slots > 0.0,
          "gateway_outage_mean_slots must be positive");
  require(finite_in(gateway_outage_atten, 0.0, 1.0),
          "gateway_outage_atten must be in [0, 1]");
  require(finite_in(carrier_sags_per_kslot, 0.0, 1e6),
          "carrier_sags_per_kslot must be finite and non-negative");
  require(std::isfinite(carrier_sag_mean_slots) && carrier_sag_mean_slots > 0.0,
          "carrier_sag_mean_slots must be positive");
  require(std::isfinite(carrier_sag_floor) && carrier_sag_floor >= 0.0 &&
              carrier_sag_floor < 1.0,
          "carrier_sag_floor must be in [0, 1)");
  require(finite_in(interferer_bursts_per_kslot, 0.0, 1e6),
          "interferer_bursts_per_kslot must be finite and non-negative");
  require(std::isfinite(interferer_burst_mean_slots) &&
              interferer_burst_mean_slots > 0.0,
          "interferer_burst_mean_slots must be positive");
  require(std::isfinite(interferer_env_sigma) && interferer_env_sigma >= 0.0,
          "interferer_env_sigma must be finite and non-negative");
  require(finite_in(tag_fault_fraction, 0.0, 1.0),
          "tag_fault_fraction must be in [0, 1]");
  require(finite_in(tag_stuck_share, 0.0, 1.0),
          "tag_stuck_share must be in [0, 1]");
  require(finite_in(tag_drift_max_ppm, 0.0, kMaxDriftPpm),
          "tag_drift_max_ppm must be in [0, 1e5]");

  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    const std::string at = "events[" + std::to_string(i) + "]";
    require(ev.start_slot >= 0, at + ".start_slot must be non-negative");
    require(ev.duration_slots > 0, at + ".duration_slots must be positive");
    switch (ev.kind) {
      case FaultClass::kGatewayOutage:
        require(finite_in(ev.magnitude, 0.0, 1.0),
                at + ".magnitude (outage residual gain) must be in [0, 1]");
        break;
      case FaultClass::kCarrierSag:
        require(std::isfinite(ev.magnitude) && ev.magnitude >= 0.0 &&
                    ev.magnitude < 1.0,
                at + ".magnitude (sag scale) must be in [0, 1)");
        break;
      case FaultClass::kBurstInterferer:
        require(std::isfinite(ev.magnitude) && ev.magnitude >= 0.0,
                at + ".magnitude (interferer envelope) must be non-negative");
        break;
      case FaultClass::kTagStuck:
        require(ev.magnitude == 0.0 || ev.magnitude == 1.0,
                at + ".magnitude (stuck state) must be 0 or 1");
        break;
      case FaultClass::kTagDrift:
        require(std::isfinite(ev.magnitude) &&
                    std::abs(ev.magnitude) <= kMaxDriftPpm,
                at + ".magnitude (drift ppm) must have |ppm| <= 1e5");
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// FaultPlan queries
// ---------------------------------------------------------------------------

float FaultPlan::min_signal_scale(std::size_t g, std::size_t lo,
                                  std::size_t hi) const {
  if (gw_atten_.empty() && carrier_scale_.empty()) return 1.0f;
  hi = std::min(hi, slots_);
  float m = 1.0f;
  for (std::size_t s = lo; s < hi; ++s) m = std::min(m, signal_scale(g, s));
  return m;
}

float FaultPlan::max_signal_scale(std::size_t g, std::size_t lo,
                                  std::size_t hi) const {
  if (gw_atten_.empty() && carrier_scale_.empty()) return 1.0f;
  hi = std::min(hi, slots_);
  if (lo >= hi) return 1.0f;
  float m = 0.0f;
  for (std::size_t s = lo; s < hi; ++s) m = std::max(m, signal_scale(g, s));
  return m;
}

float FaultPlan::max_interferer_env(std::size_t g, std::size_t lo,
                                    std::size_t hi) const {
  if (interf_env_.empty()) return 0.0f;
  hi = std::min(hi, slots_);
  float m = 0.0f;
  for (std::size_t s = lo; s < hi; ++s) m = std::max(m, interferer_env(g, s));
  return m;
}

bool FaultPlan::window_has_outage(std::size_t g, std::size_t lo,
                                  std::size_t hi) const {
  if (gw_atten_.empty()) return false;
  hi = std::min(hi, slots_);
  for (std::size_t s = lo; s < hi; ++s)
    if (gw_atten_[g * slots_ + s] < 1.0f) return true;
  return false;
}

bool FaultPlan::window_has_sag(std::size_t lo, std::size_t hi) const {
  if (carrier_scale_.empty()) return false;
  hi = std::min(hi, slots_);
  for (std::size_t s = lo; s < hi; ++s)
    if (carrier_scale_[s] < 1.0f) return true;
  return false;
}

bool FaultPlan::window_has_interference(std::size_t g, std::size_t lo,
                                        std::size_t hi) const {
  return max_interferer_env(g, lo, hi) > 0.0f;
}

void FaultPlan::add_interferers(std::size_t g, std::size_t slot,
                                std::span<cf32> acc) const {
  if (tones_.empty()) return;
  const auto s = static_cast<std::int64_t>(slot);
  for (const Tone& tone : tones_) {
    if (tone.gateway != g || s < tone.start_slot || s >= tone.end_slot)
      continue;
    // Phase is anchored to the absolute in-trial sample index, so the
    // same slot synthesized from phase B, an escalation cache, or a
    // replay produces bit-identical samples.
    const double abs0 = static_cast<double>(slot) *
                        static_cast<double>(slot_samples_);
    const double start_phase = std::fmod(tone.omega * abs0 + tone.phase,
                                         kTwoPi);
    std::complex<double> cur = std::polar(tone.amp, start_phase);
    const std::complex<double> rot = std::polar(1.0, tone.omega);
    for (std::size_t n = 0; n < acc.size(); ++n) {
      acc[n] += cf32(static_cast<float>(cur.real()),
                     static_cast<float>(cur.imag()));
      cur *= rot;
    }
  }
}

const TagFault* FaultPlan::tag_fault(std::uint32_t tag) const {
  auto it = std::lower_bound(
      tag_faults_.begin(), tag_faults_.end(), tag,
      [](const TagFault& f, std::uint32_t t) { return f.tag < t; });
  if (it == tag_faults_.end() || it->tag != tag) return nullptr;
  return &*it;
}

bool FaultPlan::stuck_in_window(std::uint32_t tag, std::int64_t lo,
                                std::int64_t hi) const {
  const TagFault* f = tag_fault(tag);
  return f != nullptr && f->stuck && f->start_slot < hi && f->end_slot > lo;
}

std::size_t FaultPlan::drift_shift_samples(std::uint32_t tag,
                                           std::int64_t frame_start_slot) const {
  const TagFault* f = tag_fault(tag);
  if (f == nullptr || f->stuck || frame_start_slot < f->start_slot) return 0;
  const std::int64_t elapsed_slots =
      std::min(frame_start_slot, f->end_slot) - f->start_slot;
  const double elapsed_samples =
      static_cast<double>(elapsed_slots) * static_cast<double>(slot_samples_);
  return static_cast<std::size_t>(
      std::llround(std::abs(f->drift_ppm) * 1e-6 * elapsed_samples));
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t sim_seed,
                             std::size_t n_gateways, std::size_t n_tags,
                             std::size_t slots_per_trial,
                             std::size_t slot_samples,
                             std::size_t samples_per_chip, double noise_sigma)
    : config_(config),
      sim_seed_(sim_seed),
      n_gateways_(n_gateways),
      n_tags_(n_tags),
      slots_(slots_per_trial),
      slot_samples_(slot_samples),
      samples_per_chip_(std::max<std::size_t>(samples_per_chip, 1)),
      noise_sigma_(noise_sigma),
      enabled_(config.enabled() && slots_per_trial > 0) {}

FaultPlan FaultInjector::plan(std::uint64_t trial) const {
  FaultPlan p;
  p.slots_ = slots_;
  p.slot_samples_ = slot_samples_;
  if (!enabled_) return p;

  // The fault substream is salted away from the main trial stream:
  // enabling faults must not perturb any fault-free randomness, and the
  // same (seed, trial) yields the same plan on any thread.
  Rng rng = Rng::substream(sim_seed_ ^ config_.seed_salt, trial);
  const auto slots64 = static_cast<std::int64_t>(slots_);
  const double slots_d = static_cast<double>(slots_);
  const double intensity = config_.intensity;

  const auto clamp_window = [&](std::int64_t start, std::int64_t dur,
                                std::int64_t* lo, std::int64_t* hi) {
    *lo = std::clamp<std::int64_t>(start, 0, slots64);
    *hi = std::clamp<std::int64_t>(start + dur, 0, slots64);
    return *lo < *hi;
  };

  const auto ensure_gw_atten = [&] {
    if (p.gw_atten_.empty()) p.gw_atten_.assign(n_gateways_ * slots_, 1.0f);
  };
  const auto ensure_carrier = [&] {
    if (p.carrier_scale_.empty()) p.carrier_scale_.assign(slots_, 1.0f);
  };
  const auto ensure_interf_env = [&] {
    if (p.interf_env_.empty()) p.interf_env_.assign(n_gateways_ * slots_, 0.0f);
  };

  // Overlapping scale windows normalize by worst case (min of the
  // per-event residual scales); coincident interferer tones superpose.
  const auto apply_outage = [&](std::uint32_t g, std::int64_t start,
                                std::int64_t dur, double atten) {
    std::int64_t lo = 0, hi = 0;
    if (g >= n_gateways_ || !clamp_window(start, dur, &lo, &hi)) return;
    ensure_gw_atten();
    const auto a = static_cast<float>(atten);
    float* row = p.gw_atten_.data() + g * slots_;
    for (std::int64_t s = lo; s < hi; ++s)
      row[s] = std::min(row[s], a);
    p.any_ = true;
  };
  const auto apply_sag = [&](std::int64_t start, std::int64_t dur,
                             double scale) {
    std::int64_t lo = 0, hi = 0;
    if (!clamp_window(start, dur, &lo, &hi)) return;
    ensure_carrier();
    const auto c = static_cast<float>(scale);
    for (std::int64_t s = lo; s < hi; ++s)
      p.carrier_scale_[s] = std::min(p.carrier_scale_[s], c);
    p.any_ = true;
  };
  const auto apply_tone = [&](std::uint32_t g, std::int64_t start,
                              std::int64_t dur, double env_sigma, double omega,
                              double phase) {
    std::int64_t lo = 0, hi = 0;
    if (g >= n_gateways_ || !clamp_window(start, dur, &lo, &hi)) return;
    const double amp = env_sigma * noise_sigma_;
    if (amp <= 0.0) return;
    ensure_interf_env();
    p.tones_.push_back({g, lo, hi, amp, omega, phase});
    float* row = p.interf_env_.data() + g * slots_;
    for (std::int64_t s = lo; s < hi; ++s)
      row[s] += static_cast<float>(amp);
    p.any_ = true;
  };

  // --- generated load ------------------------------------------------
  // Every draw below happens unconditionally; `intensity` only decides
  // which drawn events *survive* (thinning). The intensity-1.0 event
  // list is therefore fixed per trial and fault sets nest across
  // intensities — the mechanism behind monotone degradation under
  // common random numbers.
  const double chip_omega =
      std::numbers::pi / static_cast<double>(samples_per_chip_);

  if (config_.gateway_outages_per_kslot > 0.0) {
    const double gap_mean = 1000.0 / config_.gateway_outages_per_kslot;
    for (std::size_t g = 0; g < n_gateways_; ++g) {
      double pos = rng.exponential(gap_mean);
      while (pos < slots_d) {
        const auto dur = static_cast<std::int64_t>(
            1.0 + std::floor(rng.exponential(config_.gateway_outage_mean_slots)));
        const double u = rng.uniform();
        if (u < intensity)
          apply_outage(static_cast<std::uint32_t>(g),
                       static_cast<std::int64_t>(pos), dur,
                       config_.gateway_outage_atten);
        pos += static_cast<double>(dur) + rng.exponential(gap_mean);
      }
    }
  }

  if (config_.carrier_sags_per_kslot > 0.0) {
    const double gap_mean = 1000.0 / config_.carrier_sags_per_kslot;
    double pos = rng.exponential(gap_mean);
    while (pos < slots_d) {
      const auto dur = static_cast<std::int64_t>(
          1.0 + std::floor(rng.exponential(config_.carrier_sag_mean_slots)));
      const double scale = rng.uniform(config_.carrier_sag_floor, 1.0);
      const double u = rng.uniform();
      if (u < intensity)
        apply_sag(static_cast<std::int64_t>(pos), dur, scale);
      pos += static_cast<double>(dur) + rng.exponential(gap_mean);
    }
  }

  if (config_.interferer_bursts_per_kslot > 0.0) {
    const double gap_mean = 1000.0 / config_.interferer_bursts_per_kslot;
    for (std::size_t g = 0; g < n_gateways_; ++g) {
      double pos = rng.exponential(gap_mean);
      while (pos < slots_d) {
        const auto dur = static_cast<std::int64_t>(
            1.0 +
            std::floor(rng.exponential(config_.interferer_burst_mean_slots)));
        // Tone frequency sits inside the chip-rate band the envelope
        // slicer integrates over, so the burst perturbs decisions
        // instead of averaging out.
        const double omega = (0.1 + 0.9 * rng.uniform()) * chip_omega;
        const double phase = rng.uniform() * kTwoPi;
        const double u = rng.uniform();
        if (u < intensity)
          apply_tone(static_cast<std::uint32_t>(g),
                     static_cast<std::int64_t>(pos), dur,
                     config_.interferer_env_sigma, omega, phase);
        pos += static_cast<double>(dur) + rng.exponential(gap_mean);
      }
    }
  }

  // Per-tag hardware faults: at most one per tag per trial, persistent
  // from onset to the end of the trial (a jammed switch or a drifted
  // oscillator does not self-heal on slot boundaries).
  for (std::size_t k = 0; k < n_tags_; ++k) {
    const double u = rng.uniform();
    const auto start = static_cast<std::int64_t>(rng.uniform_int(slots_));
    const bool stuck = rng.uniform() < config_.tag_stuck_share;
    const bool state = rng.chance(0.5);
    const double ppm_frac = 1.0 - rng.uniform();  // (0, 1]
    const bool positive = rng.chance(0.5);
    if (u < intensity * config_.tag_fault_fraction) {
      TagFault f;
      f.tag = static_cast<std::uint32_t>(k);
      f.start_slot = start;
      f.end_slot = slots64;
      f.stuck = stuck;
      f.stuck_state = state ? 1 : 0;
      f.drift_ppm = stuck ? 0.0
                          : (positive ? 1.0 : -1.0) * ppm_frac *
                                config_.tag_drift_max_ppm;
      if (f.stuck || f.drift_ppm != 0.0) {
        p.tag_faults_.push_back(f);
        p.any_ = true;
      }
    }
  }

  // --- scripted events (every trial, no thinning) --------------------
  for (const FaultEvent& ev : config_.events) {
    switch (ev.kind) {
      case FaultClass::kGatewayOutage:
        apply_outage(ev.target, ev.start_slot, ev.duration_slots,
                     ev.magnitude);
        break;
      case FaultClass::kCarrierSag:
        apply_sag(ev.start_slot, ev.duration_slots, ev.magnitude);
        break;
      case FaultClass::kBurstInterferer:
        // Scripted bursts use a fixed mid-band tone so the event is
        // fully specified by (target, window, magnitude).
        apply_tone(ev.target, ev.start_slot, ev.duration_slots, ev.magnitude,
                   0.5 * chip_omega, 0.0);
        break;
      case FaultClass::kTagStuck:
      case FaultClass::kTagDrift: {
        if (ev.target >= n_tags_) break;
        std::int64_t lo = 0, hi = 0;
        if (!clamp_window(ev.start_slot, ev.duration_slots, &lo, &hi)) break;
        TagFault f;
        f.tag = ev.target;
        f.start_slot = lo;
        f.end_slot = hi;
        f.stuck = ev.kind == FaultClass::kTagStuck;
        f.stuck_state = f.stuck && ev.magnitude != 0.0 ? 1 : 0;
        f.drift_ppm = f.stuck ? 0.0 : ev.magnitude;
        if (f.stuck || f.drift_ppm != 0.0) {
          p.tag_faults_.push_back(f);
          p.any_ = true;
        }
        break;
      }
    }
  }

  // Normalize tag faults: sorted by tag, earliest onset wins per tag.
  std::stable_sort(p.tag_faults_.begin(), p.tag_faults_.end(),
                   [](const TagFault& a, const TagFault& b) {
                     return a.tag != b.tag ? a.tag < b.tag
                                           : a.start_slot < b.start_slot;
                   });
  p.tag_faults_.erase(
      std::unique(p.tag_faults_.begin(), p.tag_faults_.end(),
                  [](const TagFault& a, const TagFault& b) {
                    return a.tag == b.tag;
                  }),
      p.tag_faults_.end());

  return p;
}

}  // namespace fdb::sim
