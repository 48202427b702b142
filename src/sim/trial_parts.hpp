// The named parts of one network-simulator trial (sim/network_sim.cpp):
// gateway-slot synthesis, the hybrid escalator and the frame
// classifier. Each hides one decision of the trial and takes its inputs
// explicitly, so a test can build it without a NetworkSimulator.
// Per-trial storage is carved from the trial's SynthArena.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "channel/ambient_source.hpp"
#include "channel/impairments.hpp"
#include "core/fd_modem.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "sim/network_sim.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"

namespace fdb::sim {

/// Sample geometry of one trial.
struct TrialGeometry {
  std::size_t slots = 0;          ///< slots per trial
  std::size_t slot_samples = 0;   ///< samples per slot
  std::size_t frame_slots = 0;    ///< slots a frame is on air
  std::size_t burst_samples = 0;  ///< samples of one frame's burst
  /// How far a decode window reaches past the burst: RC group delay
  /// shifts sync late by a fraction of a chip, never a full slot, and a
  /// short tail keeps a back-to-back successor's preamble out of this
  /// frame's sync search.
  std::size_t tail_samples = 0;

  std::size_t total() const { return slots * slot_samples; }

  /// Trial samples [lo, hi) of the decode window of frames that started
  /// in slot `start`: the burst and the sync tail, clipped to the trial.
  struct Window {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  Window decode_window(std::uint64_t start) const {
    const std::size_t lo = static_cast<std::size_t>(start) * slot_samples;
    return {lo, std::min(total(), lo + burst_samples + tail_samples)};
  }
};

/// One trial's gateway-slot synthesis: carrier, then every staged tag's
/// reflection through its couplings (the fused per-gateway kernel), the
/// slot's faults and the gateway's AWGN fork.
class GatewaySlotSynth {
 public:
  /// Forks one AWGN stream per gateway off `rng`, in gateway order and
  /// in every mode (the forks keep the trial's later draws aligned). A
  /// null `source` synthesizes nothing (kAnalytic); a constant one
  /// fills one slot, read at offset 0 for every slot, and any other is
  /// streamed as ensure_carrier asks. `h_sr` is the
  /// per-gateway ambient leakage, `coup_on`/`coup_off` the tag-major
  /// [tag * n_gw + gw] couplings of the two switch positions. The
  /// spans, `tx` and `faults` must outlive the synth.
  GatewaySlotSynth(const TrialGeometry& geo,
                   std::unique_ptr<channel::AmbientSource> source,
                   std::span<const cf32> h_sr, std::span<const cf32> coup_on,
                   std::span<const cf32> coup_off, double noise_power_w,
                   Rng& rng, const core::FdDataTransmitter& tx,
                   const FaultPlan& faults, SynthArena& arena);

  std::size_t n_gw() const { return h_sr_.size(); }

  /// The antenna states of tag k's frame started at `start_slot`,
  /// zero-padded to whole slots (state 0 is absorb: "the frame ended
  /// mid-slot") so every slot of the frame is a plain pointer view, with
  /// the tag's own hardware fault applied. kWaveform and escalated
  /// windows both modulate here, so both synthesize the same waveform.
  std::vector<std::uint8_t> frame_states(
      std::uint32_t k, std::uint64_t start_slot,
      std::span<const std::uint8_t> bytes) const;

  /// Stages entity e of the next gateway-slot at gateway g: tag `tag`'s
  /// antenna states over the slot and its couplings at g.
  void stage(std::size_t e, std::size_t tag, std::size_t g,
             const std::uint8_t* states) {
    masks_[e] = states;
    on_[e] = coup_on_[tag * n_gw() + g];
    off_[e] = coup_off_[tag * n_gw() + g];
  }

  /// Streams the carrier up to (excluding) trial sample `hi`; a no-op
  /// for a carrier already filled that far.
  void ensure_carrier(std::size_t hi);

  /// Gateway g's slot `slot` over the first `n_ent` staged entities,
  /// then the slot's faults and g's AWGN fork, into `out`. The carrier
  /// must cover the slot.
  void synthesize(std::size_t g, std::uint64_t slot, std::size_t n_ent,
                  std::span<cf32> out);

  /// Gateway-slots synthesize() has produced.
  std::uint64_t gateway_slots() const { return gateway_slots_; }

 private:
  /// A stuck switch pins the fault-covered slots to the jammed
  /// position; oscillator drift shifts the whole burst by the skew
  /// accumulated since fault onset.
  [[gnu::noinline]] void apply_tag_fault(
      std::uint32_t k, std::uint64_t start_slot,
      std::vector<std::uint8_t>& states) const;
  /// The fault transform of one gateway-slot between the fused kernel
  /// and the AWGN stage.
  [[gnu::noinline]] void apply_slot_faults(std::size_t g, std::size_t slot,
                                           std::span<cf32> samples) const;

  TrialGeometry geo_;
  std::unique_ptr<channel::AmbientSource> source_;
  std::span<const cf32> h_sr_, coup_on_, coup_off_;
  const core::FdDataTransmitter& tx_;
  const FaultPlan& faults_;
  std::span<cf32> carrier_{};
  bool constant_ = false;
  std::size_t carrier_filled_ = 0;
  std::span<channel::AwgnChannel> noise_{};
  // Fused-kernel scratch: per staged entity its mask pointer and the
  // coupling pair at the gateway being synthesized, plus the
  // coefficient accumulator.
  std::span<const std::uint8_t*> masks_{};
  std::span<cf32> on_{}, off_{}, coeff_{};
  std::uint64_t gateway_slots_ = 0;
};

/// kHybrid's escalated synthesis. The frame log and per-slot index
/// record who was on air when (amortised vectors: escalation demand is
/// data-dependent and mid-trial); the slot cache holds the noisy
/// synthesized receive history per (gateway, slot), built the first
/// time any escalated window touches the slot and shared by every later
/// one, so overlapping contested frames see one noise realisation, as
/// on the waveform path. A slot is final once built: escalations run at
/// verdict time, when every frame that can overlap it is logged. Cache
/// storage is chunk-lazy — each (gateway, kChunkSlots slots) is carved
/// on first touch and a window straddling chunks is gathered into one
/// buffer (identical samples) — and demand is deterministic, so the
/// arena's high-water capacity is replay-stable.
class HybridEscalator {
 public:
  static constexpr std::size_t kChunkSlots = 4;

  /// `in_range` is the tag-major [tag * n_gw + gw] interference-range
  /// mask: only in-range logged frames are folded into a gateway's
  /// slots. `front_end` makes the fresh RC envelope of each window.
  /// `digests` (one per gateway, or empty) receives every escalated
  /// envelope run. Everything passed by reference or span must outlive
  /// the escalator.
  HybridEscalator(const TrialGeometry& geo, std::size_t n_tags,
                  std::span<const std::uint8_t> in_range,
                  GatewaySlotSynth& synth,
                  const WaveformSynthesizer& front_end,
                  const core::FdDataReceiver& rx, std::size_t payload_bytes,
                  std::span<std::uint64_t> digests, SynthArena& arena);

  /// Logs tag k's frame started at `slot` as the tag's current frame.
  void log_frame(std::size_t k, std::uint64_t slot,
                 std::span<const std::uint8_t> bytes);
  /// Indexes `slot` (slots in order): the current frames of the tags
  /// `on_air` are on air in it.
  void index_slot(std::uint64_t slot, std::span<const std::size_t> on_air);

  /// Gateway g's envelope over trial samples [lo, hi): the window's
  /// slots from the cache, plus one warm-up slot ahead of it that
  /// settles a fresh RC envelope state (the RC time constant is a
  /// fraction of a chip). The whole envelope run folds into g's digest.
  std::span<const float> window(std::size_t g, std::size_t lo,
                                std::size_t hi);

  /// Escalated resolution of a contested frame started in slot `start`:
  /// the contested gateways of `verdict` are tried best `margin` first
  /// (ties to the lowest index), each decoding its window, and
  /// `accept(g, result)` judges each decode; the loop stops at the first
  /// accepted one, so weaker gateways' windows are never synthesized.
  /// Verdicts equal the exhaustive sweep's; only the per-gateway decode
  /// tallies stop accruing.
  template <class Accept>
  bool escalate(std::uint64_t start, std::span<const LinkVerdict> verdict,
                std::span<const double> margin, Accept accept) {
    for (const std::size_t g : contested_order(verdict, margin)) {
      if (accept(g, demodulate(g, start))) return true;
    }
    return false;
  }

 private:
  /// One started frame. The analytic path never modulates antenna
  /// states; an escalated slot regenerates them on demand from the
  /// payload and keeps them, so later slots of the frame reuse them.
  struct FrameLog {
    std::uint32_t tag = 0;
    std::uint64_t start_slot = 0;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> states;  // empty until first escalation
  };

  std::span<const std::size_t> contested_order(
      std::span<const LinkVerdict> verdict, std::span<const double> margin);
  /// The receiver output over gateway g's decode window of frames that
  /// started in slot `start`, memoized: colliding frames that started
  /// in the same slot share the window (its bounds derive from the start
  /// slot alone and built slots never change), so only the per-tag
  /// payload comparison differs, and a memo hit synthesizes nothing.
  const core::FdRxResult& demodulate(std::size_t g, std::uint64_t start);
  /// Gateway g's slot s in the cache, built on first touch from the
  /// in-range logged frames on air in it.
  cf32* slot(std::size_t g, std::size_t s);

  TrialGeometry geo_;
  std::size_t n_gw_;
  std::span<const std::uint8_t> in_range_;
  GatewaySlotSynth& synth_;
  const WaveformSynthesizer& front_end_;
  const core::FdDataReceiver& rx_;
  std::size_t payload_bytes_;
  std::span<std::uint64_t> digests_;
  SynthArena& arena_;

  std::vector<FrameLog> frame_log_;
  std::span<std::uint32_t> current_{};  ///< [tag] its current frame's log id
  std::vector<std::uint32_t> slot_frames_;
  std::vector<std::uint32_t> slot_frames_off_;
  std::size_t chunks_per_gw_ = 0;
  std::span<cf32*> chunks_{};
  std::span<std::uint8_t> built_{};
  std::span<cf32> win_{};
  std::span<float> env_{};
  std::vector<std::size_t> order_;
  std::map<std::pair<std::size_t, std::uint64_t>, core::FdRxResult> demod_;
};

/// One frame as the margin band sees it at the gateways.
struct FrameClass {
  LinkVerdict combined = LinkVerdict::kContested;
  /// Best per-gateway pessimistic margin over the gateways the tag
  /// listens to, and its gateway (the serving one when none beats -inf).
  double best_margin = -std::numeric_limits<double>::infinity();
  std::size_t best_g = 0;
  bool own_stuck = false;     ///< the tag's switch stuck in the window
  std::size_t own_shift = 0;  ///< the tag's drift shift, samples
};

/// The analytic verdict of one frame: per gateway the pessimistic margin
/// and the one-sided-safe band verdict, then the combined verdict over
/// the gateways the combining policy listens to.
class FrameClassifier {
 public:
  /// `delta` is the tag-major [tag * n_gw + gw] envelope-swing table.
  /// `delta` and `faults` must outlive the classifier.
  FrameClassifier(const FleetResolver& resolver, std::span<const float> delta,
                  std::size_t n_gw, std::size_t frame_slots,
                  const FaultPlan& faults, SynthArena& arena);

  /// Classifies tag k's frame started in slot `start`. `interference(g)`
  /// is the worst concurrent interference the frame saw at gateway g;
  /// `forwarded` marks a relay forward. Gateways `failover` does not
  /// listen to read clear-fail at -inf. Under faults the frame's swing
  /// is scaled by the window minimum of the signal scale for the
  /// pessimistic arm and by the maximum for the optimistic one — the
  /// same one-sided-safe bracketing the band gives interference — and a
  /// stuck or drift-shifted frame is contested at every gateway (only
  /// synthesis, which rewrites the faulted states, can judge it). A
  /// forward's clear-deliver is demoted to contested: relayed delivery
  /// is never claimed from the band alone. Ties of the best margin go to
  /// the lowest gateway; the combined verdict ranks deliver over
  /// contested over fail.
  template <class Interference>
  FrameClass classify(std::size_t k, std::uint64_t start, bool forwarded,
                      const GatewayFailover& failover,
                      Interference interference);

  std::span<const LinkVerdict> verdicts() const { return verdict_; }
  std::span<const double> margins() const { return margin_; }

 private:
  const FleetResolver& resolver_;
  std::span<const float> delta_;
  std::size_t n_gw_;
  std::size_t frame_slots_;
  const FaultPlan& faults_;
  std::span<LinkVerdict> verdict_;
  std::span<double> margin_;
};

template <class Interference>
FrameClass FrameClassifier::classify(std::size_t k, std::uint64_t start,
                                     bool forwarded,
                                     const GatewayFailover& failover,
                                     Interference interference) {
  FrameClass fc;
  fc.best_g = failover.serving(k);
  const std::uint64_t hi = start + frame_slots_;
  if (faults_.any()) {
    const auto k32 = static_cast<std::uint32_t>(k);
    fc.own_stuck = faults_.stuck_in_window(k32, static_cast<std::int64_t>(start),
                                           static_cast<std::int64_t>(hi));
    fc.own_shift =
        faults_.drift_shift_samples(k32, static_cast<std::int64_t>(start));
  }
  bool any_deliver = false;
  bool any_contested = false;
  for (std::size_t g = 0; g < n_gw_; ++g) {
    if (!failover.listens(k, g)) {
      verdict_[g] = LinkVerdict::kClearFail;
      margin_[g] = -std::numeric_limits<double>::infinity();
      continue;
    }
    const double d = delta_[k * n_gw_ + g];
    const double interf = interference(g);
    // Without faults both scales are 1, and d * 1 is d.
    const double s_min =
        faults_.any() ? faults_.min_signal_scale(g, start, hi) : 1.0;
    const double s_max =
        faults_.any() ? faults_.max_signal_scale(g, start, hi) : 1.0;
    margin_[g] = resolver_.margin_db(d * s_min, interf);
    verdict_[g] = resolver_.classify_margin(margin_[g], d * s_max);
    if (fc.own_stuck || fc.own_shift > 0 ||
        (forwarded && verdict_[g] == LinkVerdict::kClearDeliver)) {
      verdict_[g] = LinkVerdict::kContested;
    }
    if (margin_[g] > fc.best_margin) {
      fc.best_margin = margin_[g];
      fc.best_g = g;
    }
    any_deliver |= verdict_[g] == LinkVerdict::kClearDeliver;
    any_contested |= verdict_[g] == LinkVerdict::kContested;
  }
  fc.combined = any_deliver     ? LinkVerdict::kClearDeliver
                : any_contested ? LinkVerdict::kContested
                                : LinkVerdict::kClearFail;
  return fc;
}

namespace detail {

/// FNV-1a offset basis: NetworkTrialResult::envelope_digest before any
/// sample is folded.
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Folds `x` into envelope digest `h`: FNV-1a over the float bit
/// patterns, one 32-bit word per step. Cold: digests are kept only
/// when frames are recorded.
[[gnu::cold]] void fold_digest(std::uint64_t& h, std::span<const float> x);

}  // namespace detail

}  // namespace fdb::sim
