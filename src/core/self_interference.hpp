// Self-interference handling — half of the full-duplex trick.
//
// A backscatter device that is transmitting feedback multiplies the
// field at its own antenna by a *known* state-dependent factor: it is
// the one driving the switch. Unlike active full-duplex radios it needs
// no cancellation circuitry — it can simply renormalise its received
// envelope by the per-state gain. The gains are not known a priori
// (they depend on antenna geometry and the ambient field), so they are
// estimated by conditioning an envelope average on the device's own
// switch state: over a whole burst (normalize_batch, which
// FdDataReceiver runs) or as a streaming EMA
// (SelfInterferenceNormalizer).
#pragma once

#include <cstdint>
#include <span>

namespace fdb::core {

struct NormalizerConfig {
  /// EMA time constant in samples for the per-state envelope means.
  /// Should span several data bits but stay well under the fading
  /// coherence block.
  double ema_samples = 2048;
  /// Means are trusted only after this many samples of each state.
  std::size_t warmup_samples = 64;
};

/// Streams envelope samples with the device's own antenna state and
/// rescales state-1 samples so both states share the state-0 mean —
/// removing the device's own (known) modulation from the stream the
/// *data* decoder sees.
class SelfInterferenceNormalizer {
 public:
  explicit SelfInterferenceNormalizer(NormalizerConfig config = {});

  /// Normalises one sample given the device's own current state.
  float process(float envelope, bool own_state);

  /// Block form; all spans the same length.
  void process(std::span<const float> envelope,
               std::span<const std::uint8_t> own_states,
               std::span<float> out);

  /// Estimated per-state envelope means (diagnostics / tests).
  double mean_state0() const { return mean_[0]; }
  double mean_state1() const { return mean_[1]; }

  /// Current correction gain applied to state-1 samples.
  double gain() const;

  void reset();

 private:
  NormalizerConfig config_;
  double alpha_;
  double mean_[2] = {0.0, 0.0};
  std::size_t seen_[2] = {0, 0};
};

/// Two-pass batch form for burst decode, the one FdDataReceiver runs:
/// estimates the per-state means over the whole capture first, then
/// rescales state-1 samples with the final gain. Avoids the warm-up
/// transient the streaming form pays at the start of a burst (a real
/// tag would burn a short calibration prefix instead). A capture with
/// only one state has no ratio to take: gain 1, samples unchanged.
/// Returns the applied gain. Throws std::invalid_argument unless all
/// spans have the same length.
double normalize_batch(std::span<const float> envelope,
                       std::span<const std::uint8_t> own_states,
                       std::span<float> out);

}  // namespace fdb::core
