// The feedback channel — the other half of the full-duplex trick.
//
// While device B decodes A's fast data stream, it simultaneously keys
// its own antenna at 1/k of the data rate. Device A recovers those slow
// bits *through* its own transmission without any cancellation
// hardware, exploiting two structural facts:
//
//  1. FM0 data is DC-balanced over every bit, so averaging the envelope
//     over a feedback-bit window (a whole number of data bits) yields a
//     statistic that is independent of the data pattern A sent.
//  2. A knows its own switch state at every sample, so it can restrict
//     the average to samples where it was absorbing (kSelfGated mode),
//     removing even the constant own-reflection offset.
//
// The feedback waveform itself is Manchester-coded at the slow scale by
// default: each feedback bit becomes a half-window high / half-window
// low pair, which keeps the slow stream DC-balanced too and lets the
// decoder threshold per-window instead of tracking a global level.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/rate_config.hpp"

namespace fdb::core {

enum class FeedbackCoding : std::uint8_t {
  kNrz,         // hold state for the whole feedback bit
  kManchester,  // high/low halves: self-thresholding, DC balanced
};

enum class FeedbackAverage : std::uint8_t {
  kWindow,     // plain mean over the window (relies on FM0 balance)
  kSelfGated,  // mean over own-absorb samples only (knows own signal)
};

struct FeedbackConfig {
  FeedbackCoding coding = FeedbackCoding::kManchester;
  FeedbackAverage average = FeedbackAverage::kSelfGated;
  /// Slots of alternating calibration bits prepended by the encoder in
  /// NRZ mode (Manchester needs none for level calibration).
  std::size_t preamble_slots = 4;
  /// Known '1' pilot slots prepended in Manchester mode. A fading draw
  /// can invert the backscatter swing at the receiver; decoding the
  /// known pilot reveals the polarity and the decoder flips the rest.
  /// (NRZ resolves polarity from its alternating calibration slots.)
  std::size_t pilot_slots = 1;
  /// Adaptive threshold history, in feedback slots (NRZ mode).
  std::size_t slicer_window_slots = 8;
};

/// Encodes feedback bits to per-sample antenna states.
class FeedbackEncoder {
 public:
  /// Throws std::invalid_argument when !rates.valid().
  FeedbackEncoder(phy::RateConfig rates, FeedbackConfig config);

  /// Expands bits to per-sample 0/1 states (including the calibration
  /// preamble when the coding needs one).
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> bits) const;

  /// Samples occupied by n feedback bits (preamble included).
  std::size_t samples_for_bits(std::size_t n) const;

  /// Slots the decoder must skip before payload bits appear.
  std::size_t preamble_slots() const;

  const FeedbackConfig& config() const { return config_; }

 private:
  phy::RateConfig rates_;
  FeedbackConfig config_;
};

struct FeedbackDecodeResult {
  std::vector<std::uint8_t> bits;
  std::vector<float> soft;       // per-bit statistic (diagnostics)
  std::size_t slots_processed = 0;
};

/// Decodes the slow feedback stream from an envelope capture aligned to
/// the feedback slot grid.
class FeedbackDecoder {
 public:
  /// Throws std::invalid_argument when !rates.valid().
  FeedbackDecoder(phy::RateConfig rates, FeedbackConfig config);

  /// `envelope` and `own_states` start at a slot boundary and cover the
  /// slots to decode; own_states is A's own transmitted antenna state
  /// per sample (used by kSelfGated; may be empty for kWindow).
  FeedbackDecodeResult decode(std::span<const float> envelope,
                              std::span<const std::uint8_t> own_states,
                              std::size_t num_bits) const;

  const FeedbackConfig& config() const { return config_; }

 private:
  /// Mean of `envelope[first, first+len)` — gated on own_state==0 when
  /// configured and own-state data is available.
  double window_statistic(std::span<const float> envelope,
                          std::span<const std::uint8_t> own_states,
                          std::size_t first, std::size_t len) const;

  phy::RateConfig rates_;
  FeedbackConfig config_;
};

}  // namespace fdb::core
