// One-way (half-duplex) backscatter modem: the baseline PHY that the
// full-duplex core extends. The transmitter is a chip-state generator
// (it drives the tag's RF switch); the receiver turns an envelope
// capture back into a payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/framer.hpp"
#include "phy/line_code.hpp"
#include "phy/preamble.hpp"
#include "phy/rate_config.hpp"
#include "phy/slicer.hpp"
#include "util/types.hpp"

namespace fdb::phy {

struct ModemConfig {
  RateConfig rates;
  LineCode line_code = LineCode::kFm0;
  SlicerConfig slicer;
  float sync_threshold = 0.5f;  // normalised correlation for frame lock
};

/// Transmit side: payload -> per-sample antenna states (0/1).
class BackscatterTx {
 public:
  /// Throws std::invalid_argument when !config.rates.valid().
  explicit BackscatterTx(ModemConfig config);

  /// Full burst: preamble chips + framed payload, expanded to samples.
  std::vector<std::uint8_t> modulate_frame(
      std::span<const std::uint8_t> payload) const;

  /// Raw bits (no framing) with preamble — used by BER probes that want
  /// to count bit errors directly.
  std::vector<std::uint8_t> modulate_bits(
      std::span<const std::uint8_t> bits) const;

  /// Expands chips to per-sample states.
  std::vector<std::uint8_t> chips_to_states(
      std::span<const std::uint8_t> chips) const;

  /// Number of samples a framed payload occupies on air.
  std::size_t frame_samples(std::size_t payload_bytes) const;

  const ModemConfig& config() const { return config_; }

 private:
  ModemConfig config_;
};

struct RxDiagnostics {
  float sync_corr = 0.0f;           // correlation at lock
  std::size_t sync_sample = 0;      // sample index of preamble end
  std::size_t chips_decoded = 0;
  std::vector<std::uint8_t> chip_decisions;
};

struct RxResult {
  Status status = Status::kSyncNotFound;
  std::vector<std::uint8_t> payload;
  RxDiagnostics diag;
};

/// Receive side: envelope capture -> payload. Burst-mode: the caller
/// hands the whole capture (as an SDR capture or a simulation run).
class BackscatterRx {
 public:
  /// Throws std::invalid_argument when !config.rates.valid().
  explicit BackscatterRx(ModemConfig config);

  /// Locates the preamble and decodes one framed payload.
  RxResult demodulate_frame(std::span<const float> envelope) const;

  /// Known-sync variant: decodes one framed payload when the caller has
  /// already located the preamble — `data_start_hint` is the coarse
  /// index of the first data sample (preamble_samples for a capture
  /// that starts at the preamble, as StreamingReceiver hands over).
  /// Skips the O(N·W) correlation search entirely; fine timing is still
  /// recovered around the hint. diag.sync_corr is left at 0 (the caller
  /// owns the correlation evidence that produced the hint).
  RxResult demodulate_frame_at(std::span<const float> envelope,
                               std::size_t data_start_hint) const;

  /// Decodes `num_bits` raw bits following the preamble (no framing).
  /// Returns nullopt when sync fails.
  std::optional<std::vector<std::uint8_t>> demodulate_bits(
      std::span<const float> envelope, std::size_t num_bits,
      RxDiagnostics* diag = nullptr) const;

  /// Known-sync variant of demodulate_bits: same contract as
  /// demodulate_frame_at for `data_start_hint`.
  std::optional<std::vector<std::uint8_t>> demodulate_bits_at(
      std::span<const float> envelope, std::size_t num_bits,
      std::size_t data_start_hint, RxDiagnostics* diag = nullptr) const;

  const ModemConfig& config() const { return config_; }

 private:
  /// Returns the sample index of the last preamble sample, or nullopt.
  std::optional<std::size_t> find_sync(std::span<const float> envelope,
                                       float* corr_out) const;

  /// Fine timing recovery around a coarse sync estimate: tests offsets
  /// within one chip and returns the data-start index whose preamble
  /// chip averages best match the known ±1 pattern.
  std::size_t refine_data_start(std::span<const float> envelope,
                                std::size_t coarse_data_start) const;

  /// Integrate&dump + adaptive slicing from `start_sample`, producing
  /// up to `max_chips` chip decisions (primed on the preamble region).
  std::vector<std::uint8_t> slice_chips(std::span<const float> envelope,
                                        std::size_t preamble_start,
                                        std::size_t data_start,
                                        std::size_t max_chips) const;

  std::size_t preamble_samples() const;

  /// The correlation search's coarse data start (one past find_sync's
  /// peak), or nullopt when sync fails or the peak leaves no room for
  /// the preamble. `corr_out` as for find_sync.
  std::optional<std::size_t> coarse_data_start(std::span<const float> envelope,
                                               float* corr_out) const;

  /// Whether a known-sync hint leaves room for the preamble and lies
  /// within the capture.
  bool hint_fits(std::span<const float> envelope,
                 std::size_t data_start_hint) const;

  ModemConfig config_;
};

}  // namespace fdb::phy
