// The full-duplex backscatter modem: composition of the one-way PHY,
// the self-interference normaliser, and the rate-separated feedback
// channel. Three roles:
//
//   FdDataTransmitter  (device A)  payload -> per-sample antenna states
//   FdDataReceiver     (device B)  envelope + own feedback states ->
//                                  per-block verdicts + payload
//   FdFeedbackReceiver (device A)  envelope + own data states ->
//                                  feedback bits
//
// Device B *simultaneously* runs FdDataReceiver and FeedbackEncoder;
// device A simultaneously runs FdDataTransmitter and FdFeedbackReceiver.
// That concurrency — receive-while-transmit on both ends of a passive
// link — is the paper's contribution.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/feedback.hpp"
#include "core/frame_schedule.hpp"
#include "phy/modem.hpp"

namespace fdb::core {

struct FdModemConfig {
  phy::ModemConfig data;            // data-plane modem (rates inside)
  FeedbackConfig feedback;          // feedback-plane coding/averaging
  ScheduleConfig schedule;          // block <-> slot timing
  std::size_t block_size_bytes = 8; // instant-NACK protocol unit

  /// Block payload bits + CRC8 trailer, as sent on the data stream.
  std::size_t block_bits() const { return block_size_bytes * 8 + 8; }

  /// A consistent config keys the rate asymmetry to the block length so
  /// one block maps to one feedback slot (see FrameSchedule).
  bool consistent() const {
    return data.rates.valid() && data.rates.asymmetry == block_bits();
  }

  /// Builds a config where the asymmetry matches `block_size_bytes`.
  static FdModemConfig make(std::size_t block_size_bytes = 8,
                            std::size_t samples_per_chip = 20);
};

class FdDataTransmitter {
 public:
  /// Throws std::invalid_argument when !config.consistent().
  explicit FdDataTransmitter(FdModemConfig config);

  /// Preamble + blocked payload as per-sample antenna states.
  std::vector<std::uint8_t> modulate(
      std::span<const std::uint8_t> payload) const;

  /// States for a retransmission burst of the given blocks only (each
  /// block re-sent with its CRC; no preamble — the receiver is already
  /// synchronised within the frame).
  std::vector<std::uint8_t> modulate_blocks_raw(
      std::span<const std::uint8_t> payload, std::size_t block_size,
      std::span<const std::size_t> block_indices) const;

  std::size_t preamble_samples() const;
  std::size_t burst_samples(std::size_t payload_bytes) const;
  std::size_t num_blocks(std::size_t payload_bytes) const;

  const FdModemConfig& config() const { return config_; }

 private:
  FdModemConfig config_;
  phy::BackscatterTx tx_;
};

struct FdRxResult {
  Status status = Status::kSyncNotFound;
  phy::BlockDecodeResult blocks;
  phy::RxDiagnostics diag;
  /// Envelope after self-interference normalisation (diagnostics).
  std::vector<float> normalized;
};

class FdDataReceiver {
 public:
  /// Throws std::invalid_argument when !config.consistent().
  explicit FdDataReceiver(FdModemConfig config);

  /// Decodes a blocked frame while the device transmits feedback.
  /// `own_states` is this device's *own* antenna state per sample
  /// (empty => device is silent, degenerates to half-duplex receive).
  /// Throws std::invalid_argument when a non-empty `own_states` is not
  /// one state per envelope sample.
  FdRxResult demodulate(std::span<const float> envelope,
                        std::span<const std::uint8_t> own_states,
                        std::size_t payload_bytes) const;

  const FdModemConfig& config() const { return config_; }

 private:
  FdModemConfig config_;
  phy::BackscatterRx rx_;
};

class FdFeedbackReceiver {
 public:
  /// Throws std::invalid_argument when !config.consistent().
  explicit FdFeedbackReceiver(FdModemConfig config);

  /// Decodes `num_bits` feedback bits from the transmitter's received
  /// envelope. `data_start_sample` is where the data section began in
  /// this capture (the transmitter knows: it set the timing);
  /// `own_states` is the transmitter's own antenna state per sample of
  /// the same capture (or empty). Throws std::invalid_argument when
  /// `data_start_sample` lies past the capture or a non-empty
  /// `own_states` is not one state per envelope sample.
  FeedbackDecodeResult decode(std::span<const float> envelope,
                              std::span<const std::uint8_t> own_states,
                              std::size_t data_start_sample,
                              std::size_t num_bits) const;

  const FdModemConfig& config() const { return config_; }

 private:
  FdModemConfig config_;
  FeedbackDecoder decoder_;
};

}  // namespace fdb::core
