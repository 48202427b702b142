#include "core/fd_modem.hpp"

#include <stdexcept>
#include <string>

#include "core/self_interference.hpp"

namespace fdb::core {

namespace {

/// Throws std::invalid_argument, naming `who`, unless `config` keys the
/// rate asymmetry to its block length.
void require_consistent(const FdModemConfig& config, const char* who) {
  if (!config.consistent()) {
    throw std::invalid_argument(
        std::string(who) +
        ": modem config needs valid rates and rates.asymmetry == "
        "block_bits(), got asymmetry " +
        std::to_string(config.data.rates.asymmetry) + " for " +
        std::to_string(config.block_bits()) + " block bits");
  }
}

}  // namespace

FdModemConfig FdModemConfig::make(std::size_t block_size_bytes,
                                  std::size_t samples_per_chip) {
  FdModemConfig config;
  config.block_size_bytes = block_size_bytes;
  config.data.rates.samples_per_chip = samples_per_chip;
  config.data.rates.asymmetry = config.block_bits();
  return config;
}

FdDataTransmitter::FdDataTransmitter(FdModemConfig config)
    : config_(config), tx_(config.data) {
  require_consistent(config_, "FdDataTransmitter");
}

std::vector<std::uint8_t> FdDataTransmitter::modulate(
    std::span<const std::uint8_t> payload) const {
  const auto bits =
      phy::blocks_to_bits(payload, config_.block_size_bytes);
  return tx_.modulate_bits(bits);
}

std::vector<std::uint8_t> FdDataTransmitter::modulate_blocks_raw(
    std::span<const std::uint8_t> payload, std::size_t block_size,
    std::span<const std::size_t> block_indices) const {
  std::vector<std::uint8_t> bits;
  for (const std::size_t b : block_indices) {
    const std::size_t start = b * block_size;
    if (start >= payload.size()) continue;
    const std::size_t n = std::min(block_size, payload.size() - start);
    const auto block_bits =
        phy::blocks_to_bits(payload.subspan(start, n), block_size);
    bits.insert(bits.end(), block_bits.begin(), block_bits.end());
  }
  const auto chips = phy::encode(config_.data.line_code, bits);
  return tx_.chips_to_states(chips);
}

std::size_t FdDataTransmitter::preamble_samples() const {
  return phy::default_preamble_length() *
         config_.data.rates.samples_per_chip;
}

std::size_t FdDataTransmitter::burst_samples(
    std::size_t payload_bytes) const {
  const std::size_t bits =
      phy::block_bits_for_payload(payload_bytes, config_.block_size_bytes);
  return preamble_samples() + bits * config_.data.rates.samples_per_bit();
}

std::size_t FdDataTransmitter::num_blocks(std::size_t payload_bytes) const {
  return (payload_bytes + config_.block_size_bytes - 1) /
         config_.block_size_bytes;
}

FdDataReceiver::FdDataReceiver(FdModemConfig config)
    : config_(config), rx_(config.data) {
  require_consistent(config_, "FdDataReceiver");
}

FdRxResult FdDataReceiver::demodulate(
    std::span<const float> envelope, std::span<const std::uint8_t> own_states,
    std::size_t payload_bytes) const {
  FdRxResult result;

  // Self-interference normalisation: rescale samples taken while this
  // device was reflecting so the data decoder sees one consistent level.
  std::span<const float> stream = envelope;
  if (!own_states.empty()) {
    result.normalized.resize(envelope.size());
    // Burst decode gets the whole capture, so the two-pass batch form
    // applies: no warm-up transient at the head of the frame.
    normalize_batch(envelope, own_states, std::span<float>(result.normalized));
    stream = result.normalized;
  }

  const std::size_t num_bits =
      phy::block_bits_for_payload(payload_bytes, config_.block_size_bytes);
  auto bits = rx_.demodulate_bits(stream, num_bits, &result.diag);
  if (!bits.has_value()) {
    result.status = Status::kSyncNotFound;
    return result;
  }
  result.blocks =
      phy::decode_blocks(*bits, payload_bytes, config_.block_size_bytes);
  result.status = result.blocks.blocks_failed == 0 ? Status::kOk
                                                   : Status::kCrcMismatch;
  return result;
}

FdFeedbackReceiver::FdFeedbackReceiver(FdModemConfig config)
    : config_(config), decoder_(config.data.rates, config.feedback) {
  require_consistent(config_, "FdFeedbackReceiver");
}

FeedbackDecodeResult FdFeedbackReceiver::decode(
    std::span<const float> envelope, std::span<const std::uint8_t> own_states,
    std::size_t data_start_sample, std::size_t num_bits) const {
  if (data_start_sample > envelope.size()) {
    throw std::invalid_argument(
        "FdFeedbackReceiver::decode: data_start_sample lies past the "
        "envelope");
  }
  if (!own_states.empty() && own_states.size() != envelope.size()) {
    throw std::invalid_argument(
        "FdFeedbackReceiver::decode: own_states must hold one state per "
        "envelope sample");
  }
  const auto tail = envelope.subspan(data_start_sample);
  std::span<const std::uint8_t> own_tail;
  if (!own_states.empty()) own_tail = own_states.subspan(data_start_sample);
  return decoder_.decode(tail, own_tail, num_bits);
}

}  // namespace fdb::core
