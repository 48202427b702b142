// Timing contract between the fast data stream and the slow feedback
// stream. Protocol blocks are sized so one block occupies exactly one
// feedback slot (asymmetry = block bits); the verdict for block i then
// arrives in slot i + 1 + decode_delay_slots, giving the transmitter a
// deterministic place to look — no feedback framing needed.
#pragma once

#include <cstddef>

#include "phy/rate_config.hpp"

namespace fdb::core {

struct ScheduleConfig {
  /// Extra slots between a block ending and its verdict appearing,
  /// modelling the receiver's decode latency (>= 1 in any causal
  /// implementation).
  std::size_t decode_delay_slots = 1;
};

class FrameSchedule {
 public:
  /// Throws std::invalid_argument when !rates.valid() or
  /// config.decode_delay_slots is 0.
  FrameSchedule(phy::RateConfig rates, ScheduleConfig config = {});

  /// Bits of data stream covered by one feedback slot.
  std::size_t bits_per_slot() const { return rates_.asymmetry; }

  /// Slot index whose feedback bit carries the verdict of `block`.
  std::size_t verdict_slot(std::size_t block) const;

  /// First data-bit index of `slot` (slots count from the start of the
  /// data section, i.e. after the preamble).
  std::size_t slot_start_bit(std::size_t slot) const;

  /// First sample index of `slot` relative to the data start.
  std::size_t slot_start_sample(std::size_t slot) const;

  /// Number of feedback slots needed to cover `num_blocks` verdicts.
  std::size_t slots_for_blocks(std::size_t num_blocks) const;

  const phy::RateConfig& rates() const { return rates_; }
  const ScheduleConfig& config() const { return config_; }

 private:
  phy::RateConfig rates_;
  ScheduleConfig config_;
};

}  // namespace fdb::core
