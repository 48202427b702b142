#include "core/frame_schedule.hpp"

#include <stdexcept>

namespace fdb::core {

FrameSchedule::FrameSchedule(phy::RateConfig rates, ScheduleConfig config)
    : rates_(rates), config_(config) {
  phy::require_valid(rates, "FrameSchedule");
  if (config.decode_delay_slots < 1) {
    throw std::invalid_argument(
        "FrameSchedule: decode_delay_slots must be at least 1 (verdicts "
        "cannot be delivered in the slot they are computed)");
  }
}

std::size_t FrameSchedule::verdict_slot(std::size_t block) const {
  // Block i occupies slot i on the data stream; its verdict rides
  // decode_delay_slots later on the feedback stream.
  return block + config_.decode_delay_slots;
}

std::size_t FrameSchedule::slot_start_bit(std::size_t slot) const {
  return slot * rates_.asymmetry;
}

std::size_t FrameSchedule::slot_start_sample(std::size_t slot) const {
  return slot_start_bit(slot) * rates_.samples_per_bit();
}

std::size_t FrameSchedule::slots_for_blocks(std::size_t num_blocks) const {
  if (num_blocks == 0) return 0;
  return verdict_slot(num_blocks - 1) + 1;
}

}  // namespace fdb::core
