#include "core/frame_schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fdb::core {
namespace {

phy::RateConfig rates_with_asymmetry(std::size_t k) {
  phy::RateConfig rates;
  rates.samples_per_chip = 10;
  rates.asymmetry = k;
  return rates;
}

TEST(FrameSchedule, RejectsInvalidRatesAndZeroDecodeDelay) {
  EXPECT_THROW(FrameSchedule(rates_with_asymmetry(0)), std::invalid_argument);
  EXPECT_THROW(FrameSchedule(rates_with_asymmetry(8), {.decode_delay_slots = 0}),
               std::invalid_argument);
}

TEST(FrameSchedule, VerdictSlotOffsetsByDelay) {
  FrameSchedule schedule(rates_with_asymmetry(72), {.decode_delay_slots = 1});
  EXPECT_EQ(schedule.verdict_slot(0), 1u);
  EXPECT_EQ(schedule.verdict_slot(5), 6u);
}

TEST(FrameSchedule, LargerDelayShiftsAllVerdicts) {
  FrameSchedule schedule(rates_with_asymmetry(72), {.decode_delay_slots = 3});
  EXPECT_EQ(schedule.verdict_slot(0), 3u);
  EXPECT_EQ(schedule.verdict_slot(10), 13u);
}

TEST(FrameSchedule, SlotStartBitIsMultipleOfAsymmetry) {
  FrameSchedule schedule(rates_with_asymmetry(64));
  EXPECT_EQ(schedule.slot_start_bit(0), 0u);
  EXPECT_EQ(schedule.slot_start_bit(3), 192u);
}

TEST(FrameSchedule, SlotStartSampleConsistentWithRates) {
  const auto rates = rates_with_asymmetry(64);
  FrameSchedule schedule(rates);
  EXPECT_EQ(schedule.slot_start_sample(1),
            64u * rates.samples_per_bit());
}

TEST(FrameSchedule, SlotsForBlocksCoversLastVerdict) {
  FrameSchedule schedule(rates_with_asymmetry(72), {.decode_delay_slots = 2});
  EXPECT_EQ(schedule.slots_for_blocks(0), 0u);
  EXPECT_EQ(schedule.slots_for_blocks(1), 3u);   // verdict of block 0 in slot 2
  EXPECT_EQ(schedule.slots_for_blocks(4), 6u);
}

TEST(FrameSchedule, BitsPerSlotEqualsAsymmetry) {
  FrameSchedule schedule(rates_with_asymmetry(48));
  EXPECT_EQ(schedule.bits_per_slot(), 48u);
}

TEST(RateConfig, DerivedRatesConsistent) {
  phy::RateConfig rates;
  rates.sample_rate_hz = 2e6;
  rates.samples_per_chip = 20;
  rates.asymmetry = 16;
  EXPECT_EQ(rates.samples_per_bit(), 40u);
  EXPECT_EQ(rates.samples_per_feedback_bit(), 640u);
  EXPECT_DOUBLE_EQ(rates.data_rate_bps(), 50000.0);
  EXPECT_DOUBLE_EQ(rates.feedback_rate_bps(), 3125.0);
  EXPECT_DOUBLE_EQ(rates.data_rate_bps() / rates.feedback_rate_bps(), 16.0);
}

}  // namespace
}  // namespace fdb::core
