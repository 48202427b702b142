// The ExperimentRunner's load-bearing contract: trial-level determinism
// means the merged result is bit-identical at any job count. Everything
// downstream (comparable sweeps across machines, CI reproducibility,
// perf trajectories) leans on this, so the tests compare doubles with
// exact equality on purpose.
#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/sweep.hpp"

namespace fdb::sim {
namespace {

LinkSimConfig fast_config(std::uint64_t seed = 42) {
  LinkSimConfig config;
  config.modem = core::FdModemConfig::make(/*block_size_bytes=*/4,
                                           /*samples_per_chip=*/6);
  config.carrier = "cw";
  config.fading = "static";
  config.noise_power_override_w = 3e-9;  // noisy: error counts vary by trial
  config.seed = seed;
  return config;
}

TEST(ExperimentRunner, BitIdenticalAcrossJobCounts) {
  // The headline contract from the refactor: jobs=1 and jobs=8 produce
  // bit-identical merged LinkStats for the same seed. 50 trials spans
  // several chunks so the work genuinely interleaves at jobs=8.
  const auto config = fast_config();
  const auto serial = ExperimentRunner(1).run(config, 50, 12);
  const auto parallel = ExperimentRunner(8).run(config, 50, 12);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.trials, 50u);
  // The operating point must actually exercise non-trivial outcomes or
  // the comparison proves nothing.
  EXPECT_GT(serial.data.errors() + serial.sync_failures, 0u);
}

TEST(ExperimentRunner, BitIdenticalOnOddChunkBoundaries) {
  // Trial counts that don't divide into chunks evenly: partial last
  // chunk must land in the same merge slot at any parallelism.
  const auto config = fast_config(7);
  for (const std::size_t trials : {1ul, ExperimentRunner::kTrialsPerChunk - 1,
                                   ExperimentRunner::kTrialsPerChunk + 1,
                                   3 * ExperimentRunner::kTrialsPerChunk + 5}) {
    const auto a = ExperimentRunner(1).run(config, trials, 8);
    const auto b = ExperimentRunner(5).run(config, trials, 8);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.trials, trials);
  }
}

TEST(ExperimentRunner, MatchesSerialSimulatorTrialForTrial) {
  // The runner runs exactly trials [0, n) of the same simulator — the
  // integer outcome counts must match the serial loop (the Welford
  // moments may differ in the last bit because the serial loop's
  // reduction tree is per-trial, not per-chunk).
  const auto config = fast_config(3);
  LinkSimulator sim(config);
  sim.set_payload_bytes(8);
  const auto serial = sim.run(40);
  const auto pooled = ExperimentRunner(4).run(config, 40, 8);
  EXPECT_EQ(serial.trials, pooled.trials);
  EXPECT_EQ(serial.sync_failures, pooled.sync_failures);
  EXPECT_EQ(serial.data.errors(), pooled.data.errors());
  EXPECT_EQ(serial.data.trials(), pooled.data.trials());
  EXPECT_EQ(serial.feedback.errors(), pooled.feedback.errors());
  EXPECT_NEAR(serial.harvested_per_frame_j.mean(),
              pooled.harvested_per_frame_j.mean(), 1e-15);
}

TEST(ExperimentRunner, RunTrialIsPure) {
  // Same index twice on one simulator, and the same index on a fresh
  // simulator, all produce the same outcome.
  LinkSimulator sim(fast_config(11));
  sim.set_payload_bytes(8);
  const auto a = sim.run_trial(17);
  const auto b = sim.run_trial(17);
  LinkSimulator sim2(fast_config(11));
  sim2.set_payload_bytes(8);
  const auto c = sim2.run_trial(17);
  EXPECT_EQ(a.data_bit_errors, b.data_bit_errors);
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(a.data_bit_errors, c.data_bit_errors);
  EXPECT_EQ(a.harvested_j, c.harvested_j);
  EXPECT_EQ(a.sync_sample, c.sync_sample);
}

TEST(ExperimentRunner, TrialsDrawDistinctRandomness) {
  // Different trial indices must not repeat the same exchange.
  LinkSimulator sim(fast_config(13));
  sim.set_payload_bytes(8);
  const auto a = sim.run_trial(0);
  const auto b = sim.run_trial(1);
  EXPECT_TRUE(a.harvested_j != b.harvested_j ||
              a.sync_corr != b.sync_corr);
}

TEST(ExperimentRunner, BatchKeepsScenarioOrder) {
  std::vector<Scenario> scenarios;
  // Vary the ambient-to-B distance: incident power (and therefore
  // harvested energy) at B falls monotonically with it.
  for (const double d : {2.0, 5.0, 10.0}) {
    auto config = fast_config(9);
    config.ambient_to_b_m = d;
    scenarios.push_back({config, 10, 8});
  }
  const auto serial = ExperimentRunner(1).run_batch(scenarios);
  const auto parallel = ExperimentRunner(8).run_batch(scenarios);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
  }
  // Harvested energy falls with distance — confirms slot i really holds
  // scenario i and not whichever finished first.
  EXPECT_GT(serial[0].harvested_per_frame_j.mean(),
            serial[2].harvested_per_frame_j.mean());
}

TEST(ExperimentRunner, RunSweepMapsAxisToScenarios) {
  const std::vector<double> axis = {2.0, 8.0};
  const ExperimentRunner runner(4);
  const auto summaries = runner.run_sweep<double>(
      axis, [](const double& d) {
        auto config = fast_config(21);
        config.ambient_to_b_m = d;
        return Scenario{config, 8, 8};
      });
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].trials, 8u);
  EXPECT_GT(summaries[0].harvested_per_frame_j.mean(),
            summaries[1].harvested_per_frame_j.mean());
}

TEST(ExperimentRunner, MapPreservesIndexOrder) {
  const ExperimentRunner runner(8);
  const auto out = runner.map(100, [](std::size_t i) { return 3 * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i);
}

TEST(ExperimentRunner, MapZeroItems) {
  const ExperimentRunner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(ExperimentRunner, RunZeroTrials) {
  const auto summary = ExperimentRunner(4).run(fast_config(), 0, 8);
  EXPECT_EQ(summary.trials, 0u);
  EXPECT_EQ(summary.data.trials(), 0u);
}

TEST(ExperimentRunner, PropagatesWorkerExceptions) {
  const ExperimentRunner runner(4);
  EXPECT_THROW(runner.map(64,
                          [](std::size_t i) -> int {
                            if (i == 40) throw std::runtime_error("boom");
                            return 0;
                          }),
               std::runtime_error);
}

struct SumAcc {
  std::uint64_t sum = 0;
  void merge(const SumAcc& other) { sum += other.sum; }
};

TEST(ExperimentRunner, RunChunkedAccumulates) {
  const ExperimentRunner runner(8);
  const auto acc = runner.run_chunked<SumAcc>(
      1000, [](SumAcc& a, std::size_t i) { a.sum += i; });
  EXPECT_EQ(acc.sum, 999u * 1000u / 2u);
}

// Merge order made visible: `chunks` lists chunk indices in the order
// they were merged, and `sum` is a double sum whose rounding depends on
// that order.
struct LogAcc {
  std::vector<std::size_t> chunks;
  double sum = 0.0;
  void merge(const LogAcc& other) {
    chunks.insert(chunks.end(), other.chunks.begin(), other.chunks.end());
    sum += other.sum;
  }
};

// 16 chunks whose first trial sleeps (16 - chunk) * 10 ms, so at 4 jobs
// chunk 3 finishes before chunk 0 and later chunks keep overtaking
// earlier ones. `finished` gets each chunk index as its last trial ends.
// Chunk `throw_chunk` throws from its first trial.
LogAcc run_inverse_delays(std::size_t jobs, std::vector<std::size_t>& finished,
                          std::size_t throw_chunk = SIZE_MAX) {
  constexpr std::size_t kChunks = 16;
  constexpr std::size_t kPer = ExperimentRunner::kTrialsPerChunk;
  std::mutex finished_mutex;
  return ExperimentRunner(jobs).run_chunked<LogAcc>(
      kChunks * kPer, [&](LogAcc& a, std::size_t i) {
        const std::size_t c = i / kPer;
        if (i % kPer == 0) {
          if (c == throw_chunk) throw std::runtime_error("chunk failed");
          a.chunks.push_back(c);
          std::this_thread::sleep_for(std::chrono::milliseconds(
              10 * static_cast<std::int64_t>(kChunks - c)));
        }
        a.sum += 1.0 / static_cast<double>(3 * i + 1);
        if (i % kPer == kPer - 1) {
          std::lock_guard<std::mutex> lock(finished_mutex);
          finished.push_back(c);
        }
      });
}

TEST(ExperimentRunner, RunChunkedMergesInChunkOrderWhenChunksFinishOutOfOrder) {
  std::vector<std::size_t> finished_1;
  std::vector<std::size_t> finished_4;
  const LogAcc serial = run_inverse_delays(1, finished_1);
  const LogAcc parallel = run_inverse_delays(4, finished_4);
  std::vector<std::size_t> in_order(16);
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  // The scenario is what it claims: chunks finished out of order.
  EXPECT_EQ(finished_1, in_order);
  EXPECT_FALSE(std::is_sorted(finished_4.begin(), finished_4.end()));
  EXPECT_EQ(parallel.chunks, in_order);
  EXPECT_EQ(serial.chunks, in_order);
  EXPECT_EQ(parallel.sum, serial.sum);  // exact: the same left fold
}

TEST(ExperimentRunner, RunChunkedRethrowsWhenAChunkThrowsMidRun) {
  // Chunk 3 never reaches the merge frontier, so chunks 4..15 finish
  // with nothing to merge them behind; the call must still return (by
  // rethrowing) instead of waiting on the frontier.
  for (const std::size_t jobs : {1, 4}) {
    std::vector<std::size_t> finished;
    EXPECT_THROW((void)run_inverse_delays(jobs, finished, 3),
                 std::runtime_error)
        << "jobs " << jobs;
  }
}

// Counts live accumulators: a merged chunk must be released, not kept
// until the last chunk finishes.
struct CountedAcc {
  static inline std::size_t live = 0;
  static inline std::size_t peak = 0;
  CountedAcc() { note(); }
  CountedAcc(const CountedAcc&) { note(); }
  CountedAcc(CountedAcc&&) noexcept { note(); }
  CountedAcc& operator=(const CountedAcc&) = default;
  CountedAcc& operator=(CountedAcc&&) = default;
  ~CountedAcc() { --live; }
  void merge(const CountedAcc&) {}
  static void note() { peak = std::max(peak, ++live); }
};

TEST(ExperimentRunner, RunChunkedReleasesMergedChunks) {
  // One job, so the counters need no synchronization.
  CountedAcc::peak = CountedAcc::live;
  (void)ExperimentRunner(1).run_chunked<CountedAcc>(
      64 * ExperimentRunner::kTrialsPerChunk, [](CountedAcc&, std::size_t) {});
  EXPECT_EQ(CountedAcc::live, 0u);
  EXPECT_LT(CountedAcc::peak, 8u);  // not one per chunk (64)
}

TEST(ExperimentRunner, ZeroJobsSelectsHardware) {
  EXPECT_GE(ExperimentRunner(0).jobs(), 1u);
  EXPECT_EQ(ExperimentRunner(3).jobs(), 3u);
}

TEST(Sweep, ParallelSweepMatchesSerial) {
  // sweep() is rebuilt on the runner: rows must keep axis order and
  // match the serial rendering exactly for a pure row function.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::function<std::vector<double>(const double&)> row_fn =
      [](const double& x) { return std::vector<double>{x, x * x}; };
  const auto serial = sweep<double>({"x", "x2"}, xs, row_fn);
  const auto parallel =
      sweep<double>(ExperimentRunner(4), {"x", "x2"}, xs, row_fn);
  EXPECT_EQ(serial.render(), parallel.render());
}

}  // namespace
}  // namespace fdb::sim
