// Parallel Monte-Carlo experiment engine. Every bench used to run
// `LinkSimulator::run(trials)` serially, one sweep point at a time;
// this runner shards trials across a pool of workers instead, with a
// determinism contract the whole layer is designed around:
//
//   the merged result is bit-identical for any job count.
//
// Two mechanisms uphold it. First, LinkSimulator::run_trial(i) derives
// all of trial i's randomness from Rng::substream(seed, i), so a trial
// computes the same outcome on any thread. Second, trials are
// partitioned into fixed-size chunks independent of the job count; each
// chunk accumulates serially into its own summary, and the per-chunk
// summaries merge in chunk order, each as soon as every earlier one has
// merged. Scheduling decides only *when* a chunk runs and which thread
// merges it, never what it computes or the shape of the floating-point
// reduction tree.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/link_sim.hpp"

namespace fdb::sim {

/// One grid cell of an experiment: a link configuration plus how many
/// trials to spend on it and the per-trial payload size.
struct Scenario {
  LinkSimConfig config;
  std::size_t trials = 0;
  std::size_t payload_bytes = 16;
};

class ExperimentRunner {
 public:
  /// Trials per work unit. Fixed (never derived from the job count) so
  /// the chunk partition — and therefore the merge tree — is identical
  /// at any parallelism.
  static constexpr std::size_t kTrialsPerChunk = 16;

  /// `jobs` = 0 selects the hardware concurrency.
  explicit ExperimentRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Runs `trials` trials of one configuration, sharded across the
  /// pool; merged summary is bit-identical regardless of jobs().
  LinkSimSummary run(const LinkSimConfig& config, std::size_t trials,
                     std::size_t payload_bytes = 16) const;

  /// Runs a whole experiment grid as one flattened work queue (every
  /// scenario's chunks compete for the same workers, so a sweep with
  /// small per-point trial counts still saturates the pool). Returns
  /// merged summaries in scenario order, each with the same determinism
  /// guarantee as run().
  std::vector<LinkSimSummary> run_batch(
      const std::vector<Scenario>& scenarios) const;

  /// Grid API: maps each axis value to a Scenario and runs the batch.
  /// `make_scenario` must be pure — it is called once per value, in
  /// order, on the calling thread.
  template <typename T>
  std::vector<LinkSimSummary> run_sweep(
      const std::vector<T>& axis,
      const std::function<Scenario(const T&)>& make_scenario) const {
    std::vector<Scenario> scenarios;
    scenarios.reserve(axis.size());
    for (const T& value : axis) scenarios.push_back(make_scenario(value));
    return run_batch(scenarios);
  }

  /// Generic chunked accumulation for experiments that are not link
  /// sims (ARQ walks, collision sims, micro-bench reps): runs
  /// `fn(acc, i)` for every i in [0, trials), accumulating into one Acc
  /// per fixed-size chunk and merging in chunk order. Acc needs a
  /// default constructor and merge(const Acc&). Same bit-identical
  /// contract as run(), provided fn(acc, i) depends only on i.
  template <typename Acc, typename TrialFn>
  Acc run_chunked(std::size_t trials, const TrialFn& fn) const {
    const std::size_t n_chunks =
        (trials + kTrialsPerChunk - 1) / kTrialsPerChunk;
    Acc merged;
    dispatch_ordered(
        n_chunks,
        [&](std::size_t c) {
          Acc acc;
          const std::size_t lo = c * kTrialsPerChunk;
          const std::size_t hi = std::min(trials, lo + kTrialsPerChunk);
          for (std::size_t i = lo; i < hi; ++i) fn(acc, i);
          return acc;
        },
        [&](std::size_t, const Acc& acc) { merged.merge(acc); });
    return merged;
  }

  /// Index-ordered parallel map: runs `fn(i)` for i in [0, n) across
  /// the pool and returns the results in index order. For coarse-grain
  /// fan-out where each cell is its own self-contained computation.
  template <typename Fn>
  auto map(std::size_t n, const Fn& fn) const
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    std::vector<std::invoke_result_t<Fn, std::size_t>> results(n);
    dispatch(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  /// Runs item_fn(i) for every i in [0, n_items) on up to jobs_
  /// workers pulling from a shared atomic counter. Rethrows the first
  /// worker exception on the calling thread.
  void dispatch(std::size_t n_items,
                const std::function<void(std::size_t)>& item_fn) const;

  /// dispatch() that folds as it goes: runs make(i) for every i in
  /// [0, n_items) and calls fold(i, result) in index order, each as soon
  /// as every earlier result is folded, then drops that result. The
  /// worker that finishes the item at the frontier folds it and every
  /// parked result behind it, outside the lock; any other worker only
  /// parks its result. Folds therefore run one at a time and in index
  /// order, on whichever thread, and a result waits only for the items
  /// before it. If an item throws, the frontier stops there and the
  /// error is rethrown as by dispatch().
  template <typename Make, typename Fold>
  void dispatch_ordered(std::size_t n_items, const Make& make,
                        const Fold& fold) const {
    using Result = std::invoke_result_t<Make, std::size_t>;
    std::vector<std::optional<Result>> done(n_items);
    std::mutex mutex;
    std::size_t frontier = 0;
    dispatch(n_items, [&](std::size_t i) {
      Result result = make(i);
      std::unique_lock<std::mutex> lock(mutex);
      done[i].emplace(std::move(result));
      // A result leaves `done` before its fold and the frontier moves
      // past it only after, so while one worker folds, every other one
      // finds the frontier slot empty and leaves.
      while (frontier < n_items && done[frontier]) {
        const std::size_t f = frontier;
        const Result next = std::move(*done[f]);
        done[f].reset();
        lock.unlock();
        fold(f, next);
        lock.lock();
        frontier = f + 1;
      }
    });
  }

  std::size_t jobs_;
};

}  // namespace fdb::sim
