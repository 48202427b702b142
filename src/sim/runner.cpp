#include "sim/runner.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

namespace fdb::sim {
namespace {

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::size_t jobs)
    : jobs_(resolve_jobs(jobs)) {}

void ExperimentRunner::dispatch(
    std::size_t n_items,
    const std::function<void(std::size_t)>& item_fn) const {
  if (n_items == 0) return;
  const std::size_t workers = std::min(jobs_, n_items);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n_items; ++i) item_fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_items) return;
      try {
        item_fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the queue so peers stop picking up new items.
        next.store(n_items, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  } catch (...) {
    // Thread-resource exhaustion mid-spawn: drain the queue and join
    // what did start, so unwinding never destroys a joinable thread
    // (which would std::terminate). Then let the error propagate.
    next.store(n_items, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    throw;
  }
  worker();  // calling thread is worker 0
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

LinkSimSummary ExperimentRunner::run(const LinkSimConfig& config,
                                     std::size_t trials,
                                     std::size_t payload_bytes) const {
  return run_batch({Scenario{config, trials, payload_bytes}}).front();
}

std::vector<LinkSimSummary> ExperimentRunner::run_batch(
    const std::vector<Scenario>& scenarios) const {
  // One shared simulator per scenario: run_trial(i) is const and
  // thread-safe, so workers on the same scenario need no copies.
  std::vector<std::unique_ptr<LinkSimulator>> sims;
  sims.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    sims.push_back(std::make_unique<LinkSimulator>(s.config));
    sims.back()->set_payload_bytes(s.payload_bytes);
  }

  // Flatten every scenario's fixed-size chunks into one work queue,
  // scenario by scenario, so the queue's index order is each
  // scenario's chunk order and the ordered fold below keeps the
  // reduction tree fixed by the partition.
  struct WorkItem {
    std::size_t scenario;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<WorkItem> items;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const std::size_t trials = scenarios[s].trials;
    for (std::uint64_t lo = 0; lo < trials; lo += kTrialsPerChunk) {
      items.push_back(
          {s, lo, std::min<std::uint64_t>(trials, lo + kTrialsPerChunk)});
    }
  }

  std::vector<LinkSimSummary> merged(scenarios.size());
  dispatch_ordered(
      items.size(),
      [&](std::size_t i) {
        const WorkItem& item = items[i];
        LinkSimSummary acc;
        for (std::uint64_t t = item.lo; t < item.hi; ++t) {
          acc.add(sims[item.scenario]->run_trial(t));
        }
        return acc;
      },
      [&](std::size_t i, const LinkSimSummary& chunk) {
        merged[items[i].scenario].merge(chunk);
      });
  return merged;
}

}  // namespace fdb::sim
