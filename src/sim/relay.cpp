#include "sim/relay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/fleet.hpp"
#include "sim/network_sim.hpp"

namespace fdb::sim {

void RelayConfig::validate() const {
  if (!enabled) return;
  if (!(range_m > 0.0) || !std::isfinite(range_m)) {
    throw std::invalid_argument(
        "RelayConfig: range_m must be positive and finite, got " +
        std::to_string(range_m));
  }
  if (max_hops < 2) {
    throw std::invalid_argument(
        "RelayConfig: max_hops must be >= 2 (one relay hop plus the "
        "gateway hop), got " + std::to_string(max_hops));
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "RelayConfig: queue_capacity must be positive (a relay needs "
        "room to hold at least one frame)");
  }
  if (reparent_fail_streak == 0) {
    throw std::invalid_argument(
        "RelayConfig: reparent_fail_streak must be positive (zero would "
        "re-parent before any failure)");
  }
  if (!std::isfinite(min_margin_db)) {
    throw std::invalid_argument(
        "RelayConfig: min_margin_db must be finite, got " +
        std::to_string(min_margin_db));
  }
}

RelayTopology::RelayTopology(std::span<const channel::Vec2> positions,
                             std::span<const std::uint8_t> culled,
                             const RelayConfig& config, double grid_cell_m) {
  const std::size_t n = positions.size();
  level_.assign(n, kUnreachable);
  off_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    if (!culled[k]) level_[k] = 0;
  }
  if (!config.enabled || n == 0) return;

  // BFS out from the in-range set, one level per relay hop. The grid
  // enumerates each tag's disk once per level; level assignment order
  // is index-ascending, so the result is deterministic.
  const CullingGrid grid(positions, grid_cell_m);
  const std::size_t max_level = config.max_hops - 1;
  std::vector<std::uint32_t> near;
  for (std::size_t lvl = 1; lvl <= max_level; ++lvl) {
    bool grew = false;
    for (std::size_t k = 0; k < n; ++k) {
      if (level_[k] != kUnreachable) continue;
      grid.within_into(positions[k], config.range_m, near);
      for (const std::uint32_t p : near) {
        if (level_[p] == lvl - 1) {
          level_[k] = lvl;
          grew = true;
          break;
        }
      }
    }
    if (!grew) break;
  }

  // Candidate lists: level-(n-1) neighbours, nearest first (ties to the
  // lower index — within() already returns ascending indices).
  std::vector<std::pair<double, std::uint32_t>> ranked;
  for (std::size_t k = 0; k < n; ++k) {
    off_[k] = static_cast<std::uint32_t>(flat_.size());
    if (level_[k] == 0 || level_[k] == kUnreachable) continue;
    ranked.clear();
    grid.within_into(positions[k], config.range_m, near);
    for (const std::uint32_t p : near) {
      if (p == k || level_[p] != level_[k] - 1) continue;
      ranked.emplace_back(channel::distance_m(positions[k], positions[p]), p);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [dist, p] : ranked) flat_.push_back(p);
    if (!ranked.empty()) children_.push_back(static_cast<std::uint32_t>(k));
  }
  off_[n] = static_cast<std::uint32_t>(flat_.size());
}

RelayFabric::RelayFabric(const RelayTopology& topology,
                         const RelayConfig& config, std::size_t frame_slots)
    : topo_(&topology),
      config_(config),
      frame_slots_(frame_slots),
      queue_(topology.num_tags()),
      parent_(topology.num_tags(), 0),
      attempts_(topology.num_links(), 0),
      successes_(topology.num_links(), 0),
      streak_(topology.num_tags(), 0),
      streak_start_(topology.num_tags(), 0) {}

std::size_t RelayFabric::backlog() const {
  std::size_t n = 0;
  for (const auto& q : queue_) n += q.size();
  return n;
}

std::optional<QueuedFrame> RelayFabric::pop(std::size_t k,
                                            NetworkCounters& res) {
  if (queue_[k].empty()) return std::nullopt;
  QueuedFrame f = std::move(queue_[k].front());
  queue_[k].erase(queue_[k].begin());
  ++res.relay_tx_frames;
  return f;
}

bool RelayFabric::resolve_hop(std::size_t k, bool clean, double margin_db,
                              QueuedFrame frame, std::uint64_t learn_slot,
                              NetworkCounters& res) {
  const std::size_t l = link(k);
  ++attempts_[l];
  if (!(clean && margin_db >= config_.min_margin_db)) {
    // A fresh frame's failed hop is already on the link's record.
    if (frame.originator == k) {
      charge_failure(frame.originator, learn_slot, /*charge_link=*/false, res);
    }
    return false;
  }
  ++successes_[l];
  const std::uint32_t o = frame.originator;
  auto& q = queue_[parent(k)];
  if (q.size() < config_.queue_capacity) {
    q.push_back(std::move(frame));
    ++res.relay_rx_frames;
    res.useful_slots += frame_slots_;
  } else {
    drop(o, learn_slot, res);
  }
  return true;
}

void RelayFabric::drop(std::uint32_t originator, std::uint64_t learn_slot,
                       NetworkCounters& res) {
  ++res.relay_drops;
  charge_failure(originator, learn_slot, /*charge_link=*/true, res);
}

void RelayFabric::charge_failure(std::uint32_t o, std::uint64_t learn_slot,
                                 bool charge_link, NetworkCounters& res) {
  if (charge_link) ++attempts_[link(o)];
  if (streak_[o] == 0) streak_start_[o] = learn_slot;
  if (++streak_[o] < config_.reparent_fail_streak) return;
  const std::size_t off = topo_->link_offset(o);
  const std::size_t n_cands = topo_->candidates(o).size();
  std::size_t best = parent_[o];
  double best_etx = std::numeric_limits<double>::infinity();
  for (std::size_t ci = 0; ci < n_cands; ++ci) {
    if (etx(off + ci) < best_etx) {
      best_etx = etx(off + ci);
      best = ci;
    }
  }
  if (best != parent_[o]) {
    parent_[o] = static_cast<std::uint32_t>(best);
    ++res.failovers;
    res.time_to_failover_slots.add(
        static_cast<double>(learn_slot - streak_start_[o] + 1));
  }
  streak_[o] = 0;
}

}  // namespace fdb::sim
