// Tag-to-tag relaying for the network engine: the static hop topology
// and the knobs that drive it. An "out-of-range" tag — culled, i.e.
// beyond FleetConfig::cull_radius_m of every gateway — cannot reach a
// gateway in one hop; with relaying enabled it reaches one in 2-3 by
// re-reflecting through nearer tags:
//
//   gateway <── level-0 tag <── level-1 tag <── level-2 tag
//              (in range)      (culled, one    (culled, two
//                               hop out)        hops out)
//
// The topology is BFS over tag-tag links of at most `range_m`: level 0
// is the non-culled set, level n the still-unreached culled tags within
// range of a level n-1 tag, out to max_hops. A tag's *parent
// candidates* are its level-(n-1) neighbours sorted by (distance,
// index); which candidate currently carries its traffic is decided per
// trial by ETX-like per-link delivery stats (RelayFabric), with
// consecutive failures — including losses deeper in the chain, the
// signal a dead gateway propagates back — triggering a re-parent that
// the existing failover/time-to-failover stats measure.
//
// Relaying requires the scheduled MAC (mac/schedule.hpp): a relay
// forwards a queued frame in its own dedicated cell, so forwarded
// traffic never contends with the fresh frames of its children. Hop
// delivery (child's reflection decoded *at the parent tag*) is judged
// by the same analytic envelope-swing margin the fleet classifier uses,
// in every fidelity mode — there is no sample-level receiver model at a
// tag, and using one rule everywhere keeps the modes' RNG streams and
// MAC evolution aligned. The final relay->gateway hop goes through the
// full gateway machinery, with analytic clear-deliver verdicts demoted
// to contested (one-sided-safe: relayed delivery is never claimed from
// the margin band alone; kHybrid escalates it to synthesis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "channel/scene.hpp"

namespace fdb::sim {

struct NetworkCounters;  // sim/network_sim.hpp

/// Relaying knobs carried inside NetworkSimConfig.
struct RelayConfig {
  bool enabled = false;

  /// Tag-to-tag radio range: only pairs this close can form a hop link.
  double range_m = 12.0;
  /// Total hops an originator's frame may take to a gateway (>= 2; 3 =
  /// up to two relays). Bounds the BFS depth, so deeper tags stay
  /// unreachable rather than forming unbounded chains.
  std::size_t max_hops = 3;
  /// Frames a relay will hold for forwarding; a hop that lands on a
  /// full queue is dropped (counted, never retransmitted).
  std::size_t queue_capacity = 4;
  /// Consecutive end-to-end failures of a child's current link before
  /// it re-parents onto the lowest-ETX candidate.
  std::size_t reparent_fail_streak = 2;
  /// Minimum analytic envelope-swing margin (dB over the target-BER
  /// SINR) for a tag-tag hop to deliver. Positive values keep the hop
  /// rule one-sided-safe against the unmodeled tag receiver.
  double min_margin_db = 3.0;

  /// Throws std::invalid_argument on non-positive range, max_hops < 2,
  /// a zero queue, a zero re-parent streak, or a non-finite margin.
  void validate() const;
};

/// Static hop topology over one deployment: BFS levels from the
/// non-culled set and per-tag parent-candidate lists. Immutable after
/// construction; all per-trial relay state (parents, ETX counters,
/// queues) lives in a RelayFabric.
class RelayTopology {
 public:
  static constexpr std::size_t kUnreachable =
      std::numeric_limits<std::size_t>::max();

  RelayTopology() = default;

  /// `culled[k]` nonzero marks tag k outside every gateway's range (the
  /// simulator's culling result); `grid_cell_m` only tiles the neighbour
  /// index and never changes results.
  RelayTopology(std::span<const channel::Vec2> positions,
                std::span<const std::uint8_t> culled,
                const RelayConfig& config, double grid_cell_m);

  /// BFS hop distance of tag k from the in-range set: 0 = in range,
  /// n >= 1 = reaches a gateway in n+1 hops via relays, kUnreachable =
  /// no chain within range_m and max_hops.
  std::size_t level(std::size_t k) const { return level_.at(k); }
  bool reachable(std::size_t k) const {
    return level_.at(k) != kUnreachable;
  }
  std::size_t num_tags() const { return level_.size(); }

  /// Parent candidates of tag k: its level-(level(k)-1) neighbours,
  /// nearest first (ties to the lower index). Empty for level-0 and
  /// unreachable tags.
  std::span<const std::uint32_t> candidates(std::size_t k) const {
    return std::span<const std::uint32_t>(flat_).subspan(
        off_.at(k), off_.at(k + 1) - off_.at(k));
  }
  /// Start of tag k's candidate run inside the flat link array — the
  /// key for per-trial per-link state (ETX counters, hop gains).
  std::size_t link_offset(std::size_t k) const { return off_.at(k); }
  /// Total candidate links in the topology.
  std::size_t num_links() const { return flat_.size(); }

  /// Tags at level >= 1 with at least one candidate, ascending — the
  /// set whose frames resolve through the hop rule.
  std::span<const std::uint32_t> relay_children() const {
    return children_;
  }

 private:
  std::vector<std::size_t> level_;
  std::vector<std::uint32_t> flat_;  ///< candidate parent tag ids
  std::vector<std::uint32_t> off_;   ///< tag -> range into flat_
  std::vector<std::uint32_t> children_;
};

/// One frame sitting in a relay's forwarding queue, waiting for the
/// relay's next owned slotframe cell.
struct QueuedFrame {
  std::uint32_t originator = 0;  // tag whose fresh frame this carries
  std::uint32_t hops = 0;        // hops taken to reach this queue
  std::vector<std::uint8_t> payload;
};

/// The per-trial relay state over a RelayTopology: each child's current
/// parent, per-link ETX counters, the forwarding queues and end-to-end
/// failure streaks. Any loss of an originator's frame — a failed hop, a
/// full queue, a forward lost upstream — extends its streak (the missing
/// end-to-end ACK) and, past its own hop, counts as a failed attempt on
/// its current link, so a dead upstream degrades the link's ETX while
/// the first hop keeps succeeding. Reaching reparent_fail_streak moves
/// the child to the ETX-best candidate, counted as a failover.
class RelayFabric {
 public:
  RelayFabric() = default;  ///< relaying off: routes nothing
  RelayFabric(const RelayTopology& topology, const RelayConfig& config,
              std::size_t frame_slots);

  /// Whether tag k's frames resolve through the hop rule.
  bool routes(std::size_t k) const {
    return topo_ != nullptr && topo_->reachable(k) && topo_->level(k) >= 1;
  }
  /// Flat link index of child k's current parent (keys hop gains).
  std::size_t link(std::size_t k) const {
    return topo_->link_offset(k) + parent_[k];
  }
  std::uint32_t parent(std::size_t k) const {
    return topo_->candidates(k)[parent_[k]];
  }
  /// Smoothed ETX of a flat link: (attempts + 1) / (successes + 1).
  double etx(std::size_t link) const {
    return static_cast<double>(attempts_[link] + 1) /
           static_cast<double>(successes_[link] + 1);
  }
  /// Frames still queued anywhere.
  std::size_t backlog() const;

  /// Pops relay k's oldest queued frame, counted in res.relay_tx_frames.
  std::optional<QueuedFrame> pop(std::size_t k, NetworkCounters& res);
  /// Settles child k's hop of `frame` to its current parent: it
  /// delivers iff the frame stayed `clean` on air and the link's
  /// analytic `margin_db` clears RelayConfig::min_margin_db. A delivered
  /// frame joins the parent's queue, or is dropped when that is full. A
  /// failed fresh frame extends its streak; a failed forward is left to
  /// the caller's drop(). Returns whether the hop delivered.
  bool resolve_hop(std::size_t k, bool clean, double margin_db,
                   QueuedFrame frame, std::uint64_t learn_slot,
                   NetworkCounters& res);
  /// A frame of `originator` lost in the fabric, learned at `learn_slot`.
  void drop(std::uint32_t originator, std::uint64_t learn_slot,
            NetworkCounters& res);
  /// A forward of `originator` reached a gateway: its streak restarts.
  void delivered(std::uint32_t originator) { streak_[originator] = 0; }

 private:
  void charge_failure(std::uint32_t originator, std::uint64_t learn_slot,
                      bool charge_link, NetworkCounters& res);

  const RelayTopology* topo_ = nullptr;
  RelayConfig config_;
  std::size_t frame_slots_ = 0;
  std::vector<std::vector<QueuedFrame>> queue_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint64_t> attempts_, successes_;
  std::vector<std::size_t> streak_;
  std::vector<std::uint64_t> streak_start_;
};

}  // namespace fdb::sim
