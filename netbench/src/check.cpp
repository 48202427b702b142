#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace netbench {

using fdb::sim::NetworkSimSummary;
using fdb::sim::NetworkTagStats;
using fdb::sim::NetworkTrialResult;

namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_tags(Fnv1a& h, const std::vector<NetworkTagStats>& tags) {
  h.add(tags.size());
  for (const NetworkTagStats& t : tags) {
    h.add(t.frames_attempted);
    h.add(t.frames_delivered);
    h.add(t.frames_collided);
    h.add(t.frames_aborted);
    h.add(t.payload_bits_delivered);
    h.add(t.energy_outages);
  }
}

// The counters NetworkTrialResult and NetworkSimSummary share, hashed in
// one order for both.
template <typename R>
void add_common(Fnv1a& h, const R& r) {
  add_tags(h, r.tags);
  h.add(r.gateway_decodes.size());
  for (const std::uint64_t d : r.gateway_decodes) h.add(d);
  h.add(r.slots);
  h.add(r.busy_slots);
  h.add(r.useful_slots);
  h.add(r.wasted_slots);
  h.add(r.collisions);
  h.add(r.sync_failures);
  h.add(r.detect_latency_slots.count());
  h.add(r.frames_resolved_analytic);
  h.add(r.frames_escalated);
  h.add(r.frames_culled);
  h.add(r.gateway_slots_synthesized);
  h.add(r.faulted_frames_attempted);
  h.add(r.faulted_frames_delivered);
  h.add(r.frames_lost_outage);
  h.add(r.frames_lost_sag);
  h.add(r.frames_lost_interference);
  h.add(r.frames_lost_tag_fault);
  h.add(r.failovers);
  h.add(r.time_to_failover_slots.count());
  h.add(r.relay_tx_frames);
  h.add(r.relay_rx_frames);
  h.add(r.relayed_delivered);
  h.add(r.relay_drops);
  h.add(r.relay_hops.count());
}

// Invariants common to one trial and to a merged summary.
template <typename R>
void check_common(const R& r, const ResultShape& shape, std::uint64_t trials,
                  std::vector<std::string>& out) {
  char buf[160];
  const auto fail = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    std::snprintf(buf, sizeof buf, "%s (%llu vs %llu)", what,
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    out.emplace_back(buf);
  };
  for (std::size_t k = 0; k < r.tags.size(); ++k) {
    const NetworkTagStats& t = r.tags[k];
    if (t.frames_delivered > t.frames_attempted) {
      fail("tag delivered > attempted", t.frames_delivered,
           t.frames_attempted);
      break;
    }
  }
  const std::uint64_t slots = trials * shape.slots_per_trial;
  if (r.slots != slots) {
    fail("slots != trials x slots_per_trial", r.slots, slots);
  }
  if (r.wasted_slots > r.slots) fail("wasted > slots", r.wasted_slots, r.slots);
  if (r.busy_slots > r.slots) fail("busy > slots", r.busy_slots, r.slots);
  if (r.gateway_decodes.size() != shape.num_gateways) {
    fail("gateway count", r.gateway_decodes.size(), shape.num_gateways);
  }
  if (r.faulted_frames_delivered > r.faulted_frames_attempted) {
    fail("faulted delivered > faulted attempted", r.faulted_frames_delivered,
         r.faulted_frames_attempted);
  }
  // Relay conservation, tx = delivered + drops + in-flight, in the form
  // the public counters allow (in-flight hops are not counted): every
  // relayed delivery rode one forward, every forward was popped from a
  // queue entry made by one received hop, and every received hop was
  // either forwarded or dropped (still queued at trial end included).
  if (r.relayed_delivered > r.relay_tx_frames) {
    fail("relay delivered > relay tx", r.relayed_delivered, r.relay_tx_frames);
  }
  if (r.relay_tx_frames > r.relay_rx_frames) {
    fail("relay tx > relay rx", r.relay_tx_frames, r.relay_rx_frames);
  }
  if (r.relay_rx_frames > r.relay_tx_frames + r.relay_drops) {
    fail("relay rx > tx + drops", r.relay_rx_frames,
         r.relay_tx_frames + r.relay_drops);
  }
  if (shape.waveform &&
      r.gateway_slots_synthesized != r.slots * shape.num_gateways) {
    fail("kWaveform synthesized fraction != 1", r.gateway_slots_synthesized,
         r.slots * shape.num_gateways);
  }
}

}  // namespace

ResultShape shape_of(const fdb::sim::NetworkSimulator& sim) {
  return {sim.config().slots_per_trial, sim.num_gateways(),
          sim.config().fleet.fidelity == fdb::sim::FidelityMode::kWaveform};
}

std::uint64_t counter_digest(const NetworkSimSummary& s) {
  Fnv1a h;
  h.add(s.trials);
  add_common(h, s);
  h.add(s.escalation_rate_trials.count());
  return h.value();
}

std::uint64_t counter_digest(const NetworkTrialResult& r) {
  Fnv1a h;
  add_common(h, r);
  return h.value();
}

const std::vector<const char*>& moment_names() {
  static const std::vector<const char*> kNames = {
      "harvested_j",           "spent_j",
      "detect_latency.mean",   "detect_latency.var",
      "escalation_rate.mean",  "escalation_rate.var",
      "time_to_failover.mean", "time_to_failover.var",
      "relay_hops.mean",       "relay_hops.var"};
  return kNames;
}

std::vector<double> moments(const NetworkSimSummary& s) {
  double harvested = 0.0;
  double spent = 0.0;
  for (const NetworkTagStats& t : s.tags) {
    harvested += t.harvested_j;
    spent += t.spent_j;
  }
  return {harvested,
          spent,
          s.detect_latency_slots.mean(),
          s.detect_latency_slots.variance(),
          s.escalation_rate_trials.mean(),
          s.escalation_rate_trials.variance(),
          s.time_to_failover_slots.mean(),
          s.time_to_failover_slots.variance(),
          s.relay_hops.mean(),
          s.relay_hops.variance()};
}

std::vector<std::string> moment_mismatches(const std::vector<double>& got,
                                           const std::vector<double>& want,
                                           double rel_tol) {
  std::vector<std::string> out;
  const auto& names = moment_names();
  if (got.size() != names.size() || want.size() != names.size()) {
    out.emplace_back("moment count");
    return out;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double scale = std::max(std::abs(got[i]), std::abs(want[i]));
    if (!(std::abs(got[i] - want[i]) <= rel_tol * scale)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "moment %s: %.17g vs pinned %.17g",
                    names[i], got[i], want[i]);
      out.emplace_back(buf);
    }
  }
  return out;
}

std::vector<std::string> violations(const NetworkSimSummary& s,
                                    const ResultShape& shape,
                                    std::uint64_t trials) {
  std::vector<std::string> out;
  if (s.trials != trials) {
    out.emplace_back("summary trial count " + std::to_string(s.trials) +
                     " != " + std::to_string(trials));
  }
  check_common(s, shape, trials, out);
  return out;
}

std::vector<std::string> violations(const NetworkTrialResult& r,
                                    const ResultShape& shape) {
  std::vector<std::string> out;
  check_common(r, shape, 1, out);
  return out;
}

std::vector<std::string> pin_mismatches(const NetworkSimSummary& s,
                                        const Pin& pin) {
  std::vector<std::string> out;
  const std::uint64_t d = counter_digest(s);
  if (d != pin.digest) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "counter digest %016llx != pinned %016llx",
                  static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(pin.digest));
    out.emplace_back(buf);
  }
  for (auto& m : moment_mismatches(moments(s), pin.moments)) {
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace netbench
