// Hybrid-fidelity fleet engine: the analytic slot resolver and spatial
// culling index that let NetworkSimulator scale to thousands of tags.
//
// The waveform path synthesizes O(tags x gateways x samples) per slot —
// exact, but it caps scenes at dozens of tags. The observation behind
// the hybrid engine is that in a large deployment almost every frame's
// fate is obvious from its link budget: a tag 4 m from a gateway with
// no concurrent reflector delivers, a tag 30 m out never syncs. Only
// the contested sliver in between — marginal SINR, capture fights,
// deep-fade edges — needs the sample-level physics.
//
// Per completed frame and gateway the resolver computes two analytic
// margins from the *same* complex per-trial couplings the synthesizer
// folds in (fading, shadowing, reflection states included):
//
//   pessimistic: worst-case coherent sum of every concurrent in-range
//                interferer's swing lands on the decision statistic,
//   optimistic:  zero interference, noise only.
//
// and classifies one-sided-safely:
//
//        margin (dB, vs the target-BER SINR)
//   ------------------------------------------------------------>
//   ... -fail_margin ......... 0 .......... +deliver_margin ...
//    clear-fail  |        contested          |  clear-deliver
//   (optimistic  |  (escalate to waveform    |  (pessimistic
//    misses it)  |   synthesis in kHybrid)   |   clears it)
//
// A frame is clear-deliver only if even the pessimistic margin clears
// the band, clear-fail only if even the optimistic one misses it —
// every model error lives inside the contested band, which kHybrid
// escalates to the real WaveformSynthesizer. The cross-fidelity test
// suite (tests/sim/cross_fidelity_test.cpp) holds the classifier to
// that contract frame-for-frame against full synthesis.
//
// The CullingGrid is a uniform 2D bin index over tag positions: tags
// beyond `cull_radius_m` of every gateway are outside interference
// range — they contribute nothing to any gateway's interferer sum and
// are skipped by escalated synthesis, so a 10k-tag scene pays per slot
// only for the tags a gateway can actually hear.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "channel/scene.hpp"
#include "util/types.hpp"

namespace fdb::sim {

/// How NetworkSimulator resolves frame verdicts.
enum class FidelityMode {
  kWaveform,  ///< every slot synthesized sample-level (exact, slow)
  kAnalytic,  ///< every verdict from the analytic margin (fast, approximate)
  kHybrid,    ///< analytic clear verdicts; contested frames escalate
};

/// Stable lowercase name for reports and CLI surfaces.
const char* fidelity_name(FidelityMode mode);

/// Analytic verdict class of one frame (see file header diagram).
enum class LinkVerdict {
  kClearDeliver,  ///< pessimistic margin >= +deliver_margin_db
  kClearFail,     ///< optimistic margin <= -fail_margin_db
  kContested,     ///< in the band: only synthesis can tell
};

/// Fleet-engine policy knobs carried inside NetworkSimConfig.
struct FleetConfig {
  FidelityMode fidelity = FidelityMode::kWaveform;

  /// Upper edge of the contested band: a frame is clear-deliver only
  /// when its *pessimistic* margin is at least this many dB above the
  /// target-BER SINR. 6 dB puts the worst-case chip BER near 1e-9 —
  /// a ~64-byte frame succeeds with probability 1 - O(1e-6).
  double deliver_margin_db = 6.0;
  /// Lower edge: clear-fail only when the *optimistic* margin is at
  /// least this many dB below threshold. 5 dB below a 1e-3 target puts
  /// chip BER above ~2.5e-2 — frame success probability ~e^-20.
  double fail_margin_db = 5.0;
  /// BER whose required SINR anchors margin == 0. 1e-3 sits near the
  /// 50% frame-success point of the default 64-byte frame, centering
  /// the contested band on the verdict boundary.
  double analytic_target_ber = 1e-3;

  /// Interference range: tags farther than this from a gateway neither
  /// interfere at it nor get folded into escalated synthesis there.
  /// Infinity (the default) disables culling entirely.
  double cull_radius_m = std::numeric_limits<double>::infinity();
  /// Bin size of the culling grid. Only a tiling knob — results are
  /// independent of it; ~cull_radius/3 is a good choice.
  double grid_cell_m = 8.0;

  /// Log a FrameRecord per resolved frame into NetworkTrialResult. In
  /// kWaveform mode the analytic classifier then runs *alongside* full
  /// synthesis on identical trial state, which is how the property
  /// tests replay clear verdicts against ground truth.
  bool record_frames = false;

  /// Whether the analytic classifier runs: in the analytic-path modes,
  /// and alongside kWaveform when frames are recorded.
  bool classifier_runs() const {
    return fidelity != FidelityMode::kWaveform || record_frames;
  }

  /// Rejects negative or non-finite margin bands, a zero/negative
  /// culling radius or grid cell, and (for the analytic-path modes and
  /// record_frames) an analytic_target_ber outside (0, 0.5) — such a
  /// target has no required SINR, so the clear-fail threshold would sit
  /// above clear-deliver. Throws std::invalid_argument.
  void validate() const;
};

/// Margin computation + classification for one (frame, gateway) link.
/// Immutable; captures the receiver's envelope-noise sigma and the
/// per-chip integration length once per simulator.
class FleetResolver {
 public:
  FleetResolver() = default;
  FleetResolver(const FleetConfig& config, double noise_sigma,
                std::size_t n_avg);

  /// Margin (dB) of swing `delta_env` over the target-BER SINR against
  /// `interferer_env_sum` of worst-case concurrent swing.
  double margin_db(double delta_env, double interferer_env_sum) const;

  /// One-sided-safe verdict: pessimistic margin for clear-deliver,
  /// optimistic (zero-interference) margin for clear-fail.
  LinkVerdict classify(double delta_env,
                       double worst_interferer_env_sum) const;

  /// Fault-aware variant with a split swing band: the pessimistic arm
  /// uses the worst-case swing a fault schedule leaves over the frame
  /// window (`delta_env_pess`, e.g. swing x min carrier/gateway scale),
  /// the optimistic arm the best case (`delta_env_opt`). With both
  /// deltas equal this is exactly classify(delta, interf), which is how
  /// the simulator calls it for a fault-free trial.
  LinkVerdict classify(double delta_env_pess, double delta_env_opt,
                       double worst_interferer_env_sum) const;

  /// classify(delta_env_pess, delta_env_opt, interf) from the
  /// pessimistic margin already computed, `pessimistic_margin_db` ==
  /// margin_db(delta_env_pess, interf): the simulator needs that margin
  /// for gateway ranking anyway, so the verdict costs no second log10.
  /// The optimistic arm is decided in the linear domain (see fleet.cpp).
  LinkVerdict classify_margin(double pessimistic_margin_db,
                              double delta_env_opt) const;

  double required_sinr() const { return required_sinr_; }

 private:
  /// Whether margin_db(delta_env_opt, 0) <= -fail_margin_db.
  bool clear_fail(double delta_env_opt) const;

  double deliver_margin_db_ = 6.0;
  double fail_margin_db_ = 5.0;
  double noise_sigma_ = 1.0;
  std::size_t n_avg_ = 1;
  double required_sinr_ = 1.0;
  // clear_fail's linear band around the SINR ratio 10^(-fail_margin/10):
  // below lo it is clear-fail, above hi it is not, in between (and for
  // NaN) log10 decides. The defaults send every ratio to log10.
  double clear_fail_lo_ = -std::numeric_limits<double>::infinity();
  double clear_fail_hi_ = std::numeric_limits<double>::infinity();
};

/// Uniform 2D bin index over a fixed point set. Queries enumerate only
/// the bins a disk overlaps, then exact-distance filter; results are
/// sorted indices, so iteration order — and everything downstream of
/// it — is deterministic regardless of build or query history.
class CullingGrid {
 public:
  /// Indexes `points` with square bins of `cell_m` (> 0) on the
  /// points' bounding box. An empty point set is allowed.
  CullingGrid(std::span<const channel::Vec2> points, double cell_m);

  /// Indices of all points within `radius_m` of `center` (inclusive),
  /// ascending. An infinite radius returns every point.
  std::vector<std::uint32_t> within(channel::Vec2 center,
                                    double radius_m) const;

  /// `within`, but clears and fills a caller-owned buffer so repeated
  /// queries (relay topology build, per-gateway culling) reuse one
  /// allocation instead of paying a heap round-trip per query.
  void within_into(channel::Vec2 center, double radius_m,
                   std::vector<std::uint32_t>& out) const;

  std::size_t num_points() const { return points_.size(); }

 private:
  std::vector<channel::Vec2> points_;
  std::vector<std::uint32_t> order_;    ///< point indices grouped by bin
  std::vector<std::uint32_t> bin_off_;  ///< bin -> range into order_
  double cell_m_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
};

}  // namespace fdb::sim
