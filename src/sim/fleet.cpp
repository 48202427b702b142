#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/theory.hpp"

namespace fdb::sim {

const char* fidelity_name(FidelityMode mode) {
  switch (mode) {
    case FidelityMode::kWaveform: return "waveform";
    case FidelityMode::kAnalytic: return "analytic";
    case FidelityMode::kHybrid: return "hybrid";
  }
  return "unknown";
}

void FleetConfig::validate() const {
  if (!(deliver_margin_db >= 0.0) || !std::isfinite(deliver_margin_db)) {
    throw std::invalid_argument(
        "FleetConfig: deliver_margin_db must be a finite non-negative dB "
        "band, got " + std::to_string(deliver_margin_db));
  }
  if (!(fail_margin_db >= 0.0) || !std::isfinite(fail_margin_db)) {
    throw std::invalid_argument(
        "FleetConfig: fail_margin_db must be a finite non-negative dB "
        "band, got " + std::to_string(fail_margin_db));
  }
  if (!(cull_radius_m > 0.0)) {
    throw std::invalid_argument(
        "FleetConfig: cull_radius_m must be positive (infinity disables "
        "culling), got " + std::to_string(cull_radius_m));
  }
  if (!(grid_cell_m > 0.0) || !std::isfinite(grid_cell_m)) {
    throw std::invalid_argument(
        "FleetConfig: grid_cell_m must be a finite positive bin size, "
        "got " + std::to_string(grid_cell_m));
  }
  // Only a running classifier needs the anchor BER's required SINR. A
  // target at or above 0.5 is inconsistent: Q^-1 goes non-positive and
  // the clear-fail threshold would sit above clear-deliver.
  if (classifier_runs() &&
      !(analytic_target_ber > 0.0 && analytic_target_ber < 0.5)) {
    throw std::invalid_argument(
        "FleetConfig: analytic_target_ber must lie in (0, 0.5) when the "
        "analytic classifier is in use (" +
        std::string(fidelity_name(fidelity)) +
        " mode) — got " + std::to_string(analytic_target_ber) +
        ", which has no decode threshold");
  }
}

FleetResolver::FleetResolver(const FleetConfig& config, double noise_sigma,
                             std::size_t n_avg)
    : deliver_margin_db_(config.deliver_margin_db),
      fail_margin_db_(config.fail_margin_db),
      noise_sigma_(noise_sigma),
      n_avg_(n_avg),
      required_sinr_(core::ook_required_sinr(config.analytic_target_ber)) {
  // clear_fail's band. Why a ratio r = sinr / required_sinr outside
  // [lo, hi] gets the verdict of the log10 test fl(10 fl(log10 r)) <= -F
  // (F = fail_margin_db), with R = 10^(-F/10) the exact real threshold:
  //  - T = pow(10, fl(-F/10)): the quotient's rounding moves the
  //    exponent by at most |F/10| 2^-53, so R by a factor within
  //    ln(10) |F|/10 2^-53 < 2^-43 for |F| <= 3100; pow adds at most
  //    an ulp. So |T/R - 1| < 2^-42. The band is on only for a finite
  //    T >= 2^-1000, which needs |F| < 3083.
  //  - For r = R(1 + eta), 10 log10 r = -F + 10 log10(1 + eta), at
  //    least 4|eta| away from -F for |eta| <= 2^-20. glibc log10 is
  //    within 2 ulp and the product by 10 rounds once more, so the
  //    computed value is the real one times (1 + delta), |delta| <=
  //    2^-50 (an ulp of the result: near r = 1, where log10 r is near 0,
  //    too). It stays on the real value's side of -F while
  //    4|eta| > |F| 2^-50, i.e. for |eta| > 2^-40.
  //  - lo = T(1 - 2^-30), hi = T(1 + 2^-30), each rounded once: r < lo
  //    puts eta below -2^-31, r > hi above 2^-31, both far outside
  //    2^-40. r = 0 (< lo) is log10's -inf, clear-fail; r = +inf
  //    (> hi) is +inf, not. NaN compares false both ways: log10 path.
  constexpr double kBand = 0x1p-30;
  const double t = std::pow(10.0, -fail_margin_db_ / 10.0);
  if (std::isfinite(t) && t >= 0x1p-1000) {
    clear_fail_lo_ = t * (1.0 - kBand);
    clear_fail_hi_ = t * (1.0 + kBand);
  }
}

double FleetResolver::margin_db(double delta_env,
                                double interferer_env_sum) const {
  if (!(delta_env > 0.0)) {
    return -std::numeric_limits<double>::infinity();
  }
  const double sinr = core::envelope_sinr(delta_env, interferer_env_sum,
                                          noise_sigma_, n_avg_);
  return 10.0 * std::log10(sinr / required_sinr_);
}

LinkVerdict FleetResolver::classify(double delta_env,
                                    double worst_interferer_env_sum) const {
  return classify(delta_env, delta_env, worst_interferer_env_sum);
}

LinkVerdict FleetResolver::classify(double delta_env_pess,
                                    double delta_env_opt,
                                    double worst_interferer_env_sum) const {
  return classify_margin(margin_db(delta_env_pess, worst_interferer_env_sum),
                         delta_env_opt);
}

LinkVerdict FleetResolver::classify_margin(double pessimistic_margin_db,
                                           double delta_env_opt) const {
  if (pessimistic_margin_db >= deliver_margin_db_) {
    return LinkVerdict::kClearDeliver;
  }
  if (clear_fail(delta_env_opt)) return LinkVerdict::kClearFail;
  return LinkVerdict::kContested;
}

bool FleetResolver::clear_fail(double delta_env_opt) const {
  if (!(delta_env_opt > 0.0)) return true;  // margin_db's -inf
  const double r =
      core::envelope_sinr(delta_env_opt, 0.0, noise_sigma_, n_avg_) /
      required_sinr_;
  if (r < clear_fail_lo_) return true;
  if (r > clear_fail_hi_) return false;
  return 10.0 * std::log10(r) <= -fail_margin_db_;
}

CullingGrid::CullingGrid(std::span<const channel::Vec2> points,
                         double cell_m)
    : points_(points.begin(), points.end()), cell_m_(cell_m) {
  if (!(cell_m > 0.0) || !std::isfinite(cell_m)) {
    throw std::invalid_argument(
        "CullingGrid: cell_m must be a finite positive bin size, got " +
        std::to_string(cell_m));
  }
  if (points_.empty()) {
    bin_off_ = {0};
    return;
  }
  double max_x = points_[0].x;
  double max_y = points_[0].y;
  min_x_ = points_[0].x;
  min_y_ = points_[0].y;
  for (const auto& p : points_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  nx_ = static_cast<std::size_t>((max_x - min_x_) / cell_m_) + 1;
  ny_ = static_cast<std::size_t>((max_y - min_y_) / cell_m_) + 1;

  // Counting sort of point indices into row-major bins: point order
  // inside a bin stays ascending, so concatenated ranges need no
  // per-query sort to be deterministic.
  const auto bin_of = [&](const channel::Vec2& p) {
    const auto bx = static_cast<std::size_t>((p.x - min_x_) / cell_m_);
    const auto by = static_cast<std::size_t>((p.y - min_y_) / cell_m_);
    return std::min(by, ny_ - 1) * nx_ + std::min(bx, nx_ - 1);
  };
  bin_off_.assign(nx_ * ny_ + 1, 0);
  for (const auto& p : points_) ++bin_off_[bin_of(p) + 1];
  for (std::size_t b = 1; b < bin_off_.size(); ++b) {
    bin_off_[b] += bin_off_[b - 1];
  }
  order_.resize(points_.size());
  std::vector<std::uint32_t> cursor(bin_off_.begin(), bin_off_.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    order_[cursor[bin_of(points_[i])]++] = static_cast<std::uint32_t>(i);
  }
}

std::vector<std::uint32_t> CullingGrid::within(channel::Vec2 center,
                                               double radius_m) const {
  std::vector<std::uint32_t> hits;
  within_into(center, radius_m, hits);
  return hits;
}

void CullingGrid::within_into(channel::Vec2 center, double radius_m,
                              std::vector<std::uint32_t>& hits) const {
  hits.clear();
  if (points_.empty() || !(radius_m > 0.0)) return;
  if (std::isinf(radius_m)) {
    hits.resize(points_.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      hits[i] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  const auto clamp_bin = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto b = static_cast<std::size_t>(v);
    return std::min(b, n - 1);
  };
  const std::size_t bx0 = clamp_bin((center.x - radius_m - min_x_) / cell_m_,
                                    nx_);
  const std::size_t bx1 = clamp_bin((center.x + radius_m - min_x_) / cell_m_,
                                    nx_);
  const std::size_t by0 = clamp_bin((center.y - radius_m - min_y_) / cell_m_,
                                    ny_);
  const std::size_t by1 = clamp_bin((center.y + radius_m - min_y_) / cell_m_,
                                    ny_);
  const double r2 = radius_m * radius_m;
  for (std::size_t by = by0; by <= by1; ++by) {
    for (std::size_t bx = bx0; bx <= bx1; ++bx) {
      const std::size_t b = by * nx_ + bx;
      for (std::uint32_t i = bin_off_[b]; i < bin_off_[b + 1]; ++i) {
        const std::uint32_t idx = order_[i];
        const double dx = points_[idx].x - center.x;
        const double dy = points_[idx].y - center.y;
        if (dx * dx + dy * dy <= r2) hits.push_back(idx);
      }
    }
  }
  // Bin scan emits row-major bin order, not index order: one sort keeps
  // the determinism contract for callers that iterate the result.
  std::sort(hits.begin(), hits.end());
}

}  // namespace fdb::sim
