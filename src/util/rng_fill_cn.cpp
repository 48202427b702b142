// Rng::fill_cn: the batch form of Rng::cn, bit-identical to it. Kept
// in its own TU, compiled with -ffp-contract=off, because the error
// bound of the vector sincos below is derived for uncontracted
// arithmetic.
#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace fdb {
namespace {

// fdlibm's π/2 split: kPio2Hi holds the first 33 bits, so k * kPio2Hi
// is exact for the quadrant counts k <= 4 that [0, 2π] needs, and
// x - k * kPio2Hi is exact by Sterbenz; kPio2Lo is the rounded rest.
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;
constexpr double kPio2Lo = 6.07710050650619224932e-11;
// Adding 1.5 * 2^52 rounds to an integer held in the low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

// fdlibm __kernel_sin / __kernel_cos coefficients, valid on |r| <= π/4.
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

// The float that cn() makes from the unit normal radius * trig: the
// arithmetic of normal() feeding normal(0.0, sigma), term for term.
float scaled(double sigma, double radius, double trig) {
  return static_cast<float>(0.0 + sigma * (radius * trig));
}

}  // namespace

namespace detail {

void sincos_block(std::span<const double> x, std::span<double> sin_out,
                  std::span<double> cos_out) {
  assert(sin_out.size() == x.size() && cos_out.size() == x.size());
  const std::size_t n = x.size();
  const double* xp = x.data();
  double* sp = sin_out.data();
  double* cp = cos_out.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double shifted = xp[i] * kInvPio2 + kRoundShift;
    const double k = shifted - kRoundShift;
    const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(shifted);
    const double r = (xp[i] - k * kPio2Hi) - k * kPio2Lo;
    const double z = r * r;
    const double sin_r =
        r + (z * r) * (kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 +
                                                                 z * kS6)))));
    const double cos_r =
        1.0 - (0.5 * z -
               z * (z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 +
                                                                   z * kC6)))))));
    // x = q·π/2 + r: odd quadrants swap sin and cos, and the sign bits
    // follow q & 2 for sin and (q + 1) & 2 for cos. Pure bit selects,
    // so the loop has no branch.
    const std::uint64_t swap = 0 - (quadrant & 1);
    const std::uint64_t sb = std::bit_cast<std::uint64_t>(sin_r);
    const std::uint64_t cb = std::bit_cast<std::uint64_t>(cos_r);
    sp[i] = std::bit_cast<double>(((sb & ~swap) | (cb & swap)) ^
                                  ((quadrant & 2) << 62));
    cp[i] = std::bit_cast<double>(((cb & ~swap) | (sb & swap)) ^
                                  (((quadrant + 1) & 2) << 62));
  }
}

void fill_cn_fallback_only(Rng& rng, double mean_square,
                           std::span<cf32> out) {
  rng.fill_cn_impl(mean_square, out, true);
}

}  // namespace detail

void Rng::fill_cn(double mean_square, std::span<cf32> out) {
  fill_cn_impl(mean_square, out, false);
}

void Rng::fill_cn_impl(double mean_square, std::span<cf32> out,
                       bool force_fallback) {
  const double sigma = std::sqrt(mean_square / 2.0);
  // A cached deviate shifts cn()'s pairing (each sample would take the
  // previous pair's sine and the next pair's cosine), and a non-finite
  // sigma leaves the interval check nothing to bracket: both take the
  // scalar path, which is the definition.
  if (has_cached_normal_ || !std::isfinite(sigma)) {
    for (auto& v : out) v = cn(mean_square);
    return;
  }
  // Exactness: for radius >= 0 and sigma >= 0 the map
  // t -> float(0.0 + sigma * (radius * t)) is monotone (each rounding
  // is), and glibc's value lies within E of the fast one. When both
  // ends of [t - E, t + E] give the same float bits, so does glibc.
  constexpr double kE = detail::kSincosErrorBound;
  std::array<double, kCnBlock> radius{}, angle{}, sin_a{}, cos_a{};
  std::array<std::uint8_t, kCnBlock> exact{};
  for (std::size_t base = 0; base < out.size(); base += kCnBlock) {
    const std::size_t n = std::min(kCnBlock, out.size() - base);
    cf32* dst = out.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
      double u1 = 0.0;
      do {
        u1 = uniform();
      } while (u1 <= 0.0);
      radius[i] = std::sqrt(-2.0 * std::log(u1));
      angle[i] = 2.0 * std::numbers::pi * uniform();
    }
    detail::sincos_block({angle.data(), n}, {sin_a.data(), n},
                         {cos_a.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      const float re_lo = scaled(sigma, radius[i], cos_a[i] - kE);
      const float re_hi = scaled(sigma, radius[i], cos_a[i] + kE);
      const float im_lo = scaled(sigma, radius[i], sin_a[i] - kE);
      const float im_hi = scaled(sigma, radius[i], sin_a[i] + kE);
      dst[i] = {re_lo, im_lo};
      exact[i] = (std::bit_cast<std::uint32_t>(re_lo) ==
                  std::bit_cast<std::uint32_t>(re_hi)) &
                 (std::bit_cast<std::uint32_t>(im_lo) ==
                  std::bit_cast<std::uint32_t>(im_hi));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!exact[i] || force_fallback) {
        dst[i] = {scaled(sigma, radius[i], std::cos(angle[i])),
                  scaled(sigma, radius[i], std::sin(angle[i]))};
      }
    }
  }
}

}  // namespace fdb
