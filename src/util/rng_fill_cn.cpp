// Rng::fill_cn: the batch form of Rng::cn, bit-identical to it. Kept
// in its own TU, compiled with -ffp-contract=off, because the error
// bounds of the vector log and sincos below are derived for
// uncontracted arithmetic.
//
// The block kernel (draws, log, sincos, corner check, glibc fallback)
// is written once as an always-inline body and instantiated for each
// SimdTarget: the baseline ISA everywhere, plus target-attribute
// AVX2+FMA and AVX-512F wrappers on x86-64. fill_cn runs the widest one
// the host supports (util/simd_target.hpp). Every instantiation does
// the same IEEE operations in the same order, so they agree bit for
// bit; the tests force each one.
#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

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

// fdlibm e_log: ln 2 split so that k * kLn2Hi is exact for |k| < 2000,
// and the Remez coefficients of (log(1+f) - 2s + s·R(s²)) with
// s = f / (2 + f), valid for 1 + f in [√2/2, √2).
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

constexpr std::size_t kBlock = Rng::kCnBlock;
using State = std::array<std::uint64_t, 4>;

// The float that cn() makes from the unit normal radius * trig: the
// arithmetic of normal() feeding normal(0.0, sigma), term for term.
[[gnu::always_inline]] inline float scaled(double sigma, double radius,
                                           double trig) {
  return static_cast<float>(0.0 + sigma * (radius * trig));
}

[[gnu::always_inline]] inline void sincos_body(const double* xp, double* sp,
                                               double* cp, std::size_t n) {
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

// fdlibm e_log without its branches: for u = 2^k · (1 + f) with 1 + f in
// [√2/2, √2), log u = k·ln2 + f - (hfsq - s·(hfsq + R)), hfsq = f²/2.
// fdlibm takes this form for k != 0 and for f near ±0.3, and cheaper
// rearrangements of it elsewhere (k = 0 drops the exact-zero k terms,
// |f| < 2^-20 a shorter series); using it everywhere costs a few
// flops and no accuracy. u is normal here (u >= 2^-53), so fdlibm's
// subnormal rescale is not needed. The exponent stays an int32, so the
// int-to-double conversion vectorizes without AVX-512DQ.
[[gnu::always_inline]] inline void log_body(const double* up, double* out,
                                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(up[i]);
    // hx: the top 20 mantissa bits. A significand at or above √2
    // (hx >= 0x6a09c) is halved into [√2/2, 1) and k counts one more
    // (half = 2^20); the rest stay in [1, √2).
    const std::uint32_t hx = static_cast<std::uint32_t>(bits >> 32) & 0xfffff;
    const std::uint32_t half = (hx + 0x95f64) & 0x100000;
    const std::int32_t k = static_cast<std::int32_t>(bits >> 52) - 1023 +
                           static_cast<std::int32_t>(half >> 20);
    const double m = std::bit_cast<double>(
        (bits & 0x000fffffffffffffULL) |
        (static_cast<std::uint64_t>(half ^ 0x3ff00000) << 32));
    const double f = m - 1.0;  // exact (Sterbenz: m in [1/2, 2])
    const double s = f / (2.0 + f);
    const double dk = static_cast<double>(k);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double r = t2 + t1;
    const double hfsq = 0.5 * f * f;
    out[i] = dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  }
}

// Exactness of the accepted samples. cn() computes, per sample,
//   Lg = log(u1), Rg = sqrt(-2.0 * Lg), and the floats
//   F(Rg, cos θ) and F(Rg, sin θ), F(r, t) = float(D(r, t)),
//   D(r, t) = 0.0 + sigma * (r * t)
// with glibc's log, cos and sin. The fast path has L = log_body(u1)
// and c, s = sincos_body(θ) with (the bounds in rng.hpp)
//   |Lg - L| <= kLogRelErrorBound * |L|,  |cos θ - c|, |sin θ - s| <= E.
// 1. Lg is a double inside the real interval [L - e, L + e], where
//    e = kLogRelErrorBound * -L is exact (a power-of-two scaling of a
//    normal double). Rounding is monotone, so Lg also lies inside
//    [fl(L - e), fl(L + e)]; likewise cos θ in [fl(c - E), fl(c + E)]
//    and sin θ in [fl(s - E), fl(s + E)].
// 2. x -> sqrt(-2.0 * x) is monotone (an exact scaling, then a correctly
//    rounded sqrt), so Rg lies in [r_lo, r_hi] with
//    r_lo = sqrt(-2.0 * fl(L + e)) and r_hi = sqrt(-2.0 * fl(L - e)).
//    L + e < 0, because e = 2^-40 · |L|.
// 3. For sigma >= 0, D is monotone in t for every r >= 0 and monotone
//    in r (up or down with t's sign) for every t: each rounding step is
//    monotone. So for (r, t) in the box [r_lo, r_hi] x [t_lo, t_hi],
//    D(r, t) lies between D(r, t_lo) and D(r, t_hi), and each of those
//    lies between the two r-corners of its edge.
// 4. Float rounding is monotone and keeps the sign of a nonzero double,
//    and D is never -0 ("0.0 +" turns a zero product into +0). So when
//    the four corners' floats have the same bits v, every D in the box
//    rounds to v, (Rg, cos θ) and (Rg, sin θ) included: the corner value
//    is cn()'s value. Any sample whose corners differ is recomputed
//    through glibc, exactly as cn() does it.
[[gnu::always_inline]] inline void fill_cn_body(State& state, double sigma,
                                                std::span<cf32> out,
                                                bool force_fallback) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kE = detail::kSincosErrorBound;
  constexpr double kLogE = detail::kLogRelErrorBound;
  alignas(64) double u1[kBlock]{}, angle[kBlock]{}, ln[kBlock]{};
  alignas(64) double sin_a[kBlock]{}, cos_a[kBlock]{};
  alignas(64) std::uint8_t exact[kBlock]{};
  const auto same = [](float a, float b) {
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
  };
  State s = state;  // the generator lives in registers for the call
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, out.size() - base);
    cf32* dst = out.data() + base;
    // The same samples as interleaved re/im floats, an access the
    // standard defines for arrays of std::complex: whole-complex stores
    // do not vectorize.
    float* dst_f = reinterpret_cast<float*>(dst);
    // cn()'s draw order: u1 (redrawn while 0), then the angle's uniform.
    for (std::size_t i = 0; i < n; ++i) {
      double u = 0.0;
      do {
        u = detail::unit_double(detail::xoshiro_next(s));
      } while (u <= 0.0);
      u1[i] = u;
      angle[i] = kTwoPi * detail::unit_double(detail::xoshiro_next(s));
    }
    log_body(u1, ln, n);
    sincos_body(angle, sin_a, cos_a, n);
    for (std::size_t i = 0; i < n; ++i) {
      const double e = -ln[i] * kLogE;
      const double r_lo = std::sqrt(-2.0 * (ln[i] + e));
      const double r_hi = std::sqrt(-2.0 * (ln[i] - e));
      const double c_lo = cos_a[i] - kE, c_hi = cos_a[i] + kE;
      const double s_lo = sin_a[i] - kE, s_hi = sin_a[i] + kE;
      const float re = scaled(sigma, r_lo, c_lo);
      const float im = scaled(sigma, r_lo, s_lo);
      exact[i] = same(re, scaled(sigma, r_lo, c_hi)) &
                 same(re, scaled(sigma, r_hi, c_lo)) &
                 same(re, scaled(sigma, r_hi, c_hi)) &
                 same(im, scaled(sigma, r_lo, s_hi)) &
                 same(im, scaled(sigma, r_hi, s_lo)) &
                 same(im, scaled(sigma, r_hi, s_hi));
      dst_f[2 * i] = re;
      dst_f[2 * i + 1] = im;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!exact[i] || force_fallback) {
        const double radius = std::sqrt(-2.0 * std::log(u1[i]));
        dst[i] = {scaled(sigma, radius, std::cos(angle[i])),
                  scaled(sigma, radius, std::sin(angle[i]))};
      }
    }
  }
  state = s;
}

using CnKernel = void (*)(State&, double, std::span<cf32>, bool);

void fill_cn_baseline(State& state, double sigma, std::span<cf32> out,
                      bool force_fallback) {
  fill_cn_body(state, sigma, out, force_fallback);
}

#if defined(__x86_64__)
__attribute__((target("avx2,fma"))) void fill_cn_avx2_fma(
    State& state, double sigma, std::span<cf32> out, bool force_fallback) {
  fill_cn_body(state, sigma, out, force_fallback);
}

__attribute__((target("avx512f"))) void fill_cn_avx512f(
    State& state, double sigma, std::span<cf32> out, bool force_fallback) {
  fill_cn_body(state, sigma, out, force_fallback);
}
#endif  // __x86_64__

CnKernel kernel_for(SimdTarget target) {
  switch (target) {
#if defined(__x86_64__)
    case SimdTarget::kAvx512f:
      return fill_cn_avx512f;
    case SimdTarget::kAvx2Fma:
      return fill_cn_avx2_fma;
#endif
    default:
      return fill_cn_baseline;
  }
}

}  // namespace

namespace detail {

void sincos_block(std::span<const double> x, std::span<double> sin_out,
                  std::span<double> cos_out) {
  assert(sin_out.size() == x.size() && cos_out.size() == x.size());
  sincos_body(x.data(), sin_out.data(), cos_out.data(), x.size());
}

void log_block(std::span<const double> u, std::span<double> out) {
  assert(out.size() == u.size());
  log_body(u.data(), out.data(), u.size());
}

void fill_cn_on(Rng& rng, SimdTarget target, double mean_square,
                std::span<cf32> out) {
  if (!simd_target_supported(target)) {
    throw std::invalid_argument(std::string("fill_cn target ") +
                                simd_target_name(target) +
                                " is not supported on this CPU");
  }
  rng.fill_cn_impl(target, mean_square, out, false);
}

void fill_cn_fallback_only(Rng& rng, double mean_square,
                           std::span<cf32> out) {
  rng.fill_cn_impl(SimdTarget::kScalar, mean_square, out, true);
}

}  // namespace detail

void Rng::fill_cn(double mean_square, std::span<cf32> out) {
  fill_cn_impl(simd_dispatch_target(), mean_square, out, false);
}

void Rng::fill_cn_impl(SimdTarget target, double mean_square,
                       std::span<cf32> out, bool force_fallback) {
  const double sigma = std::sqrt(mean_square / 2.0);
  // A cached deviate shifts cn()'s pairing (each sample would take the
  // previous pair's sine and the next pair's cosine), and a non-finite
  // sigma leaves the interval check nothing to bracket: both take the
  // scalar path, which is the definition.
  if (has_cached_normal_ || !std::isfinite(sigma)) {
    for (auto& v : out) v = cn(mean_square);
    return;
  }
  kernel_for(target)(s_, sigma, out, force_fallback);
}

}  // namespace fdb
