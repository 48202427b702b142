#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <numbers>
#include <span>
#include <string>
#include <vector>

namespace fdb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounded) {
  Rng rng(9);
  std::array<int, 7> counts{};
  for (int i = 0; i < 14000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  // Each bucket should land near 2000.
  for (const int c : counts) {
    EXPECT_GT(c, 1700);
    EXPECT_LT(c, 2300);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ComplexNormalMeanSquare) {
  Rng rng(19);
  double power = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.cn(2.0));
  EXPECT_NEAR(power / n, 2.0, 0.05);
}

TEST(Rng, RayleighMeanSquare) {
  Rng rng(23);
  double ms = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double r = rng.rayleigh(4.0);
    EXPECT_GE(r, 0.0);
    ms += r * r;
  }
  EXPECT_NEAR(ms / n, 4.0, 0.1);
}

TEST(Rng, ChanceProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SubstreamIsPositionIndependent) {
  // Counter-based derivation: the generator for (seed, stream) depends
  // only on those two values — no ordering, no shared state. This is
  // what lets a parallel runner hand trial i the same randomness on any
  // thread.
  Rng a = Rng::substream(99, 5);
  Rng b = Rng::substream(99, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SubstreamsDiverge) {
  // Adjacent stream indices and adjacent seeds must share no structure.
  Rng s0 = Rng::substream(7, 0);
  Rng s1 = Rng::substream(7, 1);
  Rng other_seed = Rng::substream(8, 0);
  int same01 = 0, same_seed = 0;
  for (int i = 0; i < 64; ++i) {
    const auto v0 = s0();
    if (v0 == s1()) ++same01;
    if (v0 == other_seed()) ++same_seed;
  }
  EXPECT_EQ(same01, 0);
  EXPECT_EQ(same_seed, 0);
}

TEST(Rng, SubstreamDiffersFromPlainSeed) {
  Rng plain(7);
  Rng sub = Rng::substream(7, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (plain() == sub()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// The always-divide form of Lemire's bounded draw: computes (-n) % n
// on every call. Rng::uniform_int must accept exactly the same draws.
std::uint64_t uniform_int_divide(Rng& rng, std::uint64_t n) {
  const std::uint64_t threshold = (-n) % n;
  for (;;) {
    const unsigned __int128 m = static_cast<unsigned __int128>(rng()) * n;
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

// Two generators are in the same state when their next four raw outputs
// agree (xoshiro256++'s state is four words); copies are compared, so
// neither argument advances.
bool same_state(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a() != b()) return false;
  }
  return true;
}

// Draws uniform_int(n) from `fast` and the reference from `ref`, and
// fails on the first call whose value or resulting state differs.
::testing::AssertionResult draw_matches(Rng& fast, Rng& ref,
                                        std::uint64_t n) {
  const std::uint64_t got = fast.uniform_int(n);
  const std::uint64_t want = uniform_int_divide(ref, n);
  if (got != want) {
    return ::testing::AssertionFailure()
           << "n " << n << ": value " << got << " vs " << want;
  }
  if (!same_state(fast, ref)) {
    return ::testing::AssertionFailure() << "n " << n << ": state differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(RngUniformInt, MatchesDivisionForm) {
  Rng fast(0x5eed), ref(0x5eed);
  std::vector<std::uint64_t> ns = {1, 2, 3, 255, 256, 257,
                                   (std::uint64_t{1} << 63) + 1,
                                   ~std::uint64_t{0}};
  for (int b = 0; b < 64; ++b) ns.push_back(std::uint64_t{1} << b);
  for (const std::uint64_t n : ns) {
    for (int i = 0; i < 4096; ++i) ASSERT_TRUE(draw_matches(fast, ref, n));
  }
  // Random n of every magnitude: a raw draw shifted right by 0..63.
  Rng pick(11);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t n = std::max<std::uint64_t>(pick() >> (pick() % 64), 1);
    ASSERT_TRUE(draw_matches(fast, ref, n));
  }
  // Long streams: payload bytes (n = 256) and a power-of-two window
  // sweep, n = 32768 * 2^k, as contention backoff windows draw.
  for (int i = 0; i < 10000000; ++i) {
    ASSERT_TRUE(draw_matches(fast, ref, 256));
  }
  for (int i = 0; i < 10000000; ++i) {
    ASSERT_TRUE(draw_matches(fast, ref, std::uint64_t{32768} << (i % 49)));
  }
}

TEST(RngDeathTest, UniformIntZeroFailsLoudly) {
  // Precondition n > 0 must fail with a message in every build mode —
  // release builds used to reach a division by zero (UB) instead.
  Rng rng(3);
  EXPECT_DEATH(rng.uniform_int(0), "n must be > 0|n > 0");
}

// Both components' bit patterns, so -0 vs +0 and NaN payloads count.
std::uint64_t bits(cf32 v) {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(v.real())} << 32) |
         std::bit_cast<std::uint32_t>(v.imag());
}

TEST(RngFillCn, MatchesSuccessiveCnBitForBit) {
  // 5 powers x 4 span lengths x 500k draws = 10^7 draws. The lengths
  // straddle fill_cn's 256-sample block.
  constexpr std::size_t kDrawsPerCase = 500000;
  std::uint64_t seed = 101;
  for (const double ms : {1e-12, 1e-6, 0.01, 1.0, 10.0}) {
    for (const std::size_t len : {1u, 255u, 256u, 257u}) {
      Rng batch(seed), scalar(seed);
      ++seed;
      std::vector<cf32> out(len);
      for (std::size_t done = 0; done < kDrawsPerCase; done += len) {
        batch.fill_cn(ms, out);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(bits(out[i]), bits(scalar.cn(ms)))
              << "mean_square " << ms << ", span " << len << ", draw "
              << done + i;
        }
      }
      EXPECT_EQ(batch(), scalar()) << "generator state after the draws";
    }
  }
}

TEST(RngFillCn, CachedNormalEntryMatchesCn) {
  // One odd normal() leaves a cached deviate, which shifts cn()'s
  // pairing; fill_cn must follow it and leave the same cache behind.
  Rng batch(202), scalar(202);
  EXPECT_EQ(batch.normal(), scalar.normal());
  std::vector<cf32> out(300);
  for (int round = 0; round < 100; ++round) {
    batch.fill_cn(0.5, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(bits(out[i]), bits(scalar.cn(0.5))) << "draw " << i;
    }
  }
  EXPECT_EQ(batch.normal(), scalar.normal());
  EXPECT_EQ(batch(), scalar());
}

TEST(RngFillCn, ForcedFallbackMatchesCn) {
  Rng batch(303), scalar(303);
  std::vector<cf32> out(257);
  for (int round = 0; round < 400; ++round) {
    detail::fill_cn_fallback_only(batch, 2.0, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(bits(out[i]), bits(scalar.cn(2.0))) << "draw " << i;
    }
  }
  EXPECT_EQ(batch(), scalar());
}

TEST(RngFillCn, SincosBlockWithinBoundOfGlibc) {
  // fill_cn's exactness assumes |fast - glibc| <= kSincosErrorBound on
  // [0, 2π]; pin a 16x margin over 10^7 Box-Muller angles plus every
  // quadrant boundary (and its neighbours) and 2π - ulp.
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  std::vector<double> x;
  for (int k = 0; k <= 4; ++k) {
    double b = k * (std::numbers::pi / 2.0);
    for (int step = 0; step < 4; ++step) b = std::nextafter(b, 0.0);
    for (int step = 0; step < 9; ++step) {
      if (b >= 0.0 && b <= kTwoPi) x.push_back(b);
      b = std::nextafter(b, 8.0);
    }
  }
  x.push_back(std::nextafter(kTwoPi, 0.0));
  x.push_back(kTwoPi);
  Rng rng(404);
  while (x.size() < 10000000) x.push_back(kTwoPi * rng.uniform());

  std::vector<double> s(x.size()), c(x.size());
  detail::sincos_block(x, s, c);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max({worst, std::abs(s[i] - std::sin(x[i])),
                      std::abs(c[i] - std::cos(x[i]))});
  }
  EXPECT_LE(worst, detail::kSincosErrorBound / 16.0);
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%a", worst);
  RecordProperty("worst_abs_error", worst_text);
}

TEST(RngFillCn, LogBlockWithinBoundOfGlibc) {
  // fill_cn's exactness assumes |fast - glibc| <= kLogRelErrorBound *
  // |fast| on [2^-53, 1); pin a 16x margin over 10^7 uniforms (the
  // values Rng::uniform can produce) plus the ends of the range, every
  // power of two in it, and the neighbours of the reduction's split
  // between [√2/2, 1) and [1, √2) at several exponents.
  std::vector<double> u;
  const auto push_around = [&u](double x) {
    for (int step = 0; step < 4; ++step) x = std::nextafter(x, 0.0);
    for (int step = 0; step < 9; ++step) {
      if (x >= 0x1p-53 && x < 1.0) u.push_back(x);
      x = std::nextafter(x, 2.0);
    }
  };
  u.push_back(0x1p-53);
  u.push_back(1.0 - 0x1p-53);
  for (int e = 1; e <= 53; ++e) push_around(std::ldexp(1.0, -e));
  // Significand 1 + 0x6a09c * 2^-20 is the first one halved into
  // [√2/2, 1); √2/2 itself sits just below that split's image.
  const double split = 1.0 + 0x6a09c * 0x1p-20;
  for (const int e : {-1, -2, -3, -17, -52, -53}) {
    push_around(std::ldexp(split, e));
    push_around(std::ldexp(std::numbers::sqrt2, e));
  }
  Rng rng(505);
  while (u.size() < 10000000) {
    double x = 0.0;
    do {
      x = rng.uniform();
    } while (x <= 0.0);
    u.push_back(x);
  }

  std::vector<double> ln(u.size());
  detail::log_block(u, ln);
  double worst = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    worst = std::max(worst, std::abs(ln[i] - std::log(u[i])) / -ln[i]);
  }
  EXPECT_LE(worst, detail::kLogRelErrorBound / 16.0);
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%a", worst);
  RecordProperty("worst_rel_error", worst_text);
}

TEST(RngFillCn, DispatchesBestSupportedTarget) {
  // fill_cn runs the widest kernel the CPU has, checked here against
  // the CPU's own feature bits rather than the dispatcher's helpers,
  // and produces what that target produces when forced.
  SimdTarget best = SimdTarget::kScalar;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    best = SimdTarget::kAvx512f;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    best = SimdTarget::kAvx2Fma;
  }
#endif
  EXPECT_EQ(simd_dispatch_target(), best)
      << "dispatched " << simd_target_name(simd_dispatch_target())
      << ", best supported " << simd_target_name(best);
  Rng dispatched(606), forced(606);
  std::vector<cf32> a(1000), b(1000);
  dispatched.fill_cn(0.3, a);
  detail::fill_cn_on(forced, best, 0.3, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << "draw " << i;
  }
  EXPECT_EQ(dispatched(), forced());
}

class RngFillCnTarget : public ::testing::TestWithParam<SimdTarget> {};

TEST_P(RngFillCnTarget, MatchesCn) {
  // Each block-kernel instantiation, forced by name so one binary pins
  // every ISA the host has: 5 powers x 4 span lengths x 100k draws,
  // bit patterns and the generator state after the draws.
  const SimdTarget target = GetParam();
  if (!simd_target_supported(target)) {
    GTEST_SKIP() << simd_target_name(target) << " is not supported on this CPU";
  }
  constexpr std::size_t kDrawsPerCase = 100000;
  std::uint64_t seed = 707;
  for (const double ms : {1e-12, 1e-3, 0.3, 2.0, 1e6}) {
    for (const std::size_t len : {1u, 255u, 256u, 257u}) {
      Rng batch(seed), scalar(seed);
      ++seed;
      std::vector<cf32> out(len);
      for (std::size_t done = 0; done < kDrawsPerCase; done += len) {
        detail::fill_cn_on(batch, target, ms, out);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(bits(out[i]), bits(scalar.cn(ms)))
              << simd_target_name(target) << ", mean_square " << ms
              << ", span " << len << ", draw " << done + i;
        }
      }
      EXPECT_EQ(batch(), scalar()) << "generator state after the draws";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    , RngFillCnTarget,
    ::testing::Values(SimdTarget::kScalar, SimdTarget::kAvx2Fma,
                      SimdTarget::kAvx512f),
    [](const auto& info) {
      switch (info.param) {
        case SimdTarget::kAvx2Fma:
          return std::string("Avx2Fma");
        case SimdTarget::kAvx512f:
          return std::string("Avx512f");
        case SimdTarget::kScalar:
          break;
      }
      return std::string("Scalar");
    });

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream should not reproduce the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace fdb
