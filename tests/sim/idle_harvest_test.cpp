// The idle-harvest fast-forward (detail::add_repeated) against its
// reference, n in-order adds (detail::add_repeated_steps), bit for bit:
// over random (acc, h, n), over the zero increments it shortcuts (±0
// operands, non-finite acc, chains of 2^32), and over inputs it must
// hand to the loop.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "sim/network_sim.hpp"
#include "util/rng.hpp"

namespace fdb::sim {
namespace {

using detail::add_repeated;
using detail::add_repeated_steps;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kMinSubnormal = std::numeric_limits<double>::denorm_min();

std::string describe(double acc, double h, std::uint64_t n) {
  std::ostringstream os;
  os << std::hexfloat << "acc " << acc << " h " << h << " n " << n;
  return os.str();
}

/// Bit-for-bit equality, so -0 vs +0 and NaN payloads count.
void expect_same_bits(double got, double want, double acc, double h,
                      std::uint64_t n) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << describe(acc, h, n) << std::hexfloat << ": got " << got
      << ", steps " << want;
}

void expect_matches_steps(double acc, double h, std::uint64_t n) {
  expect_same_bits(add_repeated(acc, h, n), add_repeated_steps(acc, h, n),
                   acc, h, n);
}

/// A random double with `bits` significant bits, scaled to [2^e, 2^(e+1)).
double random_significand(Rng& rng, int bits, int e) {
  const std::uint64_t top = std::uint64_t{1} << (bits - 1);
  const std::uint64_t m = top | (rng() & (top - 1));
  return std::ldexp(static_cast<double>(m), e - (bits - 1));
}

const std::uint64_t kSmallNs[] = {0, 1, 2, 3, 4, 5, 7, 64, 4096};

TEST(IdleHarvest, RandomCasesMatchSteps) {
  Rng rng(0x1d1e'4a55ULL);
  constexpr int kCases = 1'000'000;
  for (int i = 0; i < kCases; ++i) {
    // h: harvest-like magnitudes, sometimes a short significand (more
    // exact adds), sometimes subnormal, and ±0 about one case in seven.
    const int h_exp = -80 + static_cast<int>(rng.uniform_int(80));
    const int h_bits = 1 + static_cast<int>(rng.uniform_int(53));
    double h = random_significand(rng, h_bits, h_exp);
    const std::uint64_t kind = rng.uniform_int(64);
    if (kind == 0) {
      h = kMinSubnormal * static_cast<double>(1 + rng.uniform_int(1u << 20));
    } else if (kind <= 9) {
      h = kind == 9 ? -0.0 : 0.0;  // the shortcut
    }
    // acc: zero, a few adds of h in, or anywhere from far below h to
    // 2^60 above it.
    double acc = 0.0;
    switch (rng.uniform_int(4)) {
      case 0:
        break;
      case 1:
        acc = add_repeated_steps(0.0, h, rng.uniform_int(9));
        break;
      default:
        acc = random_significand(
            rng, 1 + static_cast<int>(rng.uniform_int(53)),
            h_exp - 8 + static_cast<int>(rng.uniform_int(68)));
        break;
    }
    // n: log-uniform up to 4096, with the short chains well covered.
    const std::uint64_t n =
        rng.uniform_int(1 + (std::uint64_t{1} << rng.uniform_int(13)));
    SCOPED_TRACE(i);
    expect_matches_steps(acc, h, n);
    if (HasFailure()) return;  // one report, not a million
  }
}

TEST(IdleHarvest, ZeroIncrementMatchesSteps) {
  for (const double acc : {0.0, -0.0, 1.0, -1.0, kMinSubnormal, kMinNormal,
                           0x1.fffffffffffffp1023, -kInf, kInf,
                           std::nan("")}) {
    for (const double h : {0.0, -0.0}) {
      for (const std::uint64_t n : kSmallNs) expect_matches_steps(acc, h, n);
    }
  }
  // -0 + +0 is +0: the zero path must do its one add.
  EXPECT_FALSE(std::signbit(add_repeated(-0.0, 0.0, 5)));
  EXPECT_TRUE(std::signbit(add_repeated(-0.0, -0.0, 5)));
  EXPECT_TRUE(std::signbit(add_repeated(-0.0, 0.0, 0)));
}

TEST(IdleHarvest, LongZeroIncrementChainsTakeOneAdd) {
  // h = 0: one add reaches the fixed point, so 2^32 adds equal one.
  constexpr std::uint64_t kN = std::uint64_t{1} << 32;
  for (const double acc : {0.0, -0.0, 3.5e-9, -2.0}) {
    for (const double h : {0.0, -0.0}) {
      expect_same_bits(add_repeated(acc, h, kN), add_repeated_steps(acc, h, 1),
                       acc, h, kN);
    }
  }
}

TEST(IdleHarvest, NonzeroAndNonFiniteIncrementsTakeTheSteps) {
  const double nan = std::nan("");
  for (const double acc : {-1.0, -1e-9, -kMinSubnormal, nan, kInf, -kInf,
                           0x1.fffffffffffffp1023, 0x1p1023, 1.0}) {
    for (const double h : {-1.0, -1e-12, nan, kInf, -kInf, 1e-9, 0x1p1000,
                           0x1.fffffffffffffp1023}) {
      for (const std::uint64_t n : {1u, 2u, 3u, 17u, 300u}) {
        expect_matches_steps(acc, h, n);
      }
    }
  }
}

}  // namespace
}  // namespace fdb::sim
