// Deterministic, fast random number generation for simulation.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so that experiments are reproducible run-to-run and so that
// parameter sweeps can use common random numbers across arms.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/simd_target.hpp"
#include "util/types.hpp"

namespace fdb {

class Rng;

namespace detail {

/// One xoshiro256++ step: advances `s` and returns the next raw output.
/// The single definition behind Rng::operator() and fill_cn's draw loop,
/// which keeps the four words in registers for a whole block.
inline std::uint64_t xoshiro_next(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = std::rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
  return result;
}

/// Rng::uniform_int's n == 0 failure: prints a message and aborts.
/// Cold and out of line, so the inline draw carries only its branch.
[[noreturn, gnu::cold]] void uniform_int_empty_range();

/// 53 random mantissa bits of a raw output -> uniform double in [0, 1).
inline double unit_double(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

/// Absolute error bound E that Rng::fill_cn assumes between
/// sincos_block and glibc sin/cos on [0, 2π]. The kernel's measured
/// error is thousands of times smaller (tests/util/rng_test pins it
/// within E/16 of glibc).
inline constexpr double kSincosErrorBound = 0x1p-40;

/// Relative error bound that Rng::fill_cn assumes between log_block and
/// glibc log on [2^-53, 1): |fast - glibc| <= kLogRelErrorBound * |fast|.
/// Both are sub-ulp, so they differ by about 2^-52 relative; the bound
/// leaves a 2^11 margin (tests/util/rng_test pins the kernel within a
/// sixteenth of it).
inline constexpr double kLogRelErrorBound = 0x1p-40;

/// Branch-free sin/cos of every x[i] in [0, 2π] (Cody-Waite reduction
/// by π/2 plus the fdlibm polynomial kernels), written so the compiler
/// vectorizes it. The spans must have equal lengths.
void sincos_block(std::span<const double> x, std::span<double> sin_out,
                  std::span<double> cos_out);

/// Branch-free natural log of every u[i] in [2^-53, 1) (fdlibm e_log's
/// reduction to [√2/2, √2) and its polynomial, with an int32 exponent),
/// written so the compiler vectorizes it. The spans must have equal
/// lengths.
void log_block(std::span<const double> u, std::span<double> out);

/// Rng::fill_cn on a named kernel target. Throws std::invalid_argument
/// when the host cannot run it. Internal: the equivalence tests pin
/// every target to cn() in one binary.
void fill_cn_on(Rng& rng, SimdTarget target, double mean_square,
                std::span<cf32> out);

/// Rng::fill_cn with the fast-kernel acceptance forced off, so every
/// sample takes the glibc fallback. Internal: the equivalence tests pin
/// that path to cn() too.
void fill_cn_fallback_only(Rng& rng, double mean_square,
                           std::span<cf32> out);

}  // namespace detail

/// xoshiro256++ generator (Blackman & Vigna). Small, fast, and high quality
/// for Monte-Carlo use; satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64,
  /// which guarantees a non-zero, well-mixed initial state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0 — an empty range has
  /// no valid result. Violations abort with a message in every build
  /// mode (never silent UB; the bounded-integer reduction would divide
  /// by zero).
  std::uint64_t uniform_int(std::uint64_t n) {
    if (n == 0) [[unlikely]] detail::uniform_int_empty_range();
    // Lemire's nearly-divisionless bounded integers with rejection: a
    // draw is accepted when the low half of r·n is at least (-n) % n.
    // That threshold is below n, so a low half >= n accepts without the
    // 64-bit division; only a low half below n computes it. Accepted
    // draws, and so the values and the generator state, are those of
    // the always-divide form (tests/util/rng_test pins it).
    unsigned __int128 m =
        static_cast<unsigned __int128>(detail::xoshiro_next(s_)) * n;
    if (static_cast<std::uint64_t>(m) < n) [[unlikely]] {
      const std::uint64_t threshold = (-n) % n;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<unsigned __int128>(detail::xoshiro_next(s_)) * n;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given mean (>0).
  double exponential(double mean);

  /// Rayleigh-distributed magnitude with E[X^2] = mean_square.
  double rayleigh(double mean_square);

  /// Circularly-symmetric complex Gaussian with E[|X|^2] = mean_square.
  cf32 cn(double mean_square);

  /// Writes exactly the values that out.size() successive
  /// cn(mean_square) calls would return, and leaves the generator in
  /// exactly the state they would. Samples are made kCnBlock at a time:
  /// uniforms drawn in cn()'s order, then a vectorized log and sincos
  /// (detail::log_block, detail::sincos_block) whose result is accepted
  /// only when every corner of their error box (kLogRelErrorBound on
  /// the log, kSincosErrorBound on sin/cos) rounds to the same float;
  /// the rest are recomputed through glibc log/sin/cos. The block kernel
  /// runs on the widest SimdTarget the host supports.
  void fill_cn(double mean_square, std::span<cf32> out);

  /// fill_cn's internal block; buffered callers use the same size.
  static constexpr std::size_t kCnBlock = 256;

  /// Bernoulli trial with probability p of true.
  bool chance(double p);

  /// Derives an independent child generator; useful for giving each
  /// simulated device its own stream from one experiment seed.
  Rng fork();

  /// Counter-based substream derivation: hashes (seed, stream) into a
  /// fresh, well-mixed state. Unlike fork(), the result depends only on
  /// the two inputs — substream(seed, i) is the same generator no matter
  /// which thread asks for it or in what order, which is what lets a
  /// parallel trial runner give trial i identical randomness at any job
  /// count. Adjacent stream indices are decorrelated by the hash.
  static Rng substream(std::uint64_t seed, std::uint64_t stream);

 private:
  friend void detail::fill_cn_on(Rng&, SimdTarget, double,
                                 std::span<cf32>);
  friend void detail::fill_cn_fallback_only(Rng&, double, std::span<cf32>);

  void fill_cn_impl(SimdTarget target, double mean_square,
                    std::span<cf32> out, bool force_fallback);

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fdb
