// Deterministic, fast random number generation for simulation.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed) so that experiments are reproducible run-to-run and so that
// parameter sweeps can use common random numbers across arms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/types.hpp"

namespace fdb {

class Rng;

namespace detail {

/// Absolute error bound E that Rng::fill_cn assumes between
/// sincos_block and glibc sin/cos on [0, 2π]. The kernel's measured
/// error is thousands of times smaller (tests/util/rng_test pins it
/// within E/16 of glibc).
inline constexpr double kSincosErrorBound = 0x1p-40;

/// Branch-free sin/cos of every x[i] in [0, 2π] (Cody-Waite reduction
/// by π/2 plus the fdlibm polynomial kernels), written so the compiler
/// vectorizes it. The spans must have equal lengths.
void sincos_block(std::span<const double> x, std::span<double> sin_out,
                  std::span<double> cos_out);

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
  std::uint64_t uniform_int(std::uint64_t n);

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
  /// uniforms drawn in cn()'s order, glibc log/sqrt for the radius, and
  /// a vectorized sincos whose result is accepted only when both ends
  /// of its error interval (detail::kSincosErrorBound) round to the same
  /// float; the rest are recomputed through glibc sin/cos.
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
  friend void detail::fill_cn_fallback_only(Rng&, double, std::span<cf32>);

  void fill_cn_impl(double mean_square, std::span<cf32> out,
                    bool force_fallback);

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fdb
