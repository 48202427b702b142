#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>

namespace fdb {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

namespace detail {

void uniform_int_empty_range() {
  // An empty range has no valid result. Fail loudly in release builds
  // too: the `(-n) % n` reduction would otherwise be a division by zero
  // (undefined behaviour) that only a sanitizer run would catch.
  std::fputs("fdb::Rng::uniform_int: n must be > 0\n", stderr);
  std::abort();
}

}  // namespace detail

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() { return detail::xoshiro_next(s_); }

double Rng::uniform() { return detail::unit_double((*this)()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 strictly positive to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::rayleigh(double mean_square) {
  // |CN(0, ms)| is Rayleigh with E[X^2] = ms.
  return std::abs(cn(mean_square));
}

cf32 Rng::cn(double mean_square) {
  const double sigma = std::sqrt(mean_square / 2.0);
  return {static_cast<float>(normal(0.0, sigma)),
          static_cast<float>(normal(0.0, sigma))};
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() {
  // A fresh generator seeded from this one's output stream; streams are
  // independent for Monte-Carlo purposes.
  return Rng((*this)());
}

Rng Rng::substream(std::uint64_t seed, std::uint64_t stream) {
  // Two splitmix64 rounds with the counter folded in between: full
  // avalanche on both inputs, so stream 0 and stream 1 of the same seed
  // share no structure, and neither matches Rng(seed) itself.
  std::uint64_t x = seed;
  x = splitmix64(x) ^ stream;
  return Rng(splitmix64(x));
}

}  // namespace fdb
