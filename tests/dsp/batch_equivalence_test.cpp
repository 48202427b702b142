// Batch-vs-scalar equivalence for every dsp kernel: feeding one stream
// sample-at-a-time through process(x) and feeding the identical stream
// through process(span) in randomized chunk sizes (including chunk==1
// and chunk > window/taps) must produce bit-identical outputs. The
// scalar paths are thin wrappers over the batch kernels, and the batch
// kernels key any internal bookkeeping (history compaction, accumulator
// refresh) to absolute sample counts, so this holds exactly — no ulp
// tolerance needed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <span>
#include <string>
#include <vector>

#include "dsp/agc.hpp"
#include "dsp/correlator.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/iir.hpp"
#include "dsp/moving_average.hpp"
#include "phy/preamble.hpp"
#include "phy/slicer.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace fdb::dsp {
namespace {

/// Random chunk sizes covering the edge cases: lots of 1s, sizes below
/// and above typical window/tap counts, and a jumbo chunk bigger than
/// the kernels' internal 4096-sample blocks.
std::vector<std::size_t> random_chunks(std::size_t total, Rng& rng) {
  static constexpr std::size_t kPalette[] = {1,  1,  2,  3,   5,    7,  17,
                                             64, 91, 256, 1024, 5000};
  std::vector<std::size_t> chunks;
  std::size_t left = total;
  while (left > 0) {
    std::size_t n = kPalette[rng.uniform_int(std::size(kPalette))];
    n = std::min(n, left);
    chunks.push_back(n);
    left -= n;
  }
  return chunks;
}

std::vector<float> random_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = 1.0f + 0.25f * static_cast<float>(rng.normal());
  return x;
}

std::vector<cf32> random_stream_c(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cf32> x(n);
  for (auto& v : x) v = rng.cn(1.0);
  return x;
}

/// Drives two identically-constructed kernels over the same float
/// stream — one scalar, one chunked — and asserts bit-identity.
template <typename Kernel>
void expect_float_kernel_equivalent(Kernel scalar_k, Kernel batch_k,
                                    std::size_t total, std::uint64_t seed) {
  const auto in = random_stream(total, seed);
  std::vector<float> ref(total), out(total);
  for (std::size_t i = 0; i < total; ++i) ref[i] = scalar_k.process(in[i]);
  Rng chunk_rng(seed ^ 0xc0ffee);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(total, chunk_rng)) {
    batch_k.process(std::span<const float>(in.data() + pos, n),
                    std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(ref[i], out[i]) << "diverged at sample " << i;
  }
}

TEST(BatchEquivalence, MovingAverageFloat) {
  expect_float_kernel_equivalent(MovingAverage<float>(17),
                                 MovingAverage<float>(17), 6000, 11);
}

TEST(BatchEquivalence, MovingAverageDouble) {
  MovingAverage<double> scalar(64), batch(64);
  const auto inf = random_stream(5000, 12);
  std::vector<double> in(inf.begin(), inf.end());
  std::vector<double> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(99);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const double>(in.data() + pos, n),
                  std::span<double>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, OnePole) {
  expect_float_kernel_equivalent(OnePole(0.05), OnePole(0.05), 6000, 13);
}

/// Streams built to defeat the segmented one-pole: chains that never
/// meet (non-finite samples, a huge-to-tiny jump, signed zeros that
/// compare equal but step differently), denormal arithmetic and values
/// near FLT_MAX. Each comes with the state the filter starts from.
struct PoleStream {
  std::string name;
  float start = 0.0f;
  std::vector<float> x;
};

std::vector<PoleStream> adversarial_pole_streams(std::size_t n) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kTiny = std::numeric_limits<float>::denorm_min();
  Rng rng(0x901e);
  std::vector<PoleStream> s;
  const auto add = [&](std::string name, float start, auto gen) {
    PoleStream p{std::move(name), start, std::vector<float>(n)};
    for (std::size_t i = 0; i < n; ++i) p.x[i] = gen(i);
    s.push_back(std::move(p));
  };
  add("envelope", 0.3f, [&](std::size_t) {
    return 1.0f + 0.25f * static_cast<float>(rng.normal());
  });
  add("constant", 0.0f, [](std::size_t) { return 0.7f; });
  add("zeros", -0.0f, [](std::size_t) { return 0.0f; });
  add("negative_zeros", -0.0f, [](std::size_t) { return -0.0f; });
  // Runs of -0 with single +0 and -denorm_min samples: the true chain
  // swings between -0, +0 and -denorm_min, a chain restarted from +0
  // sits at +0 through a run of -0.
  add("alternating_signed_zeros", -0.0f, [&](std::size_t) {
    const double u = rng.uniform();
    return u < 0.1 ? 0.0f : u < 0.2 ? -kTiny : -0.0f;
  });
  add("subnormals", 0.0f, [&](std::size_t) {
    return static_cast<float>(rng.uniform()) * 1e-39f;
  });
  add("nan_mid_block", 1.0f, [&](std::size_t i) {
    return i % 5000 == 2500 ? kNan : 1.0f + static_cast<float>(rng.uniform());
  });
  // +inf, -inf (a default NaN from inf - inf), then a quiet NaN of the
  // other sign: a two-NaN add whose payload depends on operand order.
  add("infinities_mid_block", 1.0f, [&](std::size_t i) {
    const std::size_t k = i % 6000;
    if (k == 3000) return kInf;
    if (k == 3001) return -kInf;
    if (k == 3002) return kNan;
    return 1.0f + static_cast<float>(rng.uniform());
  });
  add("jump_1e30_to_1e-30", 1e30f,
      [](std::size_t i) { return (i / 1500) % 2 == 0 ? 1e30f : 1e-30f; });
  add("near_flt_max", 3e38f, [&](std::size_t) {
    return (rng.uniform() < 0.5 ? -1.0f : 1.0f) *
           std::numeric_limits<float>::max() *
           static_cast<float>(0.5 + 0.5 * rng.uniform());
  });
  return s;
}

::testing::AssertionResult same_pole_bits(const std::vector<float>& want,
                                          const std::vector<float>& got,
                                          float want_state, float got_state) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(want[i]) !=
        std::bit_cast<std::uint32_t>(got[i])) {
      return ::testing::AssertionFailure()
             << "diverged at sample " << i << ": " << want[i] << " vs "
             << got[i];
    }
  }
  if (std::bit_cast<std::uint32_t>(want_state) !=
      std::bit_cast<std::uint32_t>(got_state)) {
    return ::testing::AssertionFailure()
           << "carried state " << want_state << " vs " << got_state;
  }
  return ::testing::AssertionSuccess();
}

TEST(BatchEquivalence, OnePoleSegmentedMatchesSerialOnAdversarialStreams) {
  // Lengths: empty, one sample, the serial threshold (1,024) +-1, a
  // slot, one block +-1, an escalation window and a long capture.
  constexpr std::size_t kLengths[] = {0,    1,    1023, 1024,  1025, 2880,
                                      4095, 4096, 4097, 11520, 70000};
  const auto streams = adversarial_pole_streams(70000);
  for (const double alpha : {1.0, 0.715, 0.27, 0.05, 1e-3}) {
    for (const std::size_t n : kLengths) {
      for (const auto& s : streams) {
        SCOPED_TRACE(s.name + ", alpha " + std::to_string(alpha) + ", " +
                     std::to_string(n) + " samples");
        const std::vector<float> in(s.x.begin(), s.x.begin() + n);
        std::vector<float> ref(n);
        const float ref_state =
            detail::one_pole_serial(alpha, s.start, in, ref);
        // Whole span, out of place and in place.
        OnePole whole(alpha);
        whole.reset(s.start);
        std::vector<float> out(n);
        whole.process(in, out);
        ASSERT_TRUE(same_pole_bits(ref, out, ref_state, whole.value()));
        OnePole inplace(alpha);
        inplace.reset(s.start);
        std::vector<float> buf = in;
        inplace.process(buf, buf);
        ASSERT_TRUE(same_pole_bits(ref, buf, ref_state, inplace.value()));
        // Random chunkings (chunks up to 5,000 samples), both ways.
        Rng chunk_rng(n * 131 + static_cast<std::uint64_t>(alpha * 1e6));
        OnePole chunked(alpha), chunked_inplace(alpha);
        chunked.reset(s.start);
        chunked_inplace.reset(s.start);
        buf = in;
        std::size_t pos = 0;
        for (const std::size_t c : random_chunks(n, chunk_rng)) {
          chunked.process(std::span<const float>(in.data() + pos, c),
                          std::span<float>(out.data() + pos, c));
          chunked_inplace.process(std::span<const float>(buf.data() + pos, c),
                                  std::span<float>(buf.data() + pos, c));
          pos += c;
        }
        ASSERT_TRUE(same_pole_bits(ref, out, ref_state, chunked.value()));
        ASSERT_TRUE(
            same_pole_bits(ref, buf, ref_state, chunked_inplace.value()));
        // An ordinary envelope at the default pole meets every time.
        if (s.name == "envelope" && alpha == 0.715 && n >= 1024) {
          EXPECT_GT(whole.parallel_segments(), 0u);
          EXPECT_EQ(whole.serial_fallbacks(), 0u);
        }
      }
    }
  }
}

TEST(BatchEquivalence, Biquad) {
  expect_float_kernel_equivalent(Biquad::lowpass(500.0, 48000.0),
                                 Biquad::lowpass(500.0, 48000.0), 6000, 14);
}

TEST(BatchEquivalence, Agc) {
  expect_float_kernel_equivalent(Agc(1.0f, 0.01f), Agc(1.0f, 0.01f), 6000,
                                 15);
}

TEST(BatchEquivalence, FirFilterF) {
  const auto taps = design_lowpass(0.2, 63);
  expect_float_kernel_equivalent(FirFilterF(taps), FirFilterF(taps), 9000,
                                 16);
}

TEST(BatchEquivalence, SlidingCorrelator) {
  // Long enough to cross the correlator's internal accumulator-refresh
  // boundary (2^15 samples) and several history compactions.
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  expect_float_kernel_equivalent(SlidingCorrelator(pattern, 4),
                                 SlidingCorrelator(pattern, 4), 70000, 17);
}

/// Drives a fresh preamble correlator over `in` in random chunks through
/// `feed(corr, in_chunk, out_chunk)`.
template <typename Feed>
std::vector<float> correlate_chunked(const std::vector<float>& in,
                                     std::uint64_t chunk_seed, Feed feed) {
  SlidingCorrelator corr(phy::chips_to_pattern(phy::default_preamble_chips()),
                         6);
  std::vector<float> out(in.size());
  Rng chunk_rng(chunk_seed);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    feed(corr, std::span<const float>(in.data() + pos, n),
         std::span<float>(out.data() + pos, n));
    pos += n;
  }
  return out;
}

class SlidingCorrelatorTarget : public ::testing::TestWithParam<SimdTarget> {};

TEST_P(SlidingCorrelatorTarget, MatchesScalarReference) {
  // Every dot-kernel target the dispatcher can pick is pinned against
  // the scalar batch reference process_scalar(span) and the per-sample
  // process(x), with the full 34-chip frame preamble (the window the
  // streaming receiver actually runs). The SIMD kernels owe bit-identity
  // to the exact-product theorem (float-valued operands multiply
  // exactly in double, so FMA cannot round differently) plus the pinned
  // 4-partial summation tree. Each target is forced by name, so one
  // binary covers every ISA the host has, whatever the build's -march;
  // chunk sizes differ between drives so block boundaries, history
  // compaction, and the widened-window scratch refill all land at
  // different offsets.
  const auto target = GetParam();
  if (!simd_target_supported(target)) {
    GTEST_SKIP() << simd_target_name(target)
                 << " is not supported on this CPU";
  }
  const std::size_t total = 70000;
  const auto in = random_stream(total, 42);
  SlidingCorrelator by_sample(
      phy::chips_to_pattern(phy::default_preamble_chips()), 6);
  std::vector<float> ref(total);
  for (std::size_t i = 0; i < total; ++i) ref[i] = by_sample.process(in[i]);
  const auto scalar_out = correlate_chunked(
      in, 424242, [](SlidingCorrelator& c, auto x, auto y) {
        c.process_scalar(x, y);
      });
  for (const std::uint64_t chunk_seed : {777u, 31337u}) {
    const auto target_out = correlate_chunked(
        in, chunk_seed, [target](SlidingCorrelator& c, auto x, auto y) {
          detail::correlator_process_on(c, target, x, y);
        });
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(ref[i], scalar_out[i]) << "scalar batch diverged at " << i;
      ASSERT_EQ(scalar_out[i], target_out[i])
          << simd_target_name(target) << " diverged at " << i
          << " (chunk seed " << chunk_seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchEquivalence, SlidingCorrelatorTarget,
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

/// Streams built to stress the box kernel's bound (correlator.hpp): each
/// crosses the 4096-sample block seam and the 2^15-sample refresh.
struct AdversarialStream {
  const char* name;
  std::vector<float> samples;
};

std::vector<AdversarialStream> adversarial_streams() {
  constexpr std::size_t kTotal = 70000;
  Rng rng(2024);
  const auto make = [&](const char* name, auto sample) {
    AdversarialStream s{name, std::vector<float>(kTotal)};
    for (std::size_t i = 0; i < kTotal; ++i) s.samples[i] = sample(i);
    return s;
  };
  std::vector<AdversarialStream> streams;
  // A DC level 10^6 times the swing: under the step pattern below,
  // dot_one's own rounding spans a good share of the output's float
  // spacing here.
  streams.push_back(make("dc_1e6", [&](std::size_t) {
    return 1.0f + 1.0e-6f * ((rng.uniform() < 0.5 ? 1.0f : -1.0f) +
                             0.25f * static_cast<float>(rng.normal()));
  }));
  streams.push_back(make("magnitudes_1e-30_1e30", [&](std::size_t) {
    const double mag = std::pow(10.0, rng.uniform(-30.0, 30.0));
    return static_cast<float>(rng.uniform() < 0.5 ? mag : -mag);
  }));
  streams.push_back(make("negative_and_signed_zero", [&](std::size_t) {
    switch (rng.uniform_int(4)) {
      case 0:
        return 0.0f;
      case 1:
        return -0.0f;
      case 2:
        return -1.0f - static_cast<float>(rng.uniform());
      default:
        return -2.0f + 0.5f * static_cast<float>(rng.normal());
    }
  }));
  // Runs far longer than a window of one value (denom < 1e-12), some of
  // them one ulp off at a single sample, between noisy stretches.
  float level = 0.0f;
  std::size_t run_left = 0;
  streams.push_back(make("constant_windows", [&](std::size_t) {
    if (run_left == 0) {
      constexpr float kLevels[] = {0.0f, 1.0f, 0.1f, 1.0e6f, -3.5f};
      level = kLevels[rng.uniform_int(std::size(kLevels))];
      run_left = 300 + rng.uniform_int(3000);
    }
    --run_left;
    if (run_left % 1000 == 999) return 1.0f + static_cast<float>(rng.normal());
    if (run_left == 500) return std::nextafter(level, 1e30f);
    return level;
  }));
  streams.push_back(make("subnormals", [&](std::size_t) {
    const auto k = static_cast<float>(rng.uniform_int(1u << 20));
    switch (rng.uniform_int(4)) {
      case 0:
        return k * 0x1p-149f;
      case 1:
        return -k * 0x1p-149f;
      case 2:
        return 0x1p-126f * static_cast<float>(rng.uniform());
      default:
        return 0.0f;
    }
  }));
  // Sparse NaN and infinities in noise: each poisons the running sums
  // until the next refresh, and its windows' box dots.
  streams.push_back(make("nan_and_inf", [&](std::size_t i) {
    if (i % 9001 == 4000) return std::numeric_limits<float>::quiet_NaN();
    if (i % 17003 == 100) return std::numeric_limits<float>::infinity();
    if (i % 23011 == 7) return -std::numeric_limits<float>::infinity();
    return 1.0f + 0.1f * static_cast<float>(rng.normal());
  }));
  return streams;
}

/// Correlates `in` in random chunks of `chunk_seed` through `feed` on a
/// fresh correlator for `pattern` at `spc`; returns the outputs and the
/// correlator's recompute count.
template <typename Feed>
std::pair<std::vector<float>, std::uint64_t> correlate_adversarial(
    const std::vector<float>& pattern, std::size_t spc,
    const std::vector<float>& in, std::uint64_t chunk_seed, Feed feed) {
  SlidingCorrelator corr(pattern, spc);
  std::vector<float> out(in.size());
  Rng chunk_rng(chunk_seed);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    feed(corr, std::span<const float>(in.data() + pos, n),
         std::span<float>(out.data() + pos, n));
    pos += n;
  }
  return {out, corr.exact_recomputes()};
}

/// find_sync's pattern and stretch; an odd chip count whose window is
/// not a multiple of four taps (dot_one's sequential tail); and a step
/// (18 chips of +1, then 16 of -1) whose partial sums grow to about
/// W/4 and whose mean-removed taps carry full float mantissas, so that
/// on a DC-dominated window dot_one rounds and the bound must cover it.
std::vector<std::pair<std::vector<float>, std::size_t>> adversarial_patterns() {
  std::vector<float> step(34, 1.0f);
  std::fill(step.begin() + 18, step.end(), -1.0f);
  return {{phy::chips_to_pattern(phy::default_preamble_chips()), 10},
          {phy::chips_to_pattern(phy::barker13_chips()), 3},
          {step, 10}};
}

void expect_same_bits(const std::vector<float>& want,
                      const std::vector<float>& got, const char* what) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << what << " diverged at " << i << ": " << want[i] << " vs "
        << got[i];
  }
}

TEST_P(SlidingCorrelatorTarget, MatchesScalarOnAdversarialStreams) {
  // The box kernel emits its own float only where the interval bound
  // proves it equals dot_one's; everything else is recomputed. Pinned
  // bit for bit (signed zeros included) against process_scalar on
  // every target the host has, with random chunkings.
  const auto target = GetParam();
  if (!simd_target_supported(target)) {
    GTEST_SKIP() << simd_target_name(target)
                 << " is not supported on this CPU";
  }
  for (const auto& [pattern, spc] : adversarial_patterns()) {
    for (const auto& stream : adversarial_streams()) {
      SCOPED_TRACE(std::string(stream.name) + ", window " +
                   std::to_string(pattern.size() * spc));
      const auto ref = correlate_adversarial(
          pattern, spc, stream.samples, 5,
          [](SlidingCorrelator& c, auto x, auto y) { c.process_scalar(x, y); });
      const auto got = correlate_adversarial(
          pattern, spc, stream.samples, 6,
          [target](SlidingCorrelator& c, auto x, auto y) {
            detail::correlator_process_on(c, target, x, y);
          });
      expect_same_bits(ref.first, got.first, simd_target_name(target));
    }
  }
}

TEST(BatchEquivalence, SlidingCorrelatorExactOnlyAdversarial) {
  // The recompute path alone (every live output through dot_one and
  // the normalization) must reproduce process_scalar too.
  for (const auto& [pattern, spc] : adversarial_patterns()) {
    for (const auto& stream : adversarial_streams()) {
      SCOPED_TRACE(stream.name);
      const auto ref = correlate_adversarial(
          pattern, spc, stream.samples, 7,
          [](SlidingCorrelator& c, auto x, auto y) { c.process_scalar(x, y); });
      const auto got = correlate_adversarial(
          pattern, spc, stream.samples, 8,
          [](SlidingCorrelator& c, auto x, auto y) {
            detail::correlator_process_exact_only(c, x, y);
          });
      expect_same_bits(ref.first, got.first, "exact-only");
      // Every window of this stream has a live denominator.
      if (simd_dispatch_target() != SimdTarget::kScalar &&
          std::string(stream.name) == "dc_1e6") {
        EXPECT_EQ(got.second, stream.samples.size() - pattern.size() * spc + 1);
      }
    }
  }
}

TEST(BatchEquivalence, SlidingCorrelatorSimdDispatch) {
  // process(span) runs the widest kernel the CPU has, checked here
  // against the CPU's own feature bits rather than the dispatcher's
  // helpers, and matches the scalar batch reference bit-for-bit.
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
  EXPECT_TRUE(simd_target_supported(best));

  const auto in = random_stream(70000, 42);
  const auto scalar_out = correlate_chunked(
      in, 424242, [](SlidingCorrelator& c, auto x, auto y) {
        c.process_scalar(x, y);
      });
  const auto dispatched_out = correlate_chunked(
      in, 777,
      [](SlidingCorrelator& c, auto x, auto y) { c.process(x, y); });
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(scalar_out[i], dispatched_out[i])
        << "dispatched batch diverged at " << i;
  }
}

TEST(BatchEquivalence, AdaptiveSlicerBatch) {
  // The slicer's batch path swaps the per-chip O(window) min/max rescan
  // for monotonic-deque rolling extremes; window extremes involve no FP
  // accumulation, so decisions, soft values, and threshold state must
  // match decide() exactly — with and without hysteresis, across chunk
  // splits that straddle the window wrap.
  for (const float hysteresis : {0.0f, 0.08f}) {
    phy::SlicerConfig cfg;
    cfg.window_chips = 32;
    cfg.hysteresis = hysteresis;
    phy::AdaptiveSlicer scalar(cfg), batch(cfg);
    const std::size_t total = 4000;
    Rng rng(31 + static_cast<std::uint64_t>(hysteresis * 100));
    std::vector<float> chips(total);
    for (auto& c : chips) {
      const bool on = rng.uniform() < 0.5;
      c = (on ? 1.3f : 1.0f) + 0.05f * static_cast<float>(rng.normal());
    }
    std::vector<std::uint8_t> ref_bits, out_bits;
    std::vector<float> ref_soft, out_soft;
    for (const float c : chips) {
      ref_bits.push_back(scalar.decide(c));
      ref_soft.push_back(scalar.last_soft());
    }
    Rng chunk_rng(55);
    std::size_t pos = 0;
    for (const std::size_t n : random_chunks(total, chunk_rng)) {
      batch.process(std::span<const float>(chips.data() + pos, n), out_bits,
                    &out_soft);
      pos += n;
    }
    ASSERT_EQ(ref_bits.size(), out_bits.size());
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(ref_bits[i], out_bits[i]) << "decision diverged at " << i;
      ASSERT_EQ(ref_soft[i], out_soft[i]) << "soft diverged at " << i;
    }
    ASSERT_EQ(scalar.threshold(), batch.threshold());
  }
}

TEST(BatchEquivalence, SlotGatewayFused) {
  // The fused per-gateway slot kernel must reproduce its per-sample
  // reference exactly: both sum the selected coupling coefficients
  // before the single carrier multiply, so the only question is whether
  // vectorization/alignment perturbs rounding — it must not, including
  // on spans deliberately offset from the allocation base (misaligned
  // relative to any vector width).
  constexpr std::size_t kEntities = 7;
  constexpr std::size_t kSamples = 3001;  // odd on purpose
  Rng rng(91);
  std::vector<cf32> carrier_buf(kSamples + 3);
  for (auto& c : carrier_buf) c = rng.cn(1.0);
  std::vector<std::vector<std::uint8_t>> mask_store(kEntities);
  std::vector<const std::uint8_t*> masks(kEntities);
  std::vector<cf32> c_on(kEntities), c_off(kEntities);
  for (std::size_t e = 0; e < kEntities; ++e) {
    mask_store[e].resize(kSamples + 3);
    for (auto& m : mask_store[e]) {
      m = rng.uniform() < 0.5 ? std::uint8_t{1} : std::uint8_t{0};
    }
    c_on[e] = rng.cn(1e-3);
    c_off[e] = rng.cn(1e-4);
  }
  const cf32 leak = rng.cn(1e-2);
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}}) {
    const std::span<const cf32> carrier(carrier_buf.data() + offset,
                                        kSamples);
    for (std::size_t e = 0; e < kEntities; ++e) {
      masks[e] = mask_store[e].data() + offset;
    }
    std::vector<cf32> scratch(kSamples), fused(kSamples), ref(kSamples);
    sim::WaveformSynthesizer::synthesize_slot_gateway(
        carrier, leak, masks, c_on, c_off, scratch, fused);
    sim::WaveformSynthesizer::synthesize_slot_gateway_reference(
        carrier, leak, masks, c_on, c_off, ref);
    for (std::size_t i = 0; i < kSamples; ++i) {
      ASSERT_EQ(ref[i].real(), fused[i].real())
          << "offset " << offset << " sample " << i;
      ASSERT_EQ(ref[i].imag(), fused[i].imag())
          << "offset " << offset << " sample " << i;
    }
    // Aliasing contract: out may alias carrier.
    std::vector<cf32> in_place(carrier.begin(), carrier.end());
    sim::WaveformSynthesizer::synthesize_slot_gateway(
        in_place, leak, masks, c_on, c_off, scratch, in_place);
    for (std::size_t i = 0; i < kSamples; ++i) {
      ASSERT_EQ(ref[i].real(), in_place[i].real()) << i;
      ASSERT_EQ(ref[i].imag(), in_place[i].imag()) << i;
    }
  }
}

TEST(BatchEquivalence, EnvelopeDetector) {
  EnvelopeDetector scalar(100e3, 2e6), batch(100e3, 2e6);
  const auto in = random_stream_c(6000, 18);
  std::vector<float> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(18);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, SquareLawDetector) {
  SquareLawDetector scalar(100e3, 2e6), batch(100e3, 2e6);
  const auto in = random_stream_c(6000, 19);
  std::vector<float> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(19);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, AgcComplex) {
  Agc scalar(1.0f, 0.01f), batch(1.0f, 0.01f);
  const auto in = random_stream_c(6000, 20);
  std::vector<cf32> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(20);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<cf32>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(ref[i].real(), out[i].real()) << i;
    ASSERT_EQ(ref[i].imag(), out[i].imag()) << i;
  }
}

TEST(BatchEquivalence, FirFilterC) {
  const auto taps = design_lowpass(0.15, 31);
  FirFilterC scalar(taps), batch(taps);
  const auto in = random_stream_c(6000, 21);
  std::vector<cf32> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(21);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<cf32>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(ref[i].real(), out[i].real()) << i;
    ASSERT_EQ(ref[i].imag(), out[i].imag()) << i;
  }
}

TEST(BatchEquivalence, FirFilterCC) {
  Rng tap_rng(22);
  std::vector<cf32> taps(9);
  for (auto& t : taps) t = tap_rng.cn(0.5);
  FirFilterCC scalar(taps), batch(taps);
  const auto in = random_stream_c(6000, 23);
  std::vector<cf32> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(23);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<cf32>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(ref[i].real(), out[i].real()) << i;
    ASSERT_EQ(ref[i].imag(), out[i].imag()) << i;
  }
}

TEST(BatchEquivalence, GoertzelBlocks) {
  const double fs = 8000.0;
  const std::size_t block = 160;
  const std::size_t nblocks = 25;
  Goertzel a(500.0, fs, block), b(500.0, fs, block);
  const auto in = random_stream(block * nblocks, 24);
  std::vector<double> ref(nblocks), out(nblocks);
  for (std::size_t k = 0; k < nblocks; ++k) {
    ref[k] = a.process_block(
        std::span<const float>(in.data() + k * block, block));
  }
  b.process_blocks(in, out);
  for (std::size_t k = 0; k < nblocks; ++k) ASSERT_EQ(ref[k], out[k]);
}

}  // namespace
}  // namespace fdb::dsp
