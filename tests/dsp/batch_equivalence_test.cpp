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
#include <cstddef>
#include <iterator>
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

class SlidingCorrelatorTarget
    : public ::testing::TestWithParam<detail::CorrelatorTarget> {};

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
  if (!detail::correlator_target_supported(target)) {
    GTEST_SKIP() << detail::correlator_target_name(target)
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
          << detail::correlator_target_name(target) << " diverged at " << i
          << " (chunk seed " << chunk_seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchEquivalence, SlidingCorrelatorTarget,
    ::testing::Values(detail::CorrelatorTarget::kScalar,
                      detail::CorrelatorTarget::kAvx2Fma,
                      detail::CorrelatorTarget::kAvx512f),
    [](const auto& info) {
      switch (info.param) {
        case detail::CorrelatorTarget::kAvx2Fma:
          return std::string("Avx2Fma");
        case detail::CorrelatorTarget::kAvx512f:
          return std::string("Avx512f");
        case detail::CorrelatorTarget::kScalar:
          break;
      }
      return std::string("Scalar");
    });

TEST(BatchEquivalence, SlidingCorrelatorSimdDispatch) {
  // process(span) runs the widest kernel the CPU has, checked here
  // against the CPU's own feature bits rather than the dispatcher's
  // helpers, and matches the scalar batch reference bit-for-bit.
  using detail::CorrelatorTarget;
  CorrelatorTarget best = CorrelatorTarget::kScalar;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    best = CorrelatorTarget::kAvx512f;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    best = CorrelatorTarget::kAvx2Fma;
  }
#endif
  EXPECT_EQ(detail::correlator_dispatch_target(), best)
      << "dispatched " << detail::correlator_target_name(
                              detail::correlator_dispatch_target())
      << ", best supported " << detail::correlator_target_name(best);
  EXPECT_TRUE(detail::correlator_target_supported(best));

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
