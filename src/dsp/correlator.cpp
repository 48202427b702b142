#include "dsp/correlator.hpp"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fdb::dsp {
namespace {

// Samples appended per compaction cycle; the history buffer holds
// window_len_-1 + kBlock floats, so the tail memmove amortises to
// (W-1)/kBlock floats per sample.
constexpr std::size_t kBlock = 4096;

// The incremental sum/energy are re-derived from the window whenever
// total_ crosses a multiple of this (power of two). Keyed to the
// absolute sample count so any chunking of the stream refreshes at the
// same instants — chunked and scalar feeding stay bit-identical.
constexpr std::uint64_t kRefreshMask = (1u << 15) - 1;

// Longest window the box kernel's bound covers: the second-order terms
// of the header's argument stay below u · 2^-20 up to here.
constexpr std::size_t kMaxWindow = std::size_t{1} << 28;

// Lanes of a box-kernel group. Per-output scratch is padded by this
// much so the last, partial group loads in bounds; its extra lanes are
// computed and dropped.
constexpr std::size_t kPad = 4;

void check_spans(std::span<const float> in, std::span<float> out) {
  if (in.size() != out.size()) {
    throw std::invalid_argument(
        "SlidingCorrelator: input and output spans differ in length (" +
        std::to_string(in.size()) + " vs " + std::to_string(out.size()) +
        ")");
  }
}

/// Reference pattern dot over the window at `win`: four k-mod-4
/// partial sums combined (d0+d1)+(d2+d3) plus a sequential tail. Four
/// independent partials break the sequential FP chain so the loop
/// vectorizes under strict FP math; the combine order is fixed, keeping
/// results deterministic. The box kernel's bound is derived for exactly
/// this tree (tree_partials mirrors it).
double dot_one(const float* win, const double* taps, std::size_t w) {
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= w; k += 4) {
    d0 += static_cast<double>(win[k]) * taps[k];
    d1 += static_cast<double>(win[k + 1]) * taps[k + 1];
    d2 += static_cast<double>(win[k + 2]) * taps[k + 2];
    d3 += static_cast<double>(win[k + 3]) * taps[k + 3];
  }
  double dot = (d0 + d1) + (d2 + d3);
  for (; k < w; ++k) {
    dot += static_cast<double>(win[k]) * taps[k];
  }
  return dot;
}

/// The partial sums of dot_one's tree (four k-mod-4 partials,
/// (d0+d1)+(d2+d3), sequential tail) run over f(p_k): the sum and the
/// largest of their magnitudes. f = identity gives Q and max_a |P_a|,
/// f = |·| gives Σ_k w_k |p_k| and Σ_k |p_k|.
struct TreePartials {
  double sum = 0.0;
  double max = 0.0;
};

template <typename F>
TreePartials tree_partials(const std::vector<double>& p, F f) {
  const std::size_t w = p.size();
  double part[4] = {0.0, 0.0, 0.0, 0.0};
  TreePartials t;
  const auto add = [&t](double partial) {
    t.sum += std::abs(partial);
    t.max = std::max(t.max, std::abs(partial));
  };
  std::size_t k = 0;
  for (; k + 4 <= w; k += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      part[j] += f(p[k + j]);
      add(part[j]);
    }
  }
  const double lo = part[0] + part[1];
  const double hi = part[2] + part[3];
  double dot = lo + hi;
  add(lo);
  add(hi);
  add(dot);
  for (; k < w; ++k) {
    dot += f(p[k]);
    add(dot);
  }
  return t;
}

/// Exponent of the grid a nonzero float x lies on (x is a multiple of
/// 2^grid_exponent(x), and so is every float of larger magnitude).
int grid_exponent(double x) { return std::max(std::ilogb(x), -126) - 23; }

#if defined(__x86_64__)
constexpr double kInf = std::numeric_limits<double>::infinity();

struct BoxStats {
  double ymax;  // max |x - d| over the block's samples
  double xmin;  // min |x|
};

// One block of box-kernel outputs: output r (r < n) is the correlation
// of the window whose chip c box is box[r + c·spc].
struct BoxBlock {
  const double* box;
  const double* chip;  // p_c
  std::size_t chips;
  std::size_t spc;
  const double* mean;   // window mean per output
  const double* denom;  // normalization per output
  double offset_dot;    // fl(d · P)
  double bound;         // E, or +inf to recompute every live output
  double pattern_sum;
  float* out;
  std::size_t n;
  const float* windows;  // output r's window starts at windows + r
  const double* taps;    // the W stretched taps, for the recompute
  std::size_t w;
};

/// Overwrites the fast-path floats of the lanes set in `redo` of the
/// group at output i with process_scalar's: dot_one, then the same
/// normalization. Returns how many it recomputed.
unsigned recompute_lanes(const BoxBlock& b, std::size_t i, unsigned redo) {
  unsigned count = 0;
  for (; redo != 0; redo &= redo - 1, ++count) {
    const std::size_t j = i + static_cast<std::size_t>(__builtin_ctz(redo));
    const double dot =
        dot_one(b.windows + j, b.taps, b.w) - b.mean[j] * b.pattern_sum;
    b.out[j] = static_cast<float>(dot / b.denom[j]);
  }
  return count;
}

// The kernel has one body, AVX2+FMA, which also runs on AVX-512F
// hosts: an AVX-512F build of the same loops timed no faster end to end.
//
// Box sums: writes y_t = x_t - d for t < m into box, then in
// place box[t] = Σ_{j<spc} y_{t+j} for t <= m - spc (ascending groups
// read only entries no earlier group has overwritten). Returns
// max_t |y_t| and min_t |x_t|; NaN samples are skipped (max and min
// keep their second operand), which is safe because every window
// holding one has a NaN B and recomputes.
//
// Chip dots: G lane groups at a time, each with two chains
// (even and odd chips) so the FMA latency overlaps. Each group then
// maps both interval ends through the normalization, keeps the low
// end's float where the denominator is live, and recomputes every live
// lane whose two floats differ in bits (or whose B is not finite). Each
// returns how many outputs it recomputed.

__attribute__((target("avx2,fma"))) BoxStats box_sums_avx2_fma(
    const float* x, std::size_t m, std::size_t spc, double d, double* box) {
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  __m256d vmin = _mm256_set1_pd(kInf);
  std::size_t t = 0;
  for (; t + 4 <= m; t += 4) {
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + t));
    const __m256d y = _mm256_sub_pd(xv, vd);
    _mm256_storeu_pd(box + t, y);
    vmax = _mm256_max_pd(_mm256_andnot_pd(sign, y), vmax);
    vmin = _mm256_min_pd(_mm256_andnot_pd(sign, xv), vmin);
  }
  alignas(32) double hi[4], lo[4];
  _mm256_store_pd(hi, vmax);
  _mm256_store_pd(lo, vmin);
  BoxStats st{*std::max_element(hi, hi + 4), *std::min_element(lo, lo + 4)};
  for (; t < m; ++t) {
    box[t] = static_cast<double>(x[t]) - d;
    st.ymax = std::max(st.ymax, std::abs(box[t]));
    st.xmin = std::min(st.xmin, std::abs(static_cast<double>(x[t])));
  }
  const std::size_t boxes = m - spc + 1;
  t = 0;
  for (; t + 4 <= boxes; t += 4) {
    __m256d acc = _mm256_loadu_pd(box + t);
    for (std::size_t j = 1; j < spc; ++j) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(box + t + j));
    }
    _mm256_storeu_pd(box + t, acc);
  }
  for (; t < boxes; ++t) {
    double acc = box[t];
    for (std::size_t j = 1; j < spc; ++j) acc += box[t + j];
    box[t] = acc;
  }
  return st;
}

template <int G>
__attribute__((target("avx2,fma"), always_inline)) inline void
box_groups_avx2_fma(const BoxBlock& b, std::size_t r, std::uint64_t& redone) {
  __m256d acc[G][2];
  for (int g = 0; g < G; ++g) {
    acc[g][0] = _mm256_setzero_pd();
    acc[g][1] = _mm256_setzero_pd();
  }
  const double* at = b.box + r;
  std::size_t c = 0;
  for (; c + 2 <= b.chips; c += 2, at += 2 * b.spc) {
    const __m256d p0 = _mm256_set1_pd(b.chip[c]);
    const __m256d p1 = _mm256_set1_pd(b.chip[c + 1]);
    for (int g = 0; g < G; ++g) {
      acc[g][0] = _mm256_fmadd_pd(p0, _mm256_loadu_pd(at + 4 * g), acc[g][0]);
      acc[g][1] = _mm256_fmadd_pd(
          p1, _mm256_loadu_pd(at + b.spc + 4 * g), acc[g][1]);
    }
  }
  if (c < b.chips) {
    const __m256d p0 = _mm256_set1_pd(b.chip[c]);
    for (int g = 0; g < G; ++g) {
      acc[g][0] = _mm256_fmadd_pd(p0, _mm256_loadu_pd(at + 4 * g), acc[g][0]);
    }
  }
  const __m256d offset = _mm256_set1_pd(b.offset_dot);
  const __m256d bound = _mm256_set1_pd(b.bound);
  const __m256d psum = _mm256_set1_pd(b.pattern_sum);
  const __m256d floor = _mm256_set1_pd(1e-12);
  const __m256d big = _mm256_set1_pd(DBL_MAX);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (int g = 0; g < G; ++g) {
    const std::size_t i = r + 4 * g;
    const __m256d dot =
        _mm256_add_pd(_mm256_add_pd(acc[g][0], acc[g][1]), offset);
    const __m256d mps = _mm256_mul_pd(_mm256_loadu_pd(b.mean + i), psum);
    const __m256d den = _mm256_loadu_pd(b.denom + i);
    const __m256d lo =
        _mm256_div_pd(_mm256_sub_pd(_mm256_sub_pd(dot, bound), mps), den);
    const __m256d hi =
        _mm256_div_pd(_mm256_sub_pd(_mm256_add_pd(dot, bound), mps), den);
    const __m256d live = _mm256_cmp_pd(den, floor, _CMP_GE_OQ);
    const __m256d finite =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, dot), big, _CMP_LE_OQ);
    const __m128 f_lo = _mm256_cvtpd_ps(_mm256_and_pd(live, lo));
    const __m128 f_hi = _mm256_cvtpd_ps(hi);
    const auto same = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
        _mm_cmpeq_epi32(_mm_castps_si128(f_lo), _mm_castps_si128(f_hi)))));
    unsigned redo = static_cast<unsigned>(_mm256_movemask_pd(live)) &
                    ~(same & static_cast<unsigned>(_mm256_movemask_pd(finite)));
    if (i + 4 <= b.n) {
      _mm_storeu_ps(b.out + i, f_lo);
    } else {
      alignas(16) float lanes[4];
      _mm_store_ps(lanes, f_lo);
      std::copy_n(lanes, b.n - i, b.out + i);
      redo &= (1u << (b.n - i)) - 1;
    }
    if (redo != 0) redone += recompute_lanes(b, i, redo);
  }
}

__attribute__((target("avx2,fma"))) std::uint64_t box_dots_avx2_fma(
    const BoxBlock& b) {
  std::uint64_t redone = 0;
  std::size_t r = 0;
  for (; r + 16 <= b.n; r += 16) box_groups_avx2_fma<4>(b, r, redone);
  for (; r < b.n; r += 4) box_groups_avx2_fma<1>(b, r, redone);
  return redone;
}
#endif  // __x86_64__

}  // namespace

namespace detail {

void correlator_process_on(SlidingCorrelator& corr, SimdTarget target,
                           std::span<const float> in, std::span<float> out) {
  if (!simd_target_supported(target)) {
    throw std::invalid_argument(std::string("correlator target ") +
                                simd_target_name(target) +
                                " is not supported on this CPU");
  }
  // Every vector target runs the one AVX2+FMA body.
  corr.process_blocked(
      target == SimdTarget::kScalar ? target : correlator_kernel_target(), in,
      out, false);
}

void correlator_process_exact_only(SlidingCorrelator& corr,
                                   std::span<const float> in,
                                   std::span<float> out) {
  corr.process_blocked(correlator_kernel_target(), in, out, true);
}

}  // namespace detail

SimdTarget correlator_kernel_target() {
  static const SimdTarget target =
      simd_target_supported(SimdTarget::kAvx2Fma) ? SimdTarget::kAvx2Fma
                                                  : SimdTarget::kScalar;
  return target;
}

SlidingCorrelator::SlidingCorrelator(std::vector<float> pattern,
                                     std::size_t samples_per_chip)
    : samples_per_chip_(samples_per_chip) {
  if (pattern.empty()) {
    throw std::invalid_argument("SlidingCorrelator: empty pattern");
  }
  if (samples_per_chip == 0) {
    throw std::invalid_argument(
        "SlidingCorrelator: samples_per_chip must be positive");
  }
  if (samples_per_chip > kMaxWindow / pattern.size()) {
    throw std::invalid_argument(
        "SlidingCorrelator: window longer than 2^28 taps");
  }
  std::vector<float> stretched;
  stretched.reserve(pattern.size() * samples_per_chip);
  for (const float chip : pattern) {
    if (chip != 1.0f && chip != -1.0f) {
      throw std::invalid_argument("SlidingCorrelator: chips must be +1 or -1");
    }
    stretched.insert(stretched.end(), samples_per_chip, chip);
  }
  // Mean-remove the pattern so a perfectly aligned window scores exactly
  // 1.0 even for patterns with nonzero disparity (Barker codes have a
  // small DC component the windowed mean-removal would otherwise lose).
  double mean = 0.0;
  for (const float v : stretched) mean += v;
  mean /= static_cast<double>(stretched.size());
  pattern_energy_ = 0.0;
  pattern_sum_ = 0.0;
  for (auto& v : stretched) {
    v -= static_cast<float>(mean);
    pattern_energy_ += static_cast<double>(v) * v;
    pattern_sum_ += static_cast<double>(v);
  }
  window_len_ = stretched.size();
  // Widen the taps once: double(float) is exact, so every product in
  // dot_one is the exact float×float product.
  pattern_d_.assign(stretched.begin(), stretched.end());
  for (std::size_t c = 0; c < pattern.size(); ++c) {
    chip_taps_.push_back(pattern_d_[c * samples_per_chip]);
  }

  // The box-kernel bound's constants (header comment, step 1). With
  // W taps, C chips, s samples per chip, u = 2^-53:
  //   |T - S| <= u' (|d| Q + Ymax Σ_k w_k |p_k|), Q and Σ_k w_k |p_k|
  //     from tree_partials over the taps;
  //   |B - S| <= u' (Ymax s Pabs (s + C + 2) + |d| (2 |P| + eP / u)),
  //     Pabs = Σ_c |p_c|: the offset subtraction and the box sums put
  //     at most u' s² Ymax on each box, the chip dot (C FMAs and one
  //     combine) u' (C + 1) s Pabs Ymax, the offset term and the final
  //     add u' (s Pabs Ymax + 2 |d| |P|). P = Σ_k p_k is summed with
  //     TwoSum so eP (the sum of its exact rounding errors, 0 for every
  //     realistic pattern) bounds |P - fl(P)|.
  // The W³ 2^-50 term covers the rounding of the taps' own partial
  // sums, and the (1 + 2^-20) factor the second-order terms, the
  // rounding of the constants and of E's own operations, for W <= 2^28.
  //
  // T = S exactly when no addition of dot_one rounds: every product
  // x_k p_k is a multiple of 2^(gx + gp), gx and gp the grids of the
  // block's smallest |x| and of the taps, and so is every exact
  // partial; a partial of magnitude at most 2^(53 + gx + gp) is then a
  // double, so by induction each addition returns it exactly. Each
  // partial is at most |d| max_a |P_a| + Ymax Σ_k |p_k| (tree_partials'
  // maxima). Blocks that pass this test (an envelope dominated by its
  // DC level, the common case, does) drop |T - S| from E.
  const double w = static_cast<double>(window_len_);
  const double spc = static_cast<double>(samples_per_chip);
  const double chips = static_cast<double>(pattern.size());
  // pattern_sum_ again (same terms, same order) with TwoSum's exact
  // rounding errors.
  double psum = 0.0, psum_err = 0.0;
  for (const double p : pattern_d_) {
    const double t = psum + p;
    const double pp = t - psum;
    psum_err += std::abs((psum - (t - pp)) + (p - pp));
    psum = t;
  }
  assert(psum == pattern_sum_);
  double chip_abs = 0.0;
  tap_grid_ = 0;
  for (const double p : chip_taps_) {
    chip_abs += std::abs(p);
    if (p != 0.0) tap_grid_ = std::min(tap_grid_, grid_exponent(p));
  }
  const auto signed_partials =
      tree_partials(pattern_d_, [](double p) { return p; });
  const auto abs_partials =
      tree_partials(pattern_d_, [](double p) { return std::abs(p); });
  constexpr double kMargin = 1.0 + 0x1p-20;
  constexpr double kScale = 0x1p-53 * kMargin;
  const double slack = w * w * w * 0x1p-50;
  const double box_offset = 2.0 * std::abs(pattern_sum_) + psum_err * 0x1p53;
  const double box_spread = spc * chip_abs * (spc + chips + 3.0);
  exact_bound_ = {kScale * box_offset, kScale * box_spread};
  bound_ = {kScale * (signed_partials.sum + slack + box_offset),
            kScale * (abs_partials.sum + box_spread)};
  partial_offset_ = kMargin * (signed_partials.max + slack);
  partial_spread_ = kMargin * kMargin * abs_partials.max;

  hist_.assign(window_len_ - 1 + kBlock, 0.0f);
  cursor_ = window_len_ - 1;
}

void SlidingCorrelator::compact() {
  // Move the live history (last W-1 samples) back to the buffer front.
  std::memmove(hist_.data(), hist_.data() + cursor_ - (window_len_ - 1),
               (window_len_ - 1) * sizeof(float));
  cursor_ = window_len_ - 1;
}

void SlidingCorrelator::refresh_sums(const float* window) {
  // Re-derive the running sums from the current window; called at fixed
  // absolute sample counts so it is invariant to chunk boundaries.
  double s = 0.0, s2 = 0.0;
  for (std::size_t k = 0; k < window_len_; ++k) {
    const double v = window[k];
    s += v;
    s2 += v * v;
  }
  sum_ = s;
  sumsq_ = s2;
}

void SlidingCorrelator::process(std::span<const float> in,
                                std::span<float> out) {
  // One dispatch path for every build: the kernel is picked from the
  // host CPU, not the compiler's -march.
  process_blocked(correlator_kernel_target(), in, out, false);
}

void SlidingCorrelator::process_blocked(SimdTarget target,
                                        std::span<const float> in,
                                        std::span<float> out,
                                        bool force_exact) {
#if defined(__x86_64__)
  // Without AVX2+FMA the blocked restructure is pure overhead; the
  // single-pass scalar loop is the faster — and definitionally
  // bit-identical — path.
  if (target == SimdTarget::kScalar) {
    process_scalar(in, out);
    return;
  }
  check_spans(in, out);
  // Three passes per block:
  //   1. bookkeeping: running sum/energy, refresh, per-output mean/denom
  //      (the scalar reference's per-sample op order exactly);
  //   2. box sums of the block's samples less the offset d;
  //   3. chip dots, normalization of both bound ends, and the exact
  //      recompute of every output the bound cannot settle.
  const std::size_t w = window_len_;
  const std::size_t spc = samples_per_chip_;
  const double inv_w = 1.0 / static_cast<double>(w);
  std::size_t done = 0;
  while (done < in.size()) {
    if (cursor_ >= hist_.size()) compact();
    const std::size_t take =
        std::min(in.size() - done, hist_.size() - cursor_);
    std::copy_n(in.data() + done, take, hist_.data() + cursor_);
    // base[i .. i+w-1] is the window ending at chunk sample i.
    const float* base = hist_.data() + cursor_ - (w - 1);
    float* o = out.data() + done;
    if (mean_buf_.size() < take + kPad) {
      mean_buf_.resize(take + kPad);
      denom_buf_.resize(take + kPad);
      box_.resize(take + w - 1 + kPad);
    }
    std::size_t warm = take;  // first output with a full window
    for (std::size_t i = 0; i < take; ++i) {
      const double x = base[w - 1 + i];
      sum_ += x;
      sumsq_ += x * x;
      ++total_;
      if (total_ >= w) {
        if (warm == take) warm = i;
        if ((total_ & kRefreshMask) == 0) refresh_sums(base + i);
        const double mean = sum_ * inv_w;
        double energy = sumsq_ - sum_ * mean;
        if (energy < 0.0) energy = 0.0;
        mean_buf_[i] = mean;
        denom_buf_[i] = std::sqrt(energy * pattern_energy_);
      }
      const double oldest = base[i];
      sum_ -= oldest;
      sumsq_ -= oldest * oldest;
    }
    std::fill_n(o, warm, 0.0f);
    if (warm < take) {
      const std::size_t n = take - warm;
      // The offset: the first window's mean, rounded to float, so x - d
      // is exact whenever the two exponents differ by at most 28 (every
      // sample of a DC-dominated block).
      float d = static_cast<float>(mean_buf_[warm]);
      if (!std::isfinite(d)) d = 0.0f;
      const BoxStats st =
          box_sums_avx2_fma(base + warm, n + w - 1, spc, d, box_.data());
      const double dmag = std::abs(static_cast<double>(d));
      const bool exact_dot =
          st.xmin > 0.0 && st.xmin <= DBL_MAX &&
          partial_offset_ * dmag + partial_spread_ * st.ymax <=
              std::ldexp(1.0, 53 + grid_exponent(st.xmin) + tap_grid_);
      const BoxBound& e = exact_dot ? exact_bound_ : bound_;
      double bound = e.offset * dmag + e.spread * st.ymax;
      if (force_exact || !(bound <= DBL_MAX)) {
        bound = std::numeric_limits<double>::infinity();
      }
      const BoxBlock block{box_.data(),
                           chip_taps_.data(),
                           chip_taps_.size(),
                           spc,
                           mean_buf_.data() + warm,
                           denom_buf_.data() + warm,
                           static_cast<double>(d) * pattern_sum_,
                           bound,
                           pattern_sum_,
                           o + warm,
                           n,
                           base + warm,
                           pattern_d_.data(),
                           w};
      exact_recomputes_ += box_dots_avx2_fma(block);
    }
    cursor_ += take;
    done += take;
  }
#else
  // Only kScalar is supported off x86-64.
  (void)target;
  (void)force_exact;
  process_scalar(in, out);
#endif
}

void SlidingCorrelator::process_scalar(std::span<const float> in,
                                       std::span<float> out) {
  check_spans(in, out);
  const std::size_t w = window_len_;
  const double inv_w = 1.0 / static_cast<double>(w);
  std::size_t done = 0;
  while (done < in.size()) {
    if (cursor_ >= hist_.size()) compact();
    const std::size_t take =
        std::min(in.size() - done, hist_.size() - cursor_);
    std::copy_n(in.data() + done, take, hist_.data() + cursor_);
    const float* base = hist_.data() + cursor_ - (w - 1);
    float* o = out.data() + done;
    for (std::size_t i = 0; i < take; ++i) {
      const double x = base[w - 1 + i];
      sum_ += x;
      sumsq_ += x * x;
      ++total_;
      float corr = 0.0f;
      if (total_ >= w) {
        if ((total_ & kRefreshMask) == 0) refresh_sums(base + i);
        const double mean = sum_ * inv_w;
        double energy = sumsq_ - sum_ * mean;
        if (energy < 0.0) energy = 0.0;
        const double denom = std::sqrt(energy * pattern_energy_);
        if (denom >= 1e-12) {
          const double dot =
              dot_one(base + i, pattern_d_.data(), w) - mean * pattern_sum_;
          corr = static_cast<float>(dot / denom);
        }
      }
      o[i] = corr;
      const double oldest = base[i];
      sum_ -= oldest;
      sumsq_ -= oldest * oldest;
    }
    cursor_ += take;
    done += take;
  }
}

float SlidingCorrelator::process(float x) {
  float y = 0.0f;
  process_scalar(std::span<const float>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void SlidingCorrelator::reset() {
  std::fill(hist_.begin(), hist_.end(), 0.0f);
  cursor_ = window_len_ - 1;
  sum_ = 0.0;
  sumsq_ = 0.0;
  total_ = 0;
}

PeakDetector::PeakDetector(float threshold, std::size_t lockout)
    : threshold_(threshold), lockout_(lockout) {
  assert(lockout > 0);
}

std::optional<std::size_t> PeakDetector::process(float corr) {
  const std::size_t current = index_++;
  if (!tracking_) {
    if (corr >= threshold_) {
      tracking_ = true;
      best_ = corr;
      best_index_ = current;
      since_best_ = 0;
    }
    return std::nullopt;
  }
  if (corr > best_) {
    best_ = corr;
    best_index_ = current;
    since_best_ = 0;
    return std::nullopt;
  }
  if (++since_best_ >= lockout_) {
    tracking_ = false;
    return best_index_;
  }
  return std::nullopt;
}

void PeakDetector::skip(std::size_t n) {
  assert(!tracking_);
  index_ += n;
}

void PeakDetector::reset() {
  index_ = 0;
  tracking_ = false;
  best_ = 0.0f;
  best_index_ = 0;
  since_best_ = 0;
}

}  // namespace fdb::dsp
