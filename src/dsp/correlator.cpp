#include "dsp/correlator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fdb::dsp {
namespace {

using detail::CorrelatorTarget;

// Samples appended per compaction cycle; the history buffer holds
// window_len_-1 + kBlock floats, so the tail memmove amortises to
// (W-1)/kBlock floats per sample.
constexpr std::size_t kBlock = 4096;

// The incremental sum/energy are re-derived from the window whenever
// total_ crosses a multiple of this (power of two). Keyed to the
// absolute sample count so any chunking of the stream refreshes at the
// same instants — chunked and scalar feeding stay bit-identical.
constexpr std::uint64_t kRefreshMask = (1u << 15) - 1;

#if defined(__x86_64__)
// Output-blocked, tap-outer dot kernels over the pre-widened window:
// lane l of a block accumulates the dot of the window starting at
// first + j0 + l. At a fixed tap k the lanes read one contiguous
// unaligned double load first[j0+k .. j0+k+lanes), and every lane
// keeps the scalar reference's four k-mod-4 accumulators plus
// sequential tail. Both factors of every product are float-valued
// doubles (24+24 < 53 bits → the product is exact), so each FMA equals
// multiply-then-add bit-for-bit and the kernels match dot_one()
// exactly. The widest block runs two lane groups per tap so one
// broadcast feeds two FMAs and the FMA latency chains interleave.
//
// Each kernel is compiled for its ISA via the target attribute, so every
// x86-64 build carries both; the runtime dispatch below only calls one
// the CPU supports. Each returns how many leading outputs it wrote; the
// caller finishes the rest with the scalar dot.

__attribute__((target("avx512f"))) std::size_t dot_block_avx512f(
    const double* pat, std::size_t w, const double* first, std::size_t n,
    double* dots) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const double* win = first + j;
    __m512d a0 = _mm512_setzero_pd(), b0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd(), b1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd(), b2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd(), b3 = _mm512_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= w; k += 4) {
      const __m512d p0 = _mm512_set1_pd(pat[k]);
      a0 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k), p0, a0);
      b0 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 8), p0, b0);
      const __m512d p1 = _mm512_set1_pd(pat[k + 1]);
      a1 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 1), p1, a1);
      b1 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 9), p1, b1);
      const __m512d p2 = _mm512_set1_pd(pat[k + 2]);
      a2 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 2), p2, a2);
      b2 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 10), p2, b2);
      const __m512d p3 = _mm512_set1_pd(pat[k + 3]);
      a3 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 3), p3, a3);
      b3 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 11), p3, b3);
    }
    __m512d da = _mm512_add_pd(_mm512_add_pd(a0, a1), _mm512_add_pd(a2, a3));
    __m512d db = _mm512_add_pd(_mm512_add_pd(b0, b1), _mm512_add_pd(b2, b3));
    for (; k < w; ++k) {
      const __m512d p = _mm512_set1_pd(pat[k]);
      da = _mm512_fmadd_pd(_mm512_loadu_pd(win + k), p, da);
      db = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 8), p, db);
    }
    _mm512_storeu_pd(dots + j, da);
    _mm512_storeu_pd(dots + j + 8, db);
  }
  for (; j + 8 <= n; j += 8) {
    const double* win = first + j;
    __m512d d0 = _mm512_setzero_pd();
    __m512d d1 = _mm512_setzero_pd();
    __m512d d2 = _mm512_setzero_pd();
    __m512d d3 = _mm512_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= w; k += 4) {
      d0 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k),
                           _mm512_set1_pd(pat[k]), d0);
      d1 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 1),
                           _mm512_set1_pd(pat[k + 1]), d1);
      d2 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 2),
                           _mm512_set1_pd(pat[k + 2]), d2);
      d3 = _mm512_fmadd_pd(_mm512_loadu_pd(win + k + 3),
                           _mm512_set1_pd(pat[k + 3]), d3);
    }
    __m512d dot = _mm512_add_pd(_mm512_add_pd(d0, d1), _mm512_add_pd(d2, d3));
    for (; k < w; ++k) {
      dot = _mm512_fmadd_pd(_mm512_loadu_pd(win + k),
                            _mm512_set1_pd(pat[k]), dot);
    }
    _mm512_storeu_pd(dots + j, dot);
  }
  return j;
}

__attribute__((target("avx2,fma"))) std::size_t dot_block_avx2_fma(
    const double* pat, std::size_t w, const double* first, std::size_t n,
    double* dots) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const double* win = first + j;
    __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= w; k += 4) {
      const __m256d p0 = _mm256_set1_pd(pat[k]);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k), p0, a0);
      b0 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 4), p0, b0);
      const __m256d p1 = _mm256_set1_pd(pat[k + 1]);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 1), p1, a1);
      b1 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 5), p1, b1);
      const __m256d p2 = _mm256_set1_pd(pat[k + 2]);
      a2 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 2), p2, a2);
      b2 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 6), p2, b2);
      const __m256d p3 = _mm256_set1_pd(pat[k + 3]);
      a3 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 3), p3, a3);
      b3 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 7), p3, b3);
    }
    __m256d da = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
    __m256d db = _mm256_add_pd(_mm256_add_pd(b0, b1), _mm256_add_pd(b2, b3));
    for (; k < w; ++k) {
      const __m256d p = _mm256_set1_pd(pat[k]);
      da = _mm256_fmadd_pd(_mm256_loadu_pd(win + k), p, da);
      db = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 4), p, db);
    }
    _mm256_storeu_pd(dots + j, da);
    _mm256_storeu_pd(dots + j + 4, db);
  }
  for (; j + 4 <= n; j += 4) {
    const double* win = first + j;
    __m256d d0 = _mm256_setzero_pd();
    __m256d d1 = _mm256_setzero_pd();
    __m256d d2 = _mm256_setzero_pd();
    __m256d d3 = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= w; k += 4) {
      d0 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k),
                           _mm256_set1_pd(pat[k]), d0);
      d1 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 1),
                           _mm256_set1_pd(pat[k + 1]), d1);
      d2 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 2),
                           _mm256_set1_pd(pat[k + 2]), d2);
      d3 = _mm256_fmadd_pd(_mm256_loadu_pd(win + k + 3),
                           _mm256_set1_pd(pat[k + 3]), d3);
    }
    __m256d dot = _mm256_add_pd(_mm256_add_pd(d0, d1), _mm256_add_pd(d2, d3));
    for (; k < w; ++k) {
      dot = _mm256_fmadd_pd(_mm256_loadu_pd(win + k),
                            _mm256_set1_pd(pat[k]), dot);
    }
    _mm256_storeu_pd(dots + j, dot);
  }
  return j;
}
#endif  // __x86_64__

CorrelatorTarget detect_target() {
  for (const auto target :
       {CorrelatorTarget::kAvx512f, CorrelatorTarget::kAvx2Fma}) {
    if (detail::correlator_target_supported(target)) return target;
  }
  return CorrelatorTarget::kScalar;
}

}  // namespace

namespace detail {

const char* correlator_target_name(CorrelatorTarget target) {
  switch (target) {
    case CorrelatorTarget::kAvx512f:
      return "avx512f";
    case CorrelatorTarget::kAvx2Fma:
      return "avx2+fma";
    case CorrelatorTarget::kScalar:
      break;
  }
  return "scalar";
}

bool correlator_target_supported(CorrelatorTarget target) {
  switch (target) {
    case CorrelatorTarget::kScalar:
      return true;
#if defined(__x86_64__)
    case CorrelatorTarget::kAvx512f:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
    case CorrelatorTarget::kAvx2Fma:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
    default:
      return false;
  }
}

CorrelatorTarget correlator_dispatch_target() {
  static const CorrelatorTarget target = detect_target();
  return target;
}

void correlator_process_on(SlidingCorrelator& corr, CorrelatorTarget target,
                           std::span<const float> in, std::span<float> out) {
  if (!correlator_target_supported(target)) {
    throw std::invalid_argument(std::string("correlator target ") +
                                correlator_target_name(target) +
                                " is not supported on this CPU");
  }
  corr.process_blocked(target, in, out);
}

}  // namespace detail

SlidingCorrelator::SlidingCorrelator(std::vector<float> pattern,
                                     std::size_t samples_per_chip) {
  assert(!pattern.empty() && samples_per_chip > 0);
  stretched_.reserve(pattern.size() * samples_per_chip);
  for (const float chip : pattern) {
    assert(chip == 1.0f || chip == -1.0f);
    for (std::size_t s = 0; s < samples_per_chip; ++s) {
      stretched_.push_back(chip);
    }
  }
  // Mean-remove the pattern so a perfectly aligned window scores exactly
  // 1.0 even for patterns with nonzero disparity (Barker codes have a
  // small DC component the windowed mean-removal would otherwise lose).
  double mean = 0.0;
  for (const float v : stretched_) mean += v;
  mean /= static_cast<double>(stretched_.size());
  pattern_energy_ = 0.0;
  pattern_sum_ = 0.0;
  for (auto& v : stretched_) {
    v -= static_cast<float>(mean);
    pattern_energy_ += static_cast<double>(v) * v;
    pattern_sum_ += static_cast<double>(v);
  }
  window_len_ = stretched_.size();
  // Widen the taps once: double(float) is exact, so the dot kernels can
  // broadcast-load doubles without changing any product.
  pattern_d_.assign(stretched_.begin(), stretched_.end());
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

double SlidingCorrelator::dot_one(const float* win) const {
  // Four independent partial sums break the sequential FP chain so the
  // loop vectorizes under strict FP math; the combine order is fixed,
  // keeping results deterministic — and it is the exact summation tree
  // every lane of the blocked SIMD kernel reproduces.
  const double* pat = pattern_d_.data();
  const std::size_t w = window_len_;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= w; k += 4) {
    d0 += static_cast<double>(win[k]) * pat[k];
    d1 += static_cast<double>(win[k + 1]) * pat[k + 1];
    d2 += static_cast<double>(win[k + 2]) * pat[k + 2];
    d3 += static_cast<double>(win[k + 3]) * pat[k + 3];
  }
  double dot = (d0 + d1) + (d2 + d3);
  for (; k < w; ++k) {
    dot += static_cast<double>(win[k]) * pat[k];
  }
  return dot;
}

double SlidingCorrelator::dot_one_d(const double* win) const {
  // Widened-window twin of dot_one: win[k] is float-valued (the
  // widening is exact), so every product and the whole tree are
  // bit-identical to the float version.
  const double* pat = pattern_d_.data();
  const std::size_t w = window_len_;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= w; k += 4) {
    d0 += win[k] * pat[k];
    d1 += win[k + 1] * pat[k + 1];
    d2 += win[k + 2] * pat[k + 2];
    d3 += win[k + 3] * pat[k + 3];
  }
  double dot = (d0 + d1) + (d2 + d3);
  for (; k < w; ++k) {
    dot += win[k] * pat[k];
  }
  return dot;
}

void SlidingCorrelator::dot_block(CorrelatorTarget target, const double* first,
                                  std::size_t n, double* dots) const {
  std::size_t j = 0;
#if defined(__x86_64__)
  if (target == CorrelatorTarget::kAvx512f) {
    j = dot_block_avx512f(pattern_d_.data(), window_len_, first, n, dots);
  } else if (target == CorrelatorTarget::kAvx2Fma) {
    j = dot_block_avx2_fma(pattern_d_.data(), window_len_, first, n, dots);
  }
#else
  (void)target;
#endif
  for (; j < n; ++j) dots[j] = dot_one_d(first + j);
}

void SlidingCorrelator::process(std::span<const float> in,
                                std::span<float> out) {
  // One dispatch path for every build: the target is the host CPU's
  // widest supported kernel, not the compiler's -march.
  process_blocked(detail::correlator_dispatch_target(), in, out);
}

void SlidingCorrelator::process_blocked(CorrelatorTarget target,
                                        std::span<const float> in,
                                        std::span<float> out) {
  // Without a vector ISA the blocked restructure is pure overhead (the
  // dots fall back to dot_one anyway); the single-pass scalar loop is
  // the faster — and definitionally bit-identical — path.
  if (target == CorrelatorTarget::kScalar) {
    process_scalar(in, out);
    return;
  }
  // Three passes per block, each matching the scalar reference's
  // per-sample op order exactly — the dot is a pure function of the
  // window, so deferring it past the bookkeeping changes nothing:
  //   1. bookkeeping: running sum/energy, refresh, per-output mean/denom
  //   2. blocked pattern dots for the warmed-up suffix
  //   3. elementwise normalisation into out
  assert(in.size() == out.size());
  const std::size_t w = window_len_;
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
    if (mean_buf_.size() < take) {
      mean_buf_.resize(take);
      denom_buf_.resize(take);
      dot_buf_.resize(take);
      win_d_.resize(take + w - 1);
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
    if (warm < take) {
      // Widen the touched window range to double once (exact), so the
      // blocked kernel's inner loop is pure load+broadcast+FMA instead
      // of converting every sample once per tap it participates in.
      const std::size_t span = (take - warm) + w - 1;
      const float* src = base + warm;
      for (std::size_t i = 0; i < span; ++i) {
        win_d_[i] = static_cast<double>(src[i]);
      }
      dot_block(target, win_d_.data(), take - warm, dot_buf_.data());
    }
    for (std::size_t i = 0; i < warm; ++i) o[i] = 0.0f;
    for (std::size_t i = warm; i < take; ++i) {
      const double denom = denom_buf_[i];
      if (denom >= 1e-12) {
        // Mean removal folds into the dot product: with p already
        // (almost) zero-mean, sum((v-mean)*p) = sum(v*p) - mean*sum(p).
        const double dot = dot_buf_[i - warm] - mean_buf_[i] * pattern_sum_;
        o[i] = static_cast<float>(dot / denom);
      } else {
        o[i] = 0.0f;
      }
    }
    cursor_ += take;
    done += take;
  }
}

void SlidingCorrelator::process_scalar(std::span<const float> in,
                                       std::span<float> out) {
  assert(in.size() == out.size());
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
          const double dot = dot_one(base + i) - mean * pattern_sum_;
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
  // Single-sample specialization of the batch loop (take == 1): same
  // expressions in the same order, minus the span/block machinery, so
  // the per-sample API stays within a few percent of the batch scalar
  // path while remaining bit-identical to it. A true staging buffer is
  // impossible here — each call must return its correlation
  // synchronously — so the win comes from specialization instead.
  const std::size_t w = window_len_;
  if (cursor_ >= hist_.size()) compact();
  hist_[cursor_] = x;
  const float* base = hist_.data() + cursor_ - (w - 1);
  const double xd = x;
  sum_ += xd;
  sumsq_ += xd * xd;
  ++total_;
  float corr = 0.0f;
  if (total_ >= w) {
    if ((total_ & kRefreshMask) == 0) refresh_sums(base);
    const double mean = sum_ * (1.0 / static_cast<double>(w));
    double energy = sumsq_ - sum_ * mean;
    if (energy < 0.0) energy = 0.0;
    const double denom = std::sqrt(energy * pattern_energy_);
    if (denom >= 1e-12) {
      const double dot = dot_one(base) - mean * pattern_sum_;
      corr = static_cast<float>(dot / denom);
    }
  }
  const double oldest = base[0];
  sum_ -= oldest;
  sumsq_ -= oldest * oldest;
  ++cursor_;
  return corr;
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
