// Sliding correlator for preamble detection on envelope streams.
//
// The pattern is a ±1 chip sequence; incoming envelope samples are
// mean-removed over the correlation window so the detector is invariant
// to the (large, slowly varying) ambient-carrier DC level.
//
// Batch-first: the primary API is process(span, span), which keeps the
// window in a contiguous history buffer (no modulo indexing) and tracks
// the window mean and energy incrementally. process_scalar(span, span)
// is the definition: per output it takes the pattern dot with dot_one()
// (a fixed summation tree over the W = chips × samples_per_chip taps)
// and normalizes it. process(x) is process_scalar over one sample.
// process(span) gives the same bits for any chunking of the
// stream, but reaches most dots another way.
//
// The chip-box kernel. The stretched pattern is constant over each
// chip, so with a per-block offset d the window dot is
//   S = Σ_k x_k p_k = Σ_c p_c · box_c + d · Σ_k p_k,
//   box_c = Σ over chip c's taps of (x_k - d):
// C chip terms over sliding box sums instead of W taps. Its rounding
// differs from dot_one's, so process(span) emits it only where it
// provably yields the same float, and recomputes the rest exactly.
// Exactness (the argument Rng::fill_cn uses):
//   1. Bound. E >= |B - T|, where B is the box kernel's double and T
//      the double dot_one() returns for the same window. T's error
//      against the exact S is at most u' · Σ over dot_one's additions
//      of |exact partial sum| (u' = 2^-53 · (1 + 2^-20) covers the
//      second-order terms for W <= 2^28). Writing x_k = d + y_k, each
//      partial is bounded by |d| · |its taps' sum| + Σ |y_k||p_k| over
//      its taps, so the sum is at most |d| · Q + Σ_k w_k |y_k||p_k|:
//      Q and the weights w_k (how many partials hold tap k) depend only
//      on the pattern and are fixed at construction. B's own rounding
//      (the offset subtraction, the box sums, the chip dot, the offset
//      term) adds the same two shapes, so
//        E = u' · (|d| · Qt + Ymax · Kt),  Ymax = max |x_k - d|
//      over the block, with Qt and Kt computed once per pattern. When
//      every product and exact partial sum of dot_one lies on a grid
//      fine enough to hold it (fixed by the block's smallest |x| and
//      the taps), no addition of dot_one rounds, T = S, and E keeps
//      only B's own terms; an envelope dominated by its DC level is
//      such a block.
//   2. Round both ends. T is a double inside the real interval
//      [B - E, B + E]; rounding is monotone, so T lies in
//      [fl(B - E), fl(B + E)]. The normalization
//        t -> float((t - mean · pattern_sum) / denom)
//      is monotone in t for denom > 0 (each step rounds monotonically),
//      so T's float lies between the floats of the two ends.
//   3. Emit or recompute. When the two ends' floats have the same bits,
//      that float is T's: it is bracketed by them, and its sign is
//      that of T - mean · pattern_sum, which is never -0 (dot_one's
//      sums start at +0). Any output whose ends differ, whose B is not
//      finite, or whose block bound is not finite (an inf or NaN
//      sample) is recomputed with dot_one itself, as process_scalar
//      does; exact_recomputes() counts those.
// The kernel has one AVX2+FMA body, compiled into every x86-64 build
// as a target-attribute function and picked at runtime from the host
// CPU (correlator_kernel_target); it runs on AVX-512F hosts too, where
// an AVX-512F build of the same loops read no faster end to end. Hosts
// without AVX2+FMA, and non-x86 builds, run process_scalar. The TU is compiled with
// -ffp-contract=off so the normalization's double×double steps round
// identically in every path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/simd_target.hpp"

namespace fdb::dsp {

class SlidingCorrelator;

namespace detail {

/// process(span) on a named target: kScalar runs process_scalar, any
/// vector target the chip-box kernel of correlator_kernel_target().
/// Throws std::invalid_argument when the host cannot run `target`.
void correlator_process_on(SlidingCorrelator& corr, SimdTarget target,
                           std::span<const float> in, std::span<float> out);

/// process(span) with the box kernel's acceptance forced off, so every
/// warmed-up output with a live denominator takes the exact recompute.
/// Internal: the equivalence tests pin that path to process_scalar too.
void correlator_process_exact_only(SlidingCorrelator& corr,
                                   std::span<const float> in,
                                   std::span<float> out);

}  // namespace detail

/// The ISA process(span) runs its chip-box kernel on: kAvx2Fma when the
/// host CPU has AVX2 and FMA (AVX-512F hosts included), else kScalar
/// (process_scalar). Detected once per process.
SimdTarget correlator_kernel_target();

class SlidingCorrelator {
 public:
  /// `pattern` holds ±1 chips; `samples_per_chip` stretches each chip.
  /// Throws std::invalid_argument for an empty pattern, a zero
  /// `samples_per_chip`, a chip other than ±1, or a window longer than
  /// 2^28 taps.
  SlidingCorrelator(std::vector<float> pattern, std::size_t samples_per_chip);

  /// Pushes one envelope sample; returns the normalised correlation in
  /// [-1, 1] once the window has filled (0 before that, including the
  /// samples leading up to — but not — the exact-fill sample).
  /// process_scalar over one sample.
  float process(float x);

  /// Batch kernel: out[i] is the correlation after pushing in[i].
  /// Arbitrary span lengths; state carries across calls, so splitting a
  /// stream into chunks of any size yields bit-identical output. Dots
  /// run through the chip-box kernel when the host CPU provides one
  /// (see correlator_kernel_target). Throws std::invalid_argument when the
  /// spans differ in length.
  void process(std::span<const float> in, std::span<float> out);

  /// Scalar determinism reference: the per-sample loop the box kernel
  /// must match bit-for-bit (pinned by tests/dsp/batch_equivalence).
  /// Same state machine as process(span, span). Throws
  /// std::invalid_argument when the spans differ in length.
  void process_scalar(std::span<const float> in, std::span<float> out);

  /// True once the internal window is full and outputs are meaningful.
  bool warmed_up() const { return total_ >= window_len_; }

  std::size_t window_length() const { return window_len_; }

  /// Outputs the box kernel recomputed on dot_one's tree since
  /// construction (its bound could not prove the box value's float).
  /// reset() keeps the count.
  std::uint64_t exact_recomputes() const { return exact_recomputes_; }

  void reset();

 private:
  friend void detail::correlator_process_on(SlidingCorrelator&, SimdTarget,
                                            std::span<const float>,
                                            std::span<float>);
  friend void detail::correlator_process_exact_only(SlidingCorrelator&,
                                                    std::span<const float>,
                                                    std::span<float>);

  /// process(span) with the dots on `target` (which must be supported):
  /// the blocked loop behind the SIMD targets, or process_scalar for
  /// kScalar. `force_exact` recomputes every live output exactly.
  void process_blocked(SimdTarget target, std::span<const float> in,
                       std::span<float> out, bool force_exact);

  void compact();
  void refresh_sums(const float* window);

  std::vector<double> pattern_d_;  // stretched, mean-removed taps
  std::vector<double> chip_taps_;  // one tap per chip (p_c)
  std::size_t samples_per_chip_ = 0;
  double pattern_energy_ = 0.0;
  // Residual DC of the float-rounded pattern (Σ_k p_k, rounded): the
  // mean-removal fold's and the box kernel's d · P term's P.
  double pattern_sum_ = 0.0;
  std::size_t window_len_ = 0;
  // Box-kernel bound E = offset · |d| + spread · Ymax (the u' · Qt and
  // u' · Kt of the header comment); exact_bound_ drops dot_one's own
  // rounding, for blocks where none can occur: every partial of
  // dot_one is at most partial_offset_ · |d| + partial_spread_ · Ymax,
  // and every tap is a multiple of 2^tap_grid_.
  struct BoxBound {
    double offset = 0.0;
    double spread = 0.0;
  };
  BoxBound bound_;
  BoxBound exact_bound_;
  double partial_offset_ = 0.0;
  double partial_spread_ = 0.0;
  int tap_grid_ = 0;

  // Contiguous history: hist_[cursor_ - (window_len_-1) .. cursor_) holds
  // the most recent window_len_-1 samples; incoming blocks append at
  // cursor_ and the tail is memmoved back to the front only when the
  // buffer runs out (amortised O(1) per sample).
  std::vector<float> hist_;
  std::size_t cursor_ = 0;

  // Per-block scratch for the batch kernel (bookkeeping pass records
  // mean/denom per output; box_ holds the block's offset samples, then
  // in place its chip boxes). Lazily sized to the largest block so far,
  // padded so the last lane group loads in bounds.
  std::vector<double> mean_buf_;
  std::vector<double> denom_buf_;
  std::vector<double> box_;

  // Incremental window statistics (doubles: float inputs accumulate
  // exactly enough precision, and a periodic refresh re-derives them
  // from the window at fixed absolute sample counts to kill drift
  // without breaking chunk-size invariance).
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  std::uint64_t total_ = 0;  // samples ever pushed (drives warm-up)
  std::uint64_t exact_recomputes_ = 0;
};

/// Peak picker: reports a detection when the correlation exceeds
/// `threshold` and is a local maximum within `lockout` samples.
class PeakDetector {
 public:
  PeakDetector(float threshold, std::size_t lockout);

  /// Pushes a correlation value. Returns the sample index (counted from
  /// the first process() call) at which a confirmed peak occurred, once
  /// the lockout has elapsed and the peak is finalised.
  std::optional<std::size_t> process(float corr);

  /// Bulk-advances the sample counter by `n` values without examining
  /// them. Only legal while !is_tracking() and when every skipped value
  /// is below threshold — i.e. when process() would have been a no-op
  /// for each. Lets batch callers pre-scan a block's maximum and skip
  /// the per-sample state machine over quiet stretches.
  void skip(std::size_t n);

  /// True while a candidate peak is being tracked (lockout running).
  bool is_tracking() const { return tracking_; }

  void reset();

 private:
  float threshold_;
  std::size_t lockout_;
  std::size_t index_ = 0;
  bool tracking_ = false;
  float best_ = 0.0f;
  std::size_t best_index_ = 0;
  std::size_t since_best_ = 0;
};

}  // namespace fdb::dsp
