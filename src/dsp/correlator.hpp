// Sliding correlator for preamble detection on envelope streams.
//
// The pattern is a ±1 chip sequence; incoming envelope samples are
// mean-removed over the correlation window so the detector is invariant
// to the (large, slowly varying) ambient-carrier DC level.
//
// Batch-first: the primary API is process(span, span), which keeps the
// window in a contiguous history buffer (no modulo indexing), tracks
// the window mean and energy incrementally, and computes the pattern
// dots through an output-blocked SIMD kernel. The kernel is chosen once
// per process from what the running CPU supports, not what the build
// targets: on x86-64 the AVX-512F (8-wide) and AVX2+FMA (4-wide) bodies
// are compiled as target-attribute functions into every build, and the
// widest one the host has runs; hosts with neither, and non-x86 builds,
// run process_scalar. process_scalar(span, span) is the bit-exact
// scalar reference the SIMD path is verified against; process(x) is a
// specialized single-sample path over the same arithmetic. All three
// are bit-identical for any chunking of the stream:
//
//   * every float×float product is exact in double (24+24 < 53 bits),
//     so vector FMA ≡ scalar multiply-then-add, and
//   * the dot's summation tree is fixed (four k-mod-4 partial sums
//     combined as (d0+d1)+(d2+d3), then a sequential tail) and each
//     SIMD lane reproduces that tree exactly, one output per lane.
//
// The TU is compiled with -ffp-contract=off so the genuinely
// contraction-sensitive double×double expressions (energy and
// mean-removal folds) round identically in every path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fdb::dsp {

class SlidingCorrelator;

namespace detail {

/// Dot kernels SlidingCorrelator::process(span) can dispatch to.
/// Internal: the equivalence tests force each one; users get the
/// runtime choice.
enum class CorrelatorTarget { kScalar, kAvx2Fma, kAvx512f };

/// "scalar", "avx2+fma" or "avx512f".
const char* correlator_target_name(CorrelatorTarget target);

/// True when the running CPU (and OS) can execute `target`.
bool correlator_target_supported(CorrelatorTarget target);

/// The widest supported target; detected once per process.
CorrelatorTarget correlator_dispatch_target();

/// process(span) on a named target. Throws std::invalid_argument when
/// the host cannot run it.
void correlator_process_on(SlidingCorrelator& corr, CorrelatorTarget target,
                           std::span<const float> in, std::span<float> out);

}  // namespace detail

class SlidingCorrelator {
 public:
  /// `pattern` holds ±1 chips; `samples_per_chip` stretches each chip.
  SlidingCorrelator(std::vector<float> pattern, std::size_t samples_per_chip);

  /// Pushes one envelope sample; returns the normalised correlation in
  /// [-1, 1] once the window has filled (0 before that, including the
  /// samples leading up to — but not — the exact-fill sample).
  /// Specialized single-sample path (no span/loop overhead), same
  /// arithmetic as the batch kernels.
  float process(float x);

  /// Batch kernel: out[i] is the correlation after pushing in[i].
  /// Arbitrary span lengths; state carries across calls, so splitting a
  /// stream into chunks of any size yields bit-identical output. Pattern
  /// dots run through the output-blocked SIMD kernel when the host CPU
  /// provides one (see detail::correlator_dispatch_target).
  void process(std::span<const float> in, std::span<float> out);

  /// Scalar determinism reference: the per-sample loop the SIMD path
  /// must match bit-for-bit (pinned by tests/dsp/batch_equivalence).
  /// Same state machine as process(span, span); only the dot kernel
  /// differs in shape, not in arithmetic.
  void process_scalar(std::span<const float> in, std::span<float> out);

  /// True once the internal window is full and outputs are meaningful.
  bool warmed_up() const { return total_ >= window_len_; }

  std::size_t window_length() const { return window_len_; }
  void reset();

 private:
  friend void detail::correlator_process_on(SlidingCorrelator&,
                                            detail::CorrelatorTarget,
                                            std::span<const float>,
                                            std::span<float>);

  /// process(span) with the dots on `target` (which must be supported):
  /// the three-pass blocked batch loop behind the SIMD targets, or
  /// process_scalar for kScalar.
  void process_blocked(detail::CorrelatorTarget target,
                       std::span<const float> in, std::span<float> out);

  void compact();
  void refresh_sums(const float* window);

  /// Reference pattern dot over one window: four k-mod-4 partial sums
  /// combined (d0+d1)+(d2+d3) plus a sequential tail.
  double dot_one(const float* win) const;

  /// Same summation tree over an already float→double-widened window
  /// (the widening is exact, so the two are bit-identical).
  double dot_one_d(const double* win) const;

  /// Blocked dots over the widened window: dots[j] = dot of the window
  /// starting at first + j, for j in [0, n), with consecutive outputs
  /// mapped to `target`'s SIMD lanes (each lane reproduces dot_one's
  /// tree exactly) and the remainder finished by dot_one_d.
  void dot_block(detail::CorrelatorTarget target, const double* first,
                 std::size_t n, double* dots) const;

  std::vector<float> stretched_;   // pattern expanded & mean-removed
  std::vector<double> pattern_d_;  // same taps widened once for the dot
  double pattern_energy_ = 0.0;
  double pattern_sum_ = 0.0;  // residual DC of the float-rounded pattern
  std::size_t window_len_ = 0;

  // Contiguous history: hist_[cursor_ - (window_len_-1) .. cursor_) holds
  // the most recent window_len_-1 samples; incoming blocks append at
  // cursor_ and the tail is memmoved back to the front only when the
  // buffer runs out (amortised O(1) per sample).
  std::vector<float> hist_;
  std::size_t cursor_ = 0;

  // Per-block scratch for the two-pass batch kernel (bookkeeping pass
  // records mean/denom per output, dot pass fills dots). Lazily sized to
  // the largest block processed so far.
  std::vector<double> mean_buf_;
  std::vector<double> denom_buf_;
  std::vector<double> dot_buf_;
  std::vector<double> win_d_;  // window widened to double once per block

  // Incremental window statistics (doubles: float inputs accumulate
  // exactly enough precision, and a periodic refresh re-derives them
  // from the window at fixed absolute sample counts to kill drift
  // without breaking chunk-size invariance).
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  std::uint64_t total_ = 0;  // samples ever pushed (drives warm-up)
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
