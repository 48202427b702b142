// Streaming receiver: continuous decoding of an unbounded envelope
// stream, frame after frame. Where BackscatterRx assumes one burst per
// capture, StreamingReceiver runs a search->decode state machine with
// bounded memory, suitable for live operation behind an envelope
// detector (dsp::EnvelopeDetector).
//
// Batch receive path: process(span) appends each chunk to a contiguous
// history buffer once, then drains the buffered samples through the
// state machine with a rewindable scan cursor — the correlator's batch
// kernel runs over whole sub-spans (no per-sample virtual dispatch, no
// deque churn), and the demodulator gets a zero-copy span of that same
// buffer when a frame completes. Because the correlator is chunk-size
// invariant and all trim decisions are made against absolute stream
// positions, any chunking of the input produces bit-identical frames.
//
// Resync hardening: when a candidate frame fails to decode (header
// undecodable, header CRC mismatch, payload CRC failure), the scan
// cursor rewinds to one sample past the failed sync instead of
// discarding everything collected — a genuine frame whose preamble
// landed inside the failed candidate's collect window (a false peak
// just ahead of a real burst, or a truncated frame butted against its
// successor) is still acquired. The rewind is bounded: history already
// retains the window, each confirmed peak is strictly later than the
// previous rewind target, and reprocessing per failure is capped by
// the collect window length.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsp/correlator.hpp"
#include "phy/modem.hpp"

namespace fdb::phy {

struct StreamFrame {
  Status status = Status::kCrcMismatch;
  std::vector<std::uint8_t> payload;
  std::uint64_t start_sample = 0;  // absolute index of first data sample
  float sync_corr = 0.0f;
};

class StreamingReceiver {
 public:
  using FrameHandler = std::function<void(const StreamFrame&)>;

  /// `handler` fires once per decoded (or CRC-failed) frame. Throws
  /// std::invalid_argument when !config.rates.valid().
  StreamingReceiver(ModemConfig config, FrameHandler handler);

  /// Feeds envelope samples; may invoke the handler zero or more times.
  void process(std::span<const float> samples);

  /// Samples consumed so far (absolute stream position). The internal
  /// scan cursor may sit earlier mid-drain after a decode-failure
  /// rewind, but it always catches back up before process() returns.
  std::uint64_t samples_processed() const { return fed_; }

  /// Frames attempted (handler invocations).
  std::uint64_t frames_seen() const { return frames_; }

  void reset();

 private:
  enum class State { kSearching, kCollecting };

  /// Runs the state machine over the buffered-but-unscanned samples
  /// until the scan cursor reaches the fed position (re-spanning after
  /// every step, since a failed decode may rewind the cursor).
  void drain();

  /// Correlates chunk[i..] in one batch and scans for a confirmed peak.
  /// Returns the index one past the last consumed chunk sample.
  std::size_t search_span(std::span<const float> chunk, std::size_t i);

  /// Consumes collecting-state samples in bulk up to the decode target.
  std::size_t collect_span(std::span<const float> chunk, std::size_t i);

  void try_decode();
  void abandon_sync();
  void resync_rewind();

  // --- contiguous history ------------------------------------------------
  // buf_[head_..] holds samples [history_start_, history_start_ + size).
  // Appends are bulk copies; front drops advance head_ and the storage is
  // compacted only when the dead prefix dominates (amortised O(1)).
  void append_history(std::span<const float> chunk);
  void drop_history_front(std::uint64_t new_start);
  std::size_t history_size() const { return buf_.size() - head_; }

  ModemConfig config_;
  FrameHandler handler_;
  dsp::SlidingCorrelator correlator_;
  dsp::PeakDetector peaks_;
  State state_ = State::kSearching;
  std::uint64_t position_ = 0;  // scan cursor; rewinds on decode failure
  std::uint64_t fed_ = 0;       // total samples ever fed (monotone)
  std::uint64_t frames_ = 0;

  std::vector<float> buf_;
  std::size_t head_ = 0;
  std::uint64_t history_start_ = 0;  // absolute index of buf_[head_]
  std::vector<float> corr_;          // batch correlation scratch

  std::size_t history_cap_;          // retained history while searching
  std::uint64_t search_start_ = 0;   // history_start_ when search began
  std::uint64_t detector_base_ = 0;  // abs position at last peak reset
  std::uint64_t sync_sample_ = 0;    // absolute peak position
  float sync_corr_ = 0.0f;
  std::size_t body_target_ = 0;      // samples needed past the peak
};

}  // namespace fdb::phy
