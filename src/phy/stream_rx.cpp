#include "phy/stream_rx.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bits.hpp"
#include "util/crc.hpp"

namespace fdb::phy {
namespace {

// Sub-chunk granularity for the batch path: bounds the correlation
// scratch and keeps the history buffer from ballooning while searching.
constexpr std::size_t kBlock = 4096;

// Correlation runs lazily in sub-blocks of this size while searching:
// once a peak confirms, correlator state is discarded, so correlating a
// whole 4096-sample span up front would waste up to a span of O(W)
// window dots per acquisition (and re-correlate the tail after the
// frame). A peak costs at most kSearchBlock-1 discarded outputs.
constexpr std::size_t kSearchBlock = 512;

// Once the dead prefix ahead of head_ exceeds this and dominates the
// live samples, the storage is compacted (amortised O(1) per sample).
constexpr std::size_t kCompactSlack = 4096;

// Header = length(8) + crc8(8) bits -> chips -> samples, plus margin
// for the slicer's chip alignment.
std::size_t header_samples(const ModemConfig& config) {
  return (2 * 16 + 4) * config.rates.samples_per_chip;
}

}  // namespace

StreamingReceiver::StreamingReceiver(ModemConfig config, FrameHandler handler)
    : config_(config),
      handler_(std::move(handler)),
      correlator_(chips_to_pattern(default_preamble_chips()),
                  config.rates.samples_per_chip),
      peaks_(config.sync_threshold, config.rates.samples_per_chip * 4) {
  require_valid(config_.rates, "StreamingReceiver");
  const std::size_t preamble =
      default_preamble_length() * config_.rates.samples_per_chip;
  // While searching we only ever need the preamble plus slack.
  history_cap_ = preamble + 8 * config_.rates.samples_per_chip;
}

void StreamingReceiver::append_history(std::span<const float> chunk) {
  if (head_ > kCompactSlack && head_ * 2 >= buf_.size() + chunk.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
}

void StreamingReceiver::drop_history_front(std::uint64_t new_start) {
  assert(new_start >= history_start_);
  assert(new_start - history_start_ <= history_size());
  head_ += static_cast<std::size_t>(new_start - history_start_);
  history_start_ = new_start;
}

void StreamingReceiver::process(std::span<const float> samples) {
  std::size_t off = 0;
  while (off < samples.size()) {
    const std::size_t n = std::min(kBlock, samples.size() - off);
    // History gets every sample exactly once, in bulk; the drain below
    // only decides how the already-buffered samples are consumed.
    append_history(samples.subspan(off, n));
    fed_ += n;
    drain();
    off += n;
  }
}

void StreamingReceiver::drain() {
  // The scan cursor (position_) trails the fed position whenever a
  // decode failure rewound it; re-span from the cursor after every step
  // because a step may rewind it (and trims may advance head_).
  while (position_ < fed_) {
    assert(position_ >= history_start_);
    const auto skip = static_cast<std::size_t>(position_ - history_start_);
    const auto len = static_cast<std::size_t>(fed_ - position_);
    assert(skip + len <= history_size());
    const std::span<const float> pending(buf_.data() + head_ + skip, len);
    if (state_ == State::kSearching) {
      search_span(pending, 0);
    } else {
      collect_span(pending, 0);
    }
  }
}

std::size_t StreamingReceiver::search_span(std::span<const float> chunk,
                                           std::size_t i) {
  const std::size_t m = std::min(chunk.size() - i, kSearchBlock);
  corr_.resize(m);
  correlator_.process(chunk.subspan(i, m),
                      std::span<float>(corr_.data(), m));
  const std::size_t preamble =
      default_preamble_length() * config_.rates.samples_per_chip;
  // Quiet-block fast path: when no candidate peak is being tracked and
  // nothing in this block reaches threshold, the per-sample detector
  // loop is a no-op — one vectorizable max-scan proves it, and the
  // detector/position bookkeeping advances in bulk. (The retention trim
  // below already runs once per block.)
  if (!peaks_.is_tracking()) {
    float block_max = 0.0f;
    for (std::size_t j = 0; j < m; ++j) {
      block_max = std::max(block_max, std::abs(corr_[j]));
    }
    if (block_max < config_.sync_threshold) {
      peaks_.skip(m);
      position_ += m;
      std::uint64_t floor = search_start_;
      if (position_ > history_cap_ && position_ - history_cap_ > floor) {
        floor = position_ - history_cap_;
      }
      if (floor > history_start_) drop_history_front(floor);
      return i + m;
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t abs_index = position_++;
    // Magnitude: polarity-inverted frames still acquire (FM0 decodes
    // either way).
    const auto peak = peaks_.process(std::abs(corr_[j]));
    if (!peak.has_value()) continue;

    // PeakDetector indexes from its last reset; map to stream position.
    const std::uint64_t peak_abs = detector_base_ + *peak;
    // Retained-history floor at this sample: the per-sample trim of the
    // scalar path, computed against absolute positions instead.
    std::uint64_t floor = search_start_;
    if (abs_index + 1 > history_cap_ &&
        abs_index + 1 - history_cap_ > floor) {
      floor = abs_index + 1 - history_cap_;
    }
    if (floor > history_start_) drop_history_front(floor);
    if (peak_abs + 1 < preamble + floor) {
      continue;  // not enough context retained; keep searching
    }
    // Trim history so it starts at the preamble.
    drop_history_front(peak_abs + 1 - preamble);
    sync_sample_ = peak_abs;
    sync_corr_ = corr_[j];
    body_target_ = header_samples(config_);
    state_ = State::kCollecting;
    return i + j + 1;
  }
  // No confirmed peak in this sub-block: enforce the retention cap once
  // for the scanned range (equivalent to the scalar per-sample trim,
  // since no decision consulted the history meanwhile).
  std::uint64_t floor = search_start_;
  if (position_ > history_cap_ && position_ - history_cap_ > floor) {
    floor = position_ - history_cap_;
  }
  if (floor > history_start_) drop_history_front(floor);
  return i + m;
}

std::size_t StreamingReceiver::collect_span(std::span<const float> chunk,
                                            std::size_t i) {
  const std::uint64_t target = sync_sample_ + body_target_;
  if (position_ > target) {
    try_decode();
    return i;
  }
  const std::uint64_t needed = target + 1 - position_;
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(needed, chunk.size() - i));
  position_ += take;
  if (position_ == target + 1) try_decode();
  return i + take;
}

void StreamingReceiver::try_decode() {
  // The capture [preamble_start, position_) is a zero-copy view of the
  // history buffer; lean on the burst modem: it holds exactly one frame
  // candidate. History was trimmed so the capture starts exactly at the
  // preamble — sync is already known, so use the known-sync decode
  // variants with data-start hint = preamble length instead of paying
  // the modem's O(N·W) correlation search again (it dominated the whole
  // streaming decode cost). False peaks the stream correlator let
  // through are still rejected: fine timing finds no coherent preamble
  // edge and the header CRC gates the decode.
  assert(position_ >= history_start_);
  const auto len = static_cast<std::size_t>(position_ - history_start_);
  assert(len <= history_size());
  const std::span<const float> capture(buf_.data() + head_, len);
  BackscatterRx rx(config_);
  const std::size_t pre_samples =
      default_preamble_length() * config_.rates.samples_per_chip;

  // First pass: do we know the frame length yet?
  const auto header_bits = rx.demodulate_bits_at(capture, 16, pre_samples);
  if (!header_bits.has_value() || header_bits->size() < 16) {
    // False preamble hit; resume the hunt just past the failed sync.
    resync_rewind();
    return;
  }
  const auto len8 = static_cast<std::uint8_t>(read_bits(*header_bits, 0, 8));
  const auto hdr_crc =
      static_cast<std::uint8_t>(read_bits(*header_bits, 8, 8));
  if (crc8({&len8, 1}) != hdr_crc) {  // corrupt header: resync
    resync_rewind();
    return;
  }

  const std::size_t body = (2 * frame_bits_for_payload(len8) + 4) *
                           config_.rates.samples_per_chip;
  if (body > body_target_) {
    // Header parsed: now we know how much more to collect.
    body_target_ = body;
    return;
  }

  // Full frame present: decode and report.
  StreamFrame frame;
  const auto result = rx.demodulate_frame_at(capture, pre_samples);
  frame.status = result.status;
  frame.payload = result.payload;
  frame.start_sample = sync_sample_ + 1;
  frame.sync_corr = sync_corr_;
  ++frames_;
  handler_(frame);

  if (frame.status == Status::kOk) {
    // Clean decode: everything up to position_ is accounted for; skip
    // ahead.
    abandon_sync();
  } else {
    // Payload-level failure (e.g. CRC): the collect window may have
    // swallowed a genuine successor frame — rewind and re-scan it.
    resync_rewind();
  }
}

void StreamingReceiver::abandon_sync() {
  state_ = State::kSearching;
  // Samples at or past the current position stay buffered: in the batch
  // path they may already have been appended and will be consumed by the
  // search that resumes right here.
  drop_history_front(position_);
  correlator_.reset();
  peaks_.reset();
  detector_base_ = position_;
  search_start_ = position_;
}

void StreamingReceiver::resync_rewind() {
  state_ = State::kSearching;
  // Bounded rewind: resume the hunt one sample past the failed sync
  // instead of discarding the collected tail. History still holds
  // everything from sync+1-preamble (trimmed exactly there at peak
  // confirmation), so this is a cursor move, not a buffer change; the
  // drain loop re-scans the retained tail. Progress is guaranteed:
  // every confirmed peak lies at or after detector_base_, so each
  // successive rewind target is strictly later than the last, and the
  // re-scanned span per failure is capped by the collect window.
  position_ = sync_sample_ + 1;
  correlator_.reset();
  peaks_.reset();
  detector_base_ = position_;
  search_start_ = history_start_;
}

void StreamingReceiver::reset() {
  state_ = State::kSearching;
  correlator_.reset();
  peaks_.reset();
  buf_.clear();
  head_ = 0;
  corr_.clear();
  position_ = 0;
  fed_ = 0;
  history_start_ = 0;
  search_start_ = 0;
  detector_base_ = 0;
  frames_ = 0;
  sync_sample_ = 0;
  sync_corr_ = 0.0f;
  body_target_ = 0;
}

}  // namespace fdb::phy
