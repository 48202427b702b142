#include "phy/modem.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "dsp/correlator.hpp"
#include "dsp/moving_average.hpp"

namespace fdb::phy {

BackscatterTx::BackscatterTx(ModemConfig config) : config_(config) {
  require_valid(config_.rates, "modem");
}

std::vector<std::uint8_t> BackscatterTx::chips_to_states(
    std::span<const std::uint8_t> chips) const {
  std::vector<std::uint8_t> states;
  states.reserve(chips.size() * config_.rates.samples_per_chip);
  for (const std::uint8_t chip : chips) {
    states.insert(states.end(), config_.rates.samples_per_chip, chip);
  }
  return states;
}

std::vector<std::uint8_t> BackscatterTx::modulate_frame(
    std::span<const std::uint8_t> payload) const {
  auto chips = default_preamble_chips();
  const auto frame_bits = frame_to_bits(payload);
  const auto data_chips = encode(config_.line_code, frame_bits);
  chips.insert(chips.end(), data_chips.begin(), data_chips.end());
  return chips_to_states(chips);
}

std::vector<std::uint8_t> BackscatterTx::modulate_bits(
    std::span<const std::uint8_t> bits) const {
  auto chips = default_preamble_chips();
  const auto data_chips = encode(config_.line_code, bits);
  chips.insert(chips.end(), data_chips.begin(), data_chips.end());
  return chips_to_states(chips);
}

std::size_t BackscatterTx::frame_samples(std::size_t payload_bytes) const {
  const std::size_t chips = default_preamble_length() +
                            2 * frame_bits_for_payload(payload_bytes);
  return chips * config_.rates.samples_per_chip;
}

BackscatterRx::BackscatterRx(ModemConfig config) : config_(config) {
  require_valid(config_.rates, "modem");
}

std::optional<std::size_t> BackscatterRx::find_sync(
    std::span<const float> envelope, float* corr_out) const {
  // Burst-mode sync: global scan of the normalised preamble correlation
  // over the whole capture, on the MAGNITUDE of the correlation. A
  // fading draw can invert the backscatter swing (destructive phase);
  // FM0 data is equality-coded and the slicer is adaptive, so an
  // inverted frame decodes fine — acquisition must not reject it.
  //
  // For long chips, correlation is computed on a strided subsample
  // (accuracy ±stride) and refine_data_start() recovers exact timing;
  // this keeps sync O(N·W/stride²) instead of O(N·W).
  const std::size_t spc = config_.rates.samples_per_chip;
  std::size_t stride = 1;
  if (spc >= 16) {
    for (std::size_t s = spc / 8; s >= 2; --s) {
      if (spc % s == 0) {
        stride = s;
        break;
      }
    }
  }
  const auto preamble = default_preamble_chips();
  dsp::SlidingCorrelator correlator(chips_to_pattern(preamble),
                                    spc / stride);
  const std::size_t strided_len = envelope.size() / stride;
  // With long chips the raw envelope fluctuates far more than the
  // backscatter swing (ambient OFDM carriers especially); average over
  // half a chip before striding. Half, not whole: a full-chip boxcar
  // has its first null exactly at the chip rate and would erase the
  // alternating preamble.
  //
  // Whole-capture batch chain: smooth everything with the moving
  // average's block kernel, gather the strided subsample, then run the
  // correlator's block kernel over it — no per-sample call overhead.
  //
  // The three buffers are default-initialized (no zero fill): the
  // prefilter, the gather and the correlator each write every element
  // before anything reads it.
  dsp::MovingAverage<float> prefilter(stride > 1 ? spc / 2 : 1);
  const std::size_t n = envelope.size();
  const auto smoothed = std::make_unique_for_overwrite<float[]>(n);
  prefilter.process(envelope, {smoothed.get(), n});
  const auto strided = std::make_unique_for_overwrite<float[]>(strided_len);
  for (std::size_t j = 0; j < strided_len; ++j) {
    strided[j] = smoothed[j * stride + stride - 1];
  }
  const auto corr_buf = std::make_unique_for_overwrite<float[]>(strided_len);
  const std::span<float> corr(corr_buf.get(), strided_len);
  correlator.process({strided.get(), strided_len}, corr);
  float best_abs = -2.0f;
  for (const float c : corr) best_abs = std::max(best_abs, std::abs(c));
  if (best_abs < config_.sync_threshold) {
    if (corr_out != nullptr) *corr_out = 0.0f;
    return std::nullopt;
  }
  // Payload chips can imitate the preamble; random noise occasionally
  // pushes such an imposter above the true peak. The preamble always
  // comes first, so take the EARLIEST peak within tolerance of the
  // global maximum rather than the maximum itself.
  const float accept = std::max(config_.sync_threshold, 0.92f * best_abs);
  for (std::size_t j = 0; j < strided_len; ++j) {
    if (std::abs(corr[j]) >= accept) {
      // Walk to the local crest so chip alignment stays tight.
      std::size_t peak = j;
      while (peak + 1 < strided_len &&
             std::abs(corr[peak + 1]) >= std::abs(corr[peak])) {
        ++peak;
      }
      if (corr_out != nullptr) *corr_out = corr[peak];
      return peak * stride;
    }
  }
  if (corr_out != nullptr) *corr_out = best_abs;
  return std::nullopt;  // unreachable; keeps the compiler satisfied
}

std::size_t BackscatterRx::refine_data_start(
    std::span<const float> envelope, std::size_t coarse_data_start) const {
  // Fine timing recovery: the correlation argmax jitters by a sample or
  // two under noise, which shears every chip-average window. The
  // preamble chips are known, so test candidate offsets and keep the one
  // whose chip averages correlate best with the expected ±1 pattern.
  const std::size_t spc = config_.rates.samples_per_chip;
  const auto preamble = default_preamble_chips();
  const std::size_t pre_samples = preamble.size() * spc;

  double best_metric = -1e300;
  std::size_t best_start = coarse_data_start;
  // Chip averages of the current candidate; every slot is rewritten
  // per candidate, so one buffer serves the whole search.
  std::vector<double> avgs(preamble.size());
  const int range = static_cast<int>(spc) - 1;
  for (int delta = -range; delta <= range; ++delta) {
    const long start_l = static_cast<long>(coarse_data_start) + delta;
    if (start_l < static_cast<long>(pre_samples)) continue;
    const auto start = static_cast<std::size_t>(start_l);
    if (start > envelope.size()) continue;
    const std::size_t pre_start = start - pre_samples;
    // Chip averages over the candidate preamble window.
    double metric = 0.0;
    double mean = 0.0;
    for (std::size_t c = 0; c < preamble.size(); ++c) {
      double acc = 0.0;
      for (std::size_t s = 0; s < spc; ++s) {
        acc += envelope[pre_start + c * spc + s];
      }
      avgs[c] = acc / static_cast<double>(spc);
      mean += avgs[c];
    }
    mean /= static_cast<double>(preamble.size());
    for (std::size_t c = 0; c < preamble.size(); ++c) {
      metric += (avgs[c] - mean) * (preamble[c] ? 1.0 : -1.0);
    }
    // Magnitude: an inverted-polarity frame correlates negatively but
    // its timing information is just as sharp.
    if (std::abs(metric) > best_metric) {
      best_metric = std::abs(metric);
      best_start = start;
    }
  }
  return best_start;
}

std::vector<std::uint8_t> BackscatterRx::slice_chips(
    std::span<const float> envelope, std::size_t preamble_start,
    std::size_t data_start, std::size_t max_chips) const {
  const std::size_t spc = config_.rates.samples_per_chip;
  IntegrateAndDump integrator(spc);
  AdaptiveSlicer slicer(config_.slicer);

  // Prime threshold estimation on the preamble chips (both levels are
  // guaranteed present there), then slice data chips for real.
  std::vector<float> preamble_chip_avgs;
  integrator.process(
      envelope.subspan(preamble_start, data_start - preamble_start),
      preamble_chip_avgs);
  std::vector<std::uint8_t> scratch;
  slicer.process(preamble_chip_avgs, scratch);
  integrator.reset();

  std::vector<float> chip_avgs;
  const std::size_t avail = envelope.size() - data_start;
  const std::size_t want = std::min(max_chips * spc, avail - avail % spc);
  integrator.process(envelope.subspan(data_start, want), chip_avgs);

  std::vector<std::uint8_t> decisions;
  slicer.process(chip_avgs, decisions);
  // Line codes carry 2 chips per bit; a trailing odd chip is capture
  // padding, not data.
  if (decisions.size() % 2 != 0) decisions.pop_back();
  return decisions;
}

std::size_t BackscatterRx::preamble_samples() const {
  return default_preamble_length() * config_.rates.samples_per_chip;
}

std::optional<std::size_t> BackscatterRx::coarse_data_start(
    std::span<const float> envelope, float* corr_out) const {
  const auto sync = find_sync(envelope, corr_out);
  if (!sync.has_value() || *sync + 1 < preamble_samples()) return std::nullopt;
  return *sync + 1;
}

bool BackscatterRx::hint_fits(std::span<const float> envelope,
                              std::size_t data_start_hint) const {
  return data_start_hint >= preamble_samples() &&
         data_start_hint <= envelope.size();
}

RxResult BackscatterRx::demodulate_frame(
    std::span<const float> envelope) const {
  float corr = 0.0f;
  const auto data_start = coarse_data_start(envelope, &corr);
  RxResult result =
      data_start ? demodulate_frame_at(envelope, *data_start) : RxResult{};
  result.diag.sync_corr = corr;
  return result;
}

RxResult BackscatterRx::demodulate_frame_at(
    std::span<const float> envelope, std::size_t data_start_hint) const {
  RxResult result;  // kSyncNotFound until decoded
  if (!hint_fits(envelope, data_start_hint)) return result;
  const std::size_t data_start = refine_data_start(envelope, data_start_hint);
  const std::size_t preamble_start = data_start - preamble_samples();
  result.diag.sync_sample = data_start - 1;

  const std::size_t max_chips =
      2 * frame_bits_for_payload(FrameLimits::kMaxPayloadBytes);
  auto chips = slice_chips(envelope, preamble_start, data_start, max_chips);
  result.diag.chips_decoded = chips.size();

  const auto bits = decode(config_.line_code, chips);
  if (!bits.has_value()) {
    result.status = Status::kTruncated;
    result.diag.chip_decisions = std::move(chips);
    return result;
  }
  auto deframed = deframe_bits(*bits);
  result.status = deframed.status;
  result.payload = std::move(deframed.payload);
  result.diag.chip_decisions = std::move(chips);
  return result;
}

std::optional<std::vector<std::uint8_t>> BackscatterRx::demodulate_bits(
    std::span<const float> envelope, std::size_t num_bits,
    RxDiagnostics* diag) const {
  float corr = 0.0f;
  const auto data_start = coarse_data_start(envelope, &corr);
  if (!data_start.has_value()) return std::nullopt;
  auto bits = demodulate_bits_at(envelope, num_bits, *data_start, diag);
  if (diag != nullptr) {
    // The burst path reports the coarse correlation peak, not the
    // refined edge, matching its historical diagnostics.
    diag->sync_corr = corr;
    diag->sync_sample = *data_start - 1;
  }
  return bits;
}

std::optional<std::vector<std::uint8_t>> BackscatterRx::demodulate_bits_at(
    std::span<const float> envelope, std::size_t num_bits,
    std::size_t data_start_hint, RxDiagnostics* diag) const {
  if (!hint_fits(envelope, data_start_hint)) return std::nullopt;
  const std::size_t data_start = refine_data_start(envelope, data_start_hint);
  const std::size_t preamble_start = data_start - preamble_samples();

  auto chips = slice_chips(envelope, preamble_start, data_start,
                           2 * num_bits);
  if (diag != nullptr) {
    diag->sync_sample = data_start - 1;
    diag->chips_decoded = chips.size();
    diag->chip_decisions = chips;
  }
  auto bits = decode(config_.line_code, chips);
  if (!bits.has_value()) return std::nullopt;
  if (bits->size() > num_bits) bits->resize(num_bits);
  return bits;
}

}  // namespace fdb::phy
