// Spectrum probe: run a tag's receive front end by hand — ambient OFDM
// source -> envelope detector -> moving average -> running stats — and
// print what the detector actually sees, plus the carrier's power
// spectrum.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "channel/ambient_source.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fft.hpp"
#include "dsp/moving_average.hpp"
#include "util/stats.hpp"

int main() {
  using namespace fdb;

  // Generate 64k samples of the TV-style carrier.
  channel::OfdmTvSource source({.fft_size = 256, .cp_len = 32,
                                .occupancy = 0.8, .seed = 42});
  std::vector<cf32> carrier;
  source.generate(65536, carrier);

  // Spectrum of the first 4096 samples.
  const auto spectrum = dsp::power_spectrum(
      std::span<const cf32>(carrier.data(), 4096));
  double occupied = 0.0;
  double peak = 0.0;
  for (const float bin : spectrum) {
    if (bin > 1e-6) occupied += 1.0;
    peak = std::max(peak, static_cast<double>(bin));
  }
  std::printf("Carrier spectrum: %.0f%% of bins occupied, peak bin %.3g\n",
              100.0 * occupied / static_cast<double>(spectrum.size()), peak);

  // Carrier -> envelope -> 64-sample moving average, with running
  // stats over both the raw and the averaged envelope.
  std::vector<float> envelope(carrier.size());
  dsp::EnvelopeDetector detector(400e3, 2e6);
  detector.process(carrier, envelope);
  std::vector<float> averaged(envelope.size());
  dsp::MovingAverage<float>(64).process(envelope, averaged);

  RunningStats raw_stats;
  RunningStats avg_stats;
  for (const float e : envelope) raw_stats.add(e);
  for (const float a : averaged) avg_stats.add(a);

  std::printf("Envelope, raw      : mean %.3f  stddev %.3f"
              "  (fluctuation %.0f%%)\n",
              raw_stats.mean(), raw_stats.stddev(),
              100.0 * raw_stats.stddev() / raw_stats.mean());
  std::printf("Envelope, averaged : mean %.3f  stddev %.3f"
              "  (fluctuation %.0f%%)\n",
              avg_stats.mean(), avg_stats.stddev(),
              100.0 * avg_stats.stddev() / avg_stats.mean());
  std::puts("\nThis is why ambient backscatter integrates many samples per"
            " chip:\nthe raw OFDM envelope swings wildly, the averaged one"
            " is stable\nenough to slice a 1-2% backscatter swing on top.");
  return 0;
}
