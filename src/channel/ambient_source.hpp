// Ambient RF carriers. The HotNets'13 system piggybacks on signals that
// already exist (TV broadcast); the repo substitutes synthetic sources
// with the same envelope statistics (see DESIGN.md substitution table):
//
//  * CwSource     — unmodulated constant-envelope carrier. The easy case:
//                   the envelope is flat, so backscatter bits are directly
//                   visible. Every network scenario runs it. Without
//                   phase drift it is one exact constant, which it
//                   reports through constant() so callers can fill one
//                   slot of it once instead of generating every sample.
//  * OfdmTvSource — wideband OFDM with random QPSK subcarriers and cyclic
//                   prefix, DVB-like. Its envelope fluctuates on a
//                   per-sample basis, which is precisely why ambient
//                   backscatter receivers must average over many samples
//                   per bit. This is the realistic arm.
//
// Sources emit unit-average-power complex baseband; the scene scales by
// transmit power and path gain.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace fdb::channel {

class AmbientSource {
 public:
  virtual ~AmbientSource() = default;

  /// Fills `out` with the next out.size() baseband samples (unit
  /// average power). Batch-first primary so callers can stream into
  /// arena scratch without allocation.
  virtual void generate(std::span<cf32> out) = 0;

  /// Convenience: resizes `out` to n and fills it.
  void generate(std::size_t n, std::vector<cf32>& out) {
    out.resize(n);
    generate(std::span<cf32>(out));
  }

  /// Restarts the source deterministically.
  virtual void reset() = 0;

  /// The value every sample takes if the source is an exact constant,
  /// or nullopt if its samples vary. A constant source's generate()
  /// fills every span with exactly this value.
  virtual std::optional<cf32> constant() const { return std::nullopt; }

  virtual const char* name() const = 0;
};

/// Constant-envelope carrier with optional slow phase drift, modelling a
/// CW illuminator (e.g. a dedicated reader transmitting a tone).
class CwSource final : public AmbientSource {
 public:
  /// `phase_drift_rad_per_sample` models oscillator drift; 0 = ideal.
  explicit CwSource(double phase_drift_rad_per_sample = 0.0);

  using AmbientSource::generate;
  void generate(std::span<cf32> out) override;
  void reset() override;
  /// The carrier sample when there is no drift (the phase then stays
  /// exactly 0), nullopt with drift.
  std::optional<cf32> constant() const override;
  const char* name() const override { return "cw"; }

 private:
  double drift_;
  double phase_ = 0.0;
};

/// Parameters of the synthetic TV-style OFDM carrier.
struct OfdmParams {
  std::size_t fft_size = 256;      // subcarriers per symbol
  std::size_t cp_len = 32;         // cyclic prefix samples
  double occupancy = 0.8;          // fraction of subcarriers active
  std::uint64_t seed = 1;          // payload randomness
};

class OfdmTvSource final : public AmbientSource {
 public:
  explicit OfdmTvSource(OfdmParams params);

  using AmbientSource::generate;
  void generate(std::span<cf32> out) override;
  void reset() override;
  const char* name() const override { return "ofdm_tv"; }

  const OfdmParams& params() const { return params_; }

 private:
  void make_symbol();

  OfdmParams params_;
  Rng rng_;
  std::vector<bool> active_;      // subcarrier occupancy mask
  std::vector<cf32> symbol_;      // current time-domain symbol incl. CP
  std::size_t pos_ = 0;
  float norm_ = 1.0f;
};

/// Factory used by benches to select the carrier arm by name
/// ("cw" | "ofdm_tv").
std::unique_ptr<AmbientSource> make_ambient_source(const std::string& kind,
                                                   std::uint64_t seed);

}  // namespace fdb::channel
