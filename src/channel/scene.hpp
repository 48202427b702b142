// Link geometry: device positions plus a propagation model give the
// one-way field gains the simulators compose into backscatter links
// (ambient->tag, tag->receiver, ambient->receiver direct leakage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/pathloss.hpp"

namespace fdb::channel {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

double distance_m(const Vec2& a, const Vec2& b);

enum class DeviceKind { kAmbientTx, kTag, kReceiver };

struct Device {
  std::string name;
  DeviceKind kind = DeviceKind::kTag;
  Vec2 position;
};

/// Container for devices + the shared propagation model.
///
/// Shadowing (when the model enables it) is drawn from a counter-based
/// substream keyed on (shadowing seed, coherence block, unordered device
/// pair), never from caller RNG state. That makes every link gain
///  * reciprocal  — gain(a, b) == gain(b, a) within a coherence block,
///  * repeatable  — the same (scene, block) always yields the same draw,
///    no matter how many gains were queried before it or from which
///    thread,
/// which is the contract the pure-per-trial network simulator needs.
class Scene {
 public:
  explicit Scene(LogDistanceModel pathloss_model = {},
                 std::uint64_t shadowing_seed = 0);

  /// Adds a device; returns its index.
  std::size_t add_device(Device device);
  /// Room for n devices in all, so adding that many never reallocates.
  void reserve_devices(std::size_t n) { devices_.reserve(n); }

  const Device& device(std::size_t i) const { return devices_.at(i); }
  std::size_t num_devices() const { return devices_.size(); }

  /// One-way field (amplitude) gain between devices a and b for the
  /// given coherence block. The shadowing realisation (if enabled in the
  /// model) redraws per block and is symmetric in (a, b).
  double amplitude_gain(std::size_t a, std::size_t b,
                        std::uint64_t coherence_block = 0) const;

  /// One-way power gain.
  double power_gain(std::size_t a, std::size_t b,
                    std::uint64_t coherence_block = 0) const;

  /// The lognormal shadowing term (dB) applied to the (a, b) link in
  /// `coherence_block`; 0 when the model disables shadowing. Exposed so
  /// tests can pin reciprocity and per-block redraw directly.
  double shadowing_db(std::size_t a, std::size_t b,
                      std::uint64_t coherence_block) const;

  const LogDistanceModel& pathloss_model() const { return pathloss_; }
  std::uint64_t shadowing_seed() const { return shadowing_seed_; }

  /// First device of the given kind; SIZE_MAX if absent.
  std::size_t find_first(DeviceKind kind) const;

  /// All devices of the given kind, in insertion order — e.g. every
  /// receive gateway of a diversity deployment.
  std::vector<std::size_t> find_all(DeviceKind kind) const;

 private:
  LogDistanceModel pathloss_;
  std::uint64_t shadowing_seed_;
  std::vector<Device> devices_;
};

}  // namespace fdb::channel
