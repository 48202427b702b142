#include "sim/trial_parts.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "dsp/envelope.hpp"

namespace fdb::sim {

namespace detail {

void fold_digest(std::uint64_t& h, std::span<const float> x) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  for (const float v : x) {
    h = (h ^ std::bit_cast<std::uint32_t>(v)) * kFnvPrime;
  }
}

}  // namespace detail

// --- GatewaySlotSynth -----------------------------------------------------

GatewaySlotSynth::GatewaySlotSynth(
    const TrialGeometry& geo, std::unique_ptr<channel::AmbientSource> source,
    std::span<const cf32> h_sr, std::span<const cf32> coup_on,
    std::span<const cf32> coup_off, double noise_power_w, Rng& rng,
    const core::FdDataTransmitter& tx, const FaultPlan& faults,
    SynthArena& arena)
    : geo_(geo),
      source_(std::move(source)),
      h_sr_(h_sr),
      coup_on_(coup_on),
      coup_off_(coup_off),
      tx_(tx),
      faults_(faults) {
  static_assert(std::is_trivially_destructible_v<channel::AwgnChannel>);
  noise_ = arena.alloc<channel::AwgnChannel>(n_gw());
  for (std::size_t g = 0; g < n_gw(); ++g) {
    std::construct_at(&noise_[g], noise_power_w, rng.fork());
  }
  if (source_ == nullptr) return;
  const std::optional<cf32> constant = source_->constant();
  constant_ = constant.has_value();
  carrier_ = arena.alloc<cf32>(constant_ ? geo.slot_samples : geo.total());
  if (constant_) {
    std::fill(carrier_.begin(), carrier_.end(), *constant);
    carrier_filled_ = geo.total();
  }
  const std::size_t n_tags = coup_on.size() / n_gw();
  masks_ = arena.alloc<const std::uint8_t*>(n_tags);
  on_ = arena.alloc<cf32>(n_tags);
  off_ = arena.alloc<cf32>(n_tags);
  coeff_ = arena.alloc<cf32>(geo.slot_samples);
}

void GatewaySlotSynth::ensure_carrier(std::size_t hi) {
  if (hi > carrier_filled_) {
    source_->generate(carrier_.subspan(carrier_filled_, hi - carrier_filled_));
    carrier_filled_ = hi;
  }
}

void GatewaySlotSynth::synthesize(std::size_t g, std::uint64_t slot,
                                  std::size_t n_ent, std::span<cf32> out) {
  const std::size_t base =
      constant_ ? 0 : static_cast<std::size_t>(slot) * geo_.slot_samples;
  WaveformSynthesizer::synthesize_slot_gateway(
      std::span<const cf32>(carrier_).subspan(base, geo_.slot_samples),
      h_sr_[g], std::span<const std::uint8_t* const>(masks_.data(), n_ent),
      std::span<const cf32>(on_.data(), n_ent),
      std::span<const cf32>(off_.data(), n_ent), coeff_, out);
  if (faults_.any()) apply_slot_faults(g, slot, out);
  noise_[g].process(out, out);
  ++gateway_slots_;
}

std::vector<std::uint8_t> GatewaySlotSynth::frame_states(
    std::uint32_t k, std::uint64_t start_slot,
    std::span<const std::uint8_t> bytes) const {
  std::vector<std::uint8_t> out = tx_.modulate(bytes);
  out.resize(geo_.frame_slots * geo_.slot_samples, 0);
  if (faults_.any()) apply_tag_fault(k, start_slot, out);
  return out;
}

void GatewaySlotSynth::apply_tag_fault(
    std::uint32_t k, std::uint64_t start_slot,
    std::vector<std::uint8_t>& states) const {
  const TagFault* f = faults_.tag_fault(k);
  if (f == nullptr) return;
  const auto start = static_cast<std::int64_t>(start_slot);
  const auto slot_samples = static_cast<std::ptrdiff_t>(geo_.slot_samples);
  if (f->stuck) {
    const std::int64_t lo = std::max<std::int64_t>(f->start_slot, start);
    const std::int64_t hi = std::min<std::int64_t>(
        f->end_slot, start + static_cast<std::int64_t>(geo_.frame_slots));
    if (lo >= hi) return;
    std::fill(states.begin() + (lo - start) * slot_samples,
              states.begin() + (hi - start) * slot_samples, f->stuck_state);
    return;
  }
  // The receiver's sync search absorbs the shift until the burst
  // overruns its decode window.
  const std::size_t shift = faults_.drift_shift_samples(k, start);
  if (shift == 0) return;
  if (shift >= states.size()) {
    std::fill(states.begin(), states.end(), std::uint8_t{0});
    return;
  }
  states.insert(states.begin(), shift, std::uint8_t{0});
  states.resize(geo_.frame_slots * geo_.slot_samples);
}

// The carrier sag scales every ambient-derived component (leakage and
// backscatter are both linear in the carrier, so post-scaling the clean
// sum is exact), burst-interferer tones arrive over the air, and the
// gateway attenuation then scales everything reaching the faulted front
// end — receiver noise stays unscaled.
void GatewaySlotSynth::apply_slot_faults(std::size_t g, std::size_t slot,
                                         std::span<cf32> samples) const {
  const float cs = faults_.carrier_scale(slot);
  if (cs != 1.0f) {
    for (auto& v : samples) v *= cs;
  }
  faults_.add_interferers(g, slot, samples);
  const float a = faults_.gateway_atten(g, slot);
  if (a != 1.0f) {
    for (auto& v : samples) v *= a;
  }
}

// --- HybridEscalator ------------------------------------------------------

HybridEscalator::HybridEscalator(const TrialGeometry& geo, std::size_t n_tags,
                                 std::span<const std::uint8_t> in_range,
                                 GatewaySlotSynth& synth,
                                 const WaveformSynthesizer& front_end,
                                 const core::FdDataReceiver& rx,
                                 std::size_t payload_bytes,
                                 std::span<std::uint64_t> digests,
                                 SynthArena& arena)
    : geo_(geo),
      n_gw_(synth.n_gw()),
      in_range_(in_range),
      synth_(synth),
      front_end_(front_end),
      rx_(rx),
      payload_bytes_(payload_bytes),
      digests_(digests),
      arena_(arena) {
  frame_log_.reserve(n_tags);
  current_ = arena.alloc<std::uint32_t>(n_tags);
  slot_frames_off_.assign(geo.slots + 1, 0);
  chunks_per_gw_ = (geo.slots + kChunkSlots - 1) / kChunkSlots;
  chunks_ = arena.alloc<cf32*>(n_gw_ * chunks_per_gw_);
  std::fill(chunks_.begin(), chunks_.end(), nullptr);
  built_ = arena.alloc_zeroed<std::uint8_t>(n_gw_ * geo.slots);
  // A decode window spans at most frame_slots + 1 + ceil(tail/slot)
  // slots (one warm-up slot before the burst, the sync tail after).
  const std::size_t win_slots =
      geo.frame_slots + 1 +
      (geo.tail_samples + geo.slot_samples - 1) / geo.slot_samples;
  win_ = arena.alloc<cf32>(win_slots * geo.slot_samples);
  env_ = arena.alloc<float>(win_slots * geo.slot_samples);
}

void HybridEscalator::log_frame(std::size_t k, std::uint64_t slot,
                                std::span<const std::uint8_t> bytes) {
  current_[k] = static_cast<std::uint32_t>(frame_log_.size());
  frame_log_.push_back({static_cast<std::uint32_t>(k), slot,
                        {bytes.begin(), bytes.end()}, {}});
}

void HybridEscalator::index_slot(std::uint64_t slot,
                                 std::span<const std::size_t> on_air) {
  for (const std::size_t k : on_air) slot_frames_.push_back(current_[k]);
  slot_frames_off_[slot + 1] = static_cast<std::uint32_t>(slot_frames_.size());
}

cf32* HybridEscalator::slot(std::size_t g, std::size_t s) {
  const std::size_t ss = geo_.slot_samples;
  cf32*& chunk = chunks_[g * chunks_per_gw_ + s / kChunkSlots];
  if (chunk == nullptr) chunk = arena_.alloc<cf32>(kChunkSlots * ss).data();
  cf32* const slot_p = chunk + (s % kChunkSlots) * ss;
  if (built_[g * geo_.slots + s]) return slot_p;
  built_[g * geo_.slots + s] = 1;
  std::size_t n_ent = 0;
  for (std::uint32_t idx = slot_frames_off_[s]; idx < slot_frames_off_[s + 1];
       ++idx) {
    FrameLog& fl = frame_log_[slot_frames_[idx]];
    if (!in_range_[fl.tag * n_gw_ + g]) continue;
    if (fl.states.empty()) {
      fl.states = synth_.frame_states(fl.tag, fl.start_slot, fl.payload);
    }
    synth_.stage(n_ent++, fl.tag, g,
                 fl.states.data() +
                     static_cast<std::size_t>(s - fl.start_slot) * ss);
  }
  synth_.synthesize(g, s, n_ent, std::span<cf32>(slot_p, ss));
  return slot_p;
}

std::span<const float> HybridEscalator::window(std::size_t g, std::size_t lo,
                                               std::size_t hi) {
  const std::size_t ss = geo_.slot_samples;
  const std::size_t w0_slot = lo > 0 ? lo / ss - 1 : 0;
  const std::size_t hi_slot = std::min(geo_.slots, (hi + ss - 1) / ss);
  const std::size_t w0 = w0_slot * ss;
  const std::size_t win_samples = hi_slot * ss - w0;
  assert(win_samples <= win_.size());
  synth_.ensure_carrier(hi_slot * ss);
  for (std::size_t s = w0_slot; s < hi_slot; ++s) {
    std::memcpy(win_.data() + (s - w0_slot) * ss, slot(g, s),
                ss * sizeof(cf32));
  }
  dsp::EnvelopeDetector env = front_end_.make_envelope();
  const auto env_out = env_.subspan(0, win_samples);
  env.process(std::span<const cf32>(win_.data(), win_samples), env_out);
  if (!digests_.empty()) detail::fold_digest(digests_[g], env_out);
  return std::span<const float>(env_out).subspan(lo - w0, hi - lo);
}

const core::FdRxResult& HybridEscalator::demodulate(std::size_t g,
                                                    std::uint64_t start) {
  const auto [memo, fresh] = demod_.try_emplace({g, start});
  if (fresh) {
    const TrialGeometry::Window w = geo_.decode_window(start);
    memo->second = rx_.demodulate(window(g, w.lo, w.hi), {}, payload_bytes_);
  }
  return memo->second;
}

std::span<const std::size_t> HybridEscalator::contested_order(
    std::span<const LinkVerdict> verdict, std::span<const double> margin) {
  order_.clear();
  for (std::size_t g = 0; g < verdict.size(); ++g) {
    if (verdict[g] == LinkVerdict::kContested) order_.push_back(g);
  }
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return margin[a] != margin[b] ? margin[a] > margin[b] : a < b;
  });
  return order_;
}

// --- FrameClassifier ------------------------------------------------------

FrameClassifier::FrameClassifier(const FleetResolver& resolver,
                                 std::span<const float> delta,
                                 std::size_t n_gw, std::size_t frame_slots,
                                 const FaultPlan& faults, SynthArena& arena)
    : resolver_(resolver),
      delta_(delta),
      n_gw_(n_gw),
      frame_slots_(frame_slots),
      faults_(faults),
      verdict_(arena.alloc<LinkVerdict>(n_gw)),
      margin_(arena.alloc<double>(n_gw)) {
  std::fill(verdict_.begin(), verdict_.end(), LinkVerdict::kClearFail);
  std::fill(margin_.begin(), margin_.end(),
            -std::numeric_limits<double>::infinity());
}

}  // namespace fdb::sim
