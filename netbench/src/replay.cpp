#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "channel/ambient_source.hpp"
#include "channel/impairments.hpp"
#include "core/fd_modem.hpp"
#include "dsp/correlator.hpp"
#include "phy/modem.hpp"
#include "phy/preamble.hpp"
#include "sim/synthesis.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace netbench {

using fdb::cf32;

namespace {

// Keeps the optimizer from dropping a kernel whose output is unread.
inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

constexpr std::int64_t kBatchNs = 8'000'000;
constexpr int kBatches = 5;

// Median per-call time (ns) of `fn` over kBatches batches, each long
// enough to swamp the clock read. One untimed call warms caches first.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  fn();
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t once = std::max<std::int64_t>(1, now_ns() - t0);
  const auto reps =
      static_cast<std::size_t>(std::max<std::int64_t>(1, kBatchNs / once));
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t b0 = now_ns();
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back(static_cast<double>(now_ns() - b0) /
                       static_cast<double>(reps));
  }
  return median(std::move(per_call));
}

// Runs `fn` under a span named `name`, child of span `parent`.
template <typename Fn>
double timed_layer(const char* name, std::int64_t parent,
                   std::vector<Span>& spans, Fn&& fn) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.t0_ns = now_ns();
  const double ns = ns_per_call(fn);
  s.t1_ns = now_ns();
  spans.push_back(s);
  return ns;
}

// The envelope a gateway sees of one tag's states alone: carrier, the
// tag's keyed reflection over a leakage floor, AWGN, RC front end. Built
// from the same layer kernels the simulator uses.
std::vector<float> clean_envelope(const fdb::sim::NetworkSimConfig& config,
                                  std::span<const std::uint8_t> states) {
  const std::size_t n = states.size();
  std::vector<cf32> carrier(n);
  fdb::channel::make_ambient_source(config.carrier, 11)->generate(carrier);
  const std::uint8_t* mask = states.data();
  const cf32 c_on{0.10f, 0.05f};
  const cf32 c_off{0.0f, 0.0f};
  std::vector<cf32> scratch(n);
  std::vector<cf32> field(n);
  fdb::sim::WaveformSynthesizer::synthesize_slot_gateway(
      carrier, cf32{1.0f, 0.0f}, {&mask, 1}, {&c_on, 1}, {&c_off, 1}, scratch,
      field);
  fdb::channel::AwgnChannel awgn(1e-4, fdb::Rng(13));
  awgn.process(field, field);
  const fdb::sim::WaveformSynthesizer synth(config.modem.data.rates,
                                            config.envelope_cutoff_mult);
  auto env = synth.make_envelope();
  std::vector<float> out(n);
  env.process(field, out);
  return out;
}

std::vector<std::uint8_t> random_payload(std::size_t bytes) {
  fdb::Rng rng(17);
  std::vector<std::uint8_t> payload(bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return payload;
}

}  // namespace

ReplayShape replay_shape(const fdb::sim::NetworkSimulator& sim,
                         double mean_reflecting) {
  const auto& config = sim.config();
  const fdb::core::FdDataTransmitter tx(config.modem);
  const std::size_t s = sim.slot_samples();
  const std::size_t tail = 2 * config.modem.data.rates.samples_per_bit();
  const std::size_t burst = tx.burst_samples(config.payload_bytes);
  ReplayShape shape;
  shape.slot_samples = s;
  shape.gateways = sim.num_gateways();
  shape.mean_reflecting = std::max(1.0, mean_reflecting);
  shape.window_samples = burst + tail;
  shape.escalation_samples = (sim.frame_slots() + 1 + (tail + s - 1) / s) * s;
  return shape;
}

UnitCosts replay_layers(const fdb::sim::NetworkSimConfig& config,
                        const ReplayShape& shape, std::vector<Span>& spans) {
  UnitCosts u;
  const auto root = static_cast<std::int64_t>(spans.size());
  spans.push_back({"replay", now_ns(), 0, -1, -1, false});

  const std::size_t s = shape.slot_samples;
  const auto per_sample = [](double ns, std::size_t n) {
    return ns / static_cast<double>(n);
  };

  // channel/ambient_source: one slot of carrier.
  const auto source = fdb::channel::make_ambient_source(config.carrier, 3);
  std::vector<cf32> carrier(s);
  u.ambient_ns_per_sample = per_sample(
      timed_layer("replay.ambient_source", root, spans,
                  [&] {
                    source->generate(carrier);
                    clobber(carrier.data());
                  }),
      s);

  // sim/synthesis: the fused slot kernel with the workload's mean number
  // of reflecting tags, interpolated between the neighbouring integers.
  {
    const fdb::core::FdDataTransmitter tx(config.modem);
    const auto frame = tx.modulate(random_payload(config.payload_bytes));
    const auto lo_n =
        static_cast<std::size_t>(std::floor(shape.mean_reflecting));
    const std::size_t hi_n = lo_n + 1;
    std::vector<std::vector<std::uint8_t>> masks(hi_n);
    std::vector<const std::uint8_t*> mask_ptrs(hi_n);
    for (std::size_t e = 0; e < hi_n; ++e) {
      // Each entity sees a different stretch of a real frame's states.
      masks[e].resize(s);
      for (std::size_t i = 0; i < s; ++i) {
        masks[e][i] = frame[(i + e * 997) % frame.size()];
      }
      mask_ptrs[e] = masks[e].data();
    }
    const std::vector<cf32> c_on(hi_n, cf32{0.1f, 0.02f});
    const std::vector<cf32> c_off(hi_n, cf32{0.01f, 0.0f});
    std::vector<cf32> scratch(s);
    std::vector<cf32> out(s);
    const auto kernel = [&](std::size_t n_ent) {
      fdb::sim::WaveformSynthesizer::synthesize_slot_gateway(
          carrier, cf32{1.0f, 0.0f}, {mask_ptrs.data(), n_ent},
          {c_on.data(), n_ent}, {c_off.data(), n_ent}, scratch, out);
      clobber(out.data());
    };
    const double lo_ns = timed_layer("replay.synthesis", root, spans,
                                     [&] { kernel(lo_n); });
    const double hi_ns = timed_layer("replay.synthesis", root, spans,
                                     [&] { kernel(hi_n); });
    const double frac = shape.mean_reflecting - static_cast<double>(lo_n);
    u.synthesis_ns_per_sample = per_sample(lo_ns + frac * (hi_ns - lo_ns), s);
  }

  // channel/impairments: AWGN over one gateway-slot, in place.
  {
    fdb::channel::AwgnChannel awgn(config.noise_power_w(), fdb::Rng(5));
    std::vector<cf32> buf = carrier;
    u.awgn_ns_per_sample = per_sample(
        timed_layer("replay.awgn", root, spans,
                    [&] {
                      awgn.process(buf, buf);
                      clobber(buf.data());
                    }),
        s);
  }

  // util/rng: the complex normal AWGN draws once per sample.
  {
    fdb::Rng rng(9);
    constexpr std::size_t kDraws = 4096;
    cf32 acc{};
    u.rng_ns_per_cn = per_sample(timed_layer("replay.rng", root, spans,
                                             [&] {
                                               for (std::size_t i = 0;
                                                    i < kDraws; ++i) {
                                                 acc += rng.cn(1.0);
                                               }
                                               clobber(&acc);
                                             }),
                                 kDraws);
  }

  // dsp/envelope: the RC front end over one gateway-slot.
  {
    const fdb::sim::WaveformSynthesizer synth(config.modem.data.rates,
                                              config.envelope_cutoff_mult);
    auto env = synth.make_envelope();
    std::vector<float> out(s);
    u.envelope_ns_per_sample = per_sample(
        timed_layer("replay.envelope", root, spans,
                    [&] {
                      env.process(carrier, out);
                      clobber(out.data());
                    }),
        s);
  }

  const auto& rates = config.modem.data.rates;
  const std::size_t tail = 2 * rates.samples_per_bit();
  const auto payload = random_payload(config.payload_bytes);

  // dsp/correlator: the preamble search find_sync runs over a decode
  // window (same prefilter stride rule), per window sample.
  {
    const std::size_t spc = rates.samples_per_chip;
    std::size_t stride = 1;
    if (spc >= 16) {
      for (std::size_t st = spc / 8; st >= 2; --st) {
        if (spc % st == 0) {
          stride = st;
          break;
        }
      }
    }
    fdb::dsp::SlidingCorrelator corr(
        fdb::phy::chips_to_pattern(fdb::phy::default_preamble_chips()),
        spc / stride);
    const std::size_t n = shape.window_samples / stride;
    std::vector<float> in(n);
    fdb::Rng rng(21);
    for (auto& x : in) x = static_cast<float>(1.0 + 0.05 * rng.normal());
    std::vector<float> out(n);
    u.correlator_ns_per_sample = per_sample(
        timed_layer("replay.correlator", root, spans,
                    [&] {
                      corr.reset();
                      corr.process(in, out);
                      clobber(out.data());
                    }),
        shape.window_samples);
  }

  // phy/modem: full sync search + decode against known-sync decode on
  // the same window.
  {
    const fdb::phy::BackscatterTx tx(config.modem.data);
    auto states = tx.modulate_frame(payload);
    states.resize(states.size() + tail, 0);
    const auto env = clean_envelope(config, states);
    const fdb::phy::BackscatterRx rx(config.modem.data);
    const std::size_t hint =
        fdb::phy::default_preamble_length() * rates.samples_per_chip;
    const auto full = rx.demodulate_frame(env);
    const auto at = rx.demodulate_frame_at(env, hint);
    u.modem_decoded = full.status == fdb::Status::kOk &&
                      full.payload == payload &&
                      at.status == fdb::Status::kOk && at.payload == payload;
    u.modem_frame_us =
        1e-3 * timed_layer("replay.modem.frame", root, spans, [&] {
          const auto r = rx.demodulate_frame(env);
          clobber(&r);
        });
    u.modem_frame_at_us =
        1e-3 * timed_layer("replay.modem.frame_at", root, spans, [&] {
          const auto r = rx.demodulate_frame_at(env, hint);
          clobber(&r);
        });
  }

  // core/fd_modem: the simulator's per-gateway verdict call.
  {
    const fdb::core::FdDataTransmitter tx(config.modem);
    auto states = tx.modulate(payload);
    states.resize(states.size() + tail, 0);
    const auto env = clean_envelope(config, states);
    const fdb::core::FdDataReceiver rx(config.modem);
    const auto r = rx.demodulate(env, {}, config.payload_bytes);
    u.fd_decoded = r.status == fdb::Status::kOk && r.blocks.payload == payload;
    u.fd_modem_us = 1e-3 * timed_layer("replay.fd_modem", root, spans, [&] {
                      const auto res = rx.demodulate(env, {},
                                                     config.payload_bytes);
                      clobber(&res);
                    });
  }

  spans[static_cast<std::size_t>(root)].t1_ns = now_ns();
  return u;
}

}  // namespace netbench
