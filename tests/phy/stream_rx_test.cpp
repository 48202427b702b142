#include "phy/stream_rx.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <span>

#include "dsp/envelope.hpp"
#include "util/rng.hpp"

namespace fdb::phy {
namespace {

ModemConfig small_config() {
  ModemConfig config;
  config.rates.samples_per_chip = 8;
  config.rates.asymmetry = 8;
  return config;
}

std::vector<float> frame_waveform(const BackscatterTx& tx,
                                  std::span<const std::uint8_t> payload,
                                  float low, float high) {
  std::vector<float> env;
  for (const auto s : tx.modulate_frame(payload)) {
    env.push_back(s ? high : low);
  }
  return env;
}

TEST(StreamingReceiver, RejectsInvalidRates) {
  auto config = small_config();
  config.rates.asymmetry = 0;
  EXPECT_THROW(StreamingReceiver(config, [](const StreamFrame&) {}),
               std::invalid_argument);
  config = small_config();
  config.rates.sample_rate_hz = -1.0;
  EXPECT_THROW(StreamingReceiver(config, [](const StreamFrame&) {}),
               std::invalid_argument);
}

TEST(StreamingReceiver, DecodesSingleFrameMidStream) {
  const auto config = small_config();
  BackscatterTx tx(config);
  Rng rng(3);
  std::vector<std::uint8_t> payload(20);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });

  std::vector<float> stream(3000, 1.0f);
  const auto burst = frame_waveform(tx, payload, 1.0f, 1.4f);
  stream.insert(stream.end(), burst.begin(), burst.end());
  stream.insert(stream.end(), 3000, 1.0f);

  receiver.process(stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, Status::kOk);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(StreamingReceiver, DecodesFrameFromIqStream) {
  // The full receive chain from complex IQ: RC envelope detector into
  // the streaming receiver.
  ModemConfig config;
  config.rates.samples_per_chip = 8;
  config.rates.sample_rate_hz = 2e6;
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(24, 0x42);

  // Complex IQ: carrier amplitude toggles with the antenna state.
  std::vector<cf32> iq(2000, cf32{1.0f, 0.0f});
  for (const auto s : tx.modulate_frame(payload)) {
    iq.push_back(cf32{s ? 1.4f : 1.0f, 0.0f});
  }
  iq.insert(iq.end(), 2000, cf32{1.0f, 0.0f});

  std::vector<float> envelope(iq.size());
  dsp::EnvelopeDetector detector(/*rc_cutoff_hz=*/400e3,
                                 config.rates.sample_rate_hz);
  detector.process(iq, envelope);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(envelope);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, Status::kOk);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(StreamingReceiver, DecodesMultipleFramesBackToBack) {
  const auto config = small_config();
  BackscatterTx tx(config);
  Rng rng(5);

  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<float> stream(500, 1.0f);
  for (int f = 0; f < 5; ++f) {
    std::vector<std::uint8_t> payload(8 + f * 4);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    payloads.push_back(payload);
    const auto burst = frame_waveform(tx, payload, 1.0f, 1.5f);
    stream.insert(stream.end(), burst.begin(), burst.end());
    stream.insert(stream.end(), 800, 1.0f);  // inter-frame gap
  }

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);

  ASSERT_EQ(frames.size(), payloads.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(frames[f].status, Status::kOk) << "frame " << f;
    EXPECT_EQ(frames[f].payload, payloads[f]) << "frame " << f;
  }
  // Frames reported in stream order.
  for (std::size_t f = 1; f < frames.size(); ++f) {
    EXPECT_GT(frames[f].start_sample, frames[f - 1].start_sample);
  }
}

TEST(StreamingReceiver, ChunkedDeliveryMatchesWholeStream) {
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(16, 0x3C);

  std::vector<float> stream(1000, 1.0f);
  const auto burst = frame_waveform(tx, payload, 1.0f, 1.3f);
  stream.insert(stream.end(), burst.begin(), burst.end());
  stream.insert(stream.end(), 1000, 1.0f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  // Feed in awkward chunk sizes.
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 7, 64, 501, 3, 1000000};
  std::size_t c = 0;
  while (pos < stream.size()) {
    const std::size_t n = std::min(chunks[c % 6], stream.size() - pos);
    receiver.process(std::span<const float>(stream.data() + pos, n));
    pos += n;
    ++c;
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(StreamingReceiver, RandomChunkingIsBitIdenticalToWholeCapture) {
  // Multi-frame noisy stream fed (a) in one call and (b) in randomized
  // chunk sizes: every reported frame must match bit-for-bit — status,
  // payload, start position, and sync correlation. This pins the batch
  // receive chain's chunk-size invariance.
  const auto config = small_config();
  BackscatterTx tx(config);
  Rng rng(41);

  std::vector<float> stream(700, 1.0f);
  for (int f = 0; f < 4; ++f) {
    std::vector<std::uint8_t> payload(6 + f * 9);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    const auto burst = frame_waveform(tx, payload, 1.0f, 1.4f);
    stream.insert(stream.end(), burst.begin(), burst.end());
    stream.insert(stream.end(), 600 + f * 37, 1.0f);
  }
  // Mild noise so correlations are not textbook-clean.
  for (auto& s : stream) s += 0.01f * static_cast<float>(rng.normal());

  std::vector<StreamFrame> whole_frames, chunk_frames;
  StreamingReceiver whole(
      config, [&](const StreamFrame& f) { whole_frames.push_back(f); });
  StreamingReceiver chunked(
      config, [&](const StreamFrame& f) { chunk_frames.push_back(f); });

  whole.process(stream);

  Rng chunk_rng(7);
  const std::size_t palette[] = {1, 2, 3, 7, 32, 63, 257, 1024, 5000};
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n =
        std::min(palette[chunk_rng.uniform_int(std::size(palette))],
                 stream.size() - pos);
    chunked.process(std::span<const float>(stream.data() + pos, n));
    pos += n;
  }

  EXPECT_GE(whole_frames.size(), 4u);
  ASSERT_EQ(whole_frames.size(), chunk_frames.size());
  for (std::size_t f = 0; f < whole_frames.size(); ++f) {
    EXPECT_EQ(whole_frames[f].status, chunk_frames[f].status) << f;
    EXPECT_EQ(whole_frames[f].payload, chunk_frames[f].payload) << f;
    EXPECT_EQ(whole_frames[f].start_sample, chunk_frames[f].start_sample)
        << f;
    EXPECT_EQ(whole_frames[f].sync_corr, chunk_frames[f].sync_corr) << f;
  }
  EXPECT_EQ(whole.samples_processed(), chunked.samples_processed());
}

TEST(StreamingReceiver, PureNoiseProducesNoFrames) {
  const auto config = small_config();
  Rng rng(7);
  std::vector<float> stream(20000);
  for (auto& s : stream) {
    s = 1.0f + 0.005f * static_cast<float>(rng.normal());
  }
  std::size_t frames = 0;
  StreamingReceiver receiver(config, [&](const StreamFrame&) { ++frames; });
  receiver.process(stream);
  EXPECT_EQ(frames, 0u);
}

TEST(StreamingReceiver, InvertedPolarityFrameDecodes) {
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(12, 0x77);
  std::vector<float> stream(1500, 1.5f);
  const auto burst = frame_waveform(tx, payload, 1.5f, 1.1f);  // darkens
  stream.insert(stream.end(), burst.begin(), burst.end());
  stream.insert(stream.end(), 1500, 1.5f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, Status::kOk);
  EXPECT_EQ(frames[0].payload, payload);
}

TEST(StreamingReceiver, ResetClearsPosition) {
  const auto config = small_config();
  StreamingReceiver receiver(config, [](const StreamFrame&) {});
  std::vector<float> noise(1000, 1.0f);
  receiver.process(noise);
  EXPECT_EQ(receiver.samples_processed(), 1000u);
  receiver.reset();
  EXPECT_EQ(receiver.samples_processed(), 0u);
}

TEST(StreamingReceiver, TruncatedFrameDoesNotWedgeTheReceiver) {
  // A burst cut off mid-body must not stall the state machine: a later
  // complete frame still decodes.
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(32, 0xAB);
  auto burst = frame_waveform(tx, payload, 1.0f, 1.4f);
  burst.resize(burst.size() / 2);  // chop mid-frame

  std::vector<float> stream(500, 1.0f);
  stream.insert(stream.end(), burst.begin(), burst.end());
  stream.insert(stream.end(), 4000, 1.0f);  // silence (body never comes)
  const auto good = frame_waveform(tx, payload, 1.0f, 1.4f);
  stream.insert(stream.end(), good.begin(), good.end());
  stream.insert(stream.end(), 2000, 1.0f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);
  // The good frame must come through; the chopped one may surface as a
  // CRC failure or be dropped at the header stage.
  bool good_seen = false;
  for (const auto& f : frames) {
    if (f.status == Status::kOk && f.payload == payload) good_seen = true;
  }
  EXPECT_TRUE(good_seen);
}

// ---------------------------------------------------------------------
// Resync hardening: decode failures rewind instead of discarding the
// collected tail, so frames hiding inside a failed candidate's collect
// window survive corrupted input.
// ---------------------------------------------------------------------

TEST(StreamingReceiver, TruncatedFrameButtedAgainstSuccessorYieldsSuccessor) {
  // Frame 1 carries a valid header (full body length L) but dies
  // mid-body; frame 2 starts immediately after the corpse. The receiver
  // collects L samples for frame 1 — overrunning frame 2's preamble —
  // and the payload CRC fails. A tail-discarding resync would lose
  // frame 2; the bounded rewind re-scans the window and recovers it.
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> first(32, 0xAB);
  const std::vector<std::uint8_t> second(20, 0x5C);
  auto corpse = frame_waveform(tx, first, 1.0f, 1.4f);
  corpse.resize(corpse.size() * 3 / 5);  // header intact, body truncated
  const auto good = frame_waveform(tx, second, 1.0f, 1.4f);

  std::vector<float> stream(600, 1.0f);
  stream.insert(stream.end(), corpse.begin(), corpse.end());
  stream.insert(stream.end(), good.begin(), good.end());  // back-to-back
  stream.insert(stream.end(), 3000, 1.0f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);
  bool second_seen = false;
  for (const auto& f : frames) {
    if (f.status == Status::kOk && f.payload == second) second_seen = true;
  }
  EXPECT_TRUE(second_seen);
  EXPECT_EQ(receiver.samples_processed(), stream.size());
}

TEST(StreamingReceiver, BackToBackFramesFirstCrcFailSecondRecovered) {
  // Frame 1 is full-length but its payload chips are mangled (header
  // fine, payload CRC fails); frame 2 follows with no gap. Both must be
  // reported: the first as a CRC failure, the second clean.
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> first(24, 0x11);
  const std::vector<std::uint8_t> second(24, 0xEE);
  auto bad = frame_waveform(tx, first, 1.0f, 1.4f);
  // Invert a stretch of mid-body chips: length/header stay valid.
  for (std::size_t i = bad.size() / 2; i < bad.size() / 2 + 200; ++i) {
    bad[i] = bad[i] > 1.2f ? 1.0f : 1.4f;
  }
  const auto good = frame_waveform(tx, second, 1.0f, 1.4f);

  std::vector<float> stream(500, 1.0f);
  stream.insert(stream.end(), bad.begin(), bad.end());
  stream.insert(stream.end(), good.begin(), good.end());
  stream.insert(stream.end(), 3000, 1.0f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);

  bool crc_fail_seen = false, second_seen = false;
  for (const auto& f : frames) {
    if (f.status != Status::kOk) crc_fail_seen = true;
    if (f.status == Status::kOk && f.payload == second) second_seen = true;
  }
  EXPECT_TRUE(crc_fail_seen);
  EXPECT_TRUE(second_seen);
}

TEST(StreamingReceiver, FlippedHeaderBytesDoNotFabricateFramesOrWedge) {
  // Frame 1's header chips are inverted (header CRC cannot pass), a
  // clean frame follows later. The corrupted candidate must not surface
  // as a decoded frame, and the receiver must keep running.
  const auto config = small_config();
  BackscatterTx tx(config);
  const std::vector<std::uint8_t> payload(16, 0x3C);
  auto corrupt = frame_waveform(tx, payload, 1.0f, 1.4f);
  const std::size_t preamble =
      default_preamble_length() * config.rates.samples_per_chip;
  // Flatten (not invert) the header chips: FM0 carries bits in its
  // transitions, so a flat stretch reliably destroys them.
  for (std::size_t i = preamble;
       i < preamble + 24 * config.rates.samples_per_chip && i < corrupt.size();
       ++i) {
    corrupt[i] = 1.4f;
  }

  std::vector<float> stream(500, 1.0f);
  stream.insert(stream.end(), corrupt.begin(), corrupt.end());
  stream.insert(stream.end(), 2000, 1.0f);
  const auto good = frame_waveform(tx, payload, 1.0f, 1.4f);
  stream.insert(stream.end(), good.begin(), good.end());
  stream.insert(stream.end(), 1500, 1.0f);

  std::vector<StreamFrame> frames;
  StreamingReceiver receiver(config,
                             [&](const StreamFrame& f) { frames.push_back(f); });
  receiver.process(stream);

  std::size_t ok_frames = 0;
  for (const auto& f : frames) {
    if (f.status == Status::kOk) {
      ++ok_frames;
      EXPECT_EQ(f.payload, payload);
    }
  }
  EXPECT_EQ(ok_frames, 1u);
  EXPECT_EQ(receiver.samples_processed(), stream.size());
}

TEST(StreamingReceiver, ResyncPathIsChunkInvariantToo) {
  // The rewind machinery must preserve the chunk-size invariance pin:
  // a corrupted multi-frame stream fed whole and in random chunks
  // reports bit-identical frames.
  const auto config = small_config();
  BackscatterTx tx(config);
  Rng rng(23);

  std::vector<float> stream(650, 1.0f);
  for (int f = 0; f < 3; ++f) {
    std::vector<std::uint8_t> payload(10 + f * 7);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    auto burst = frame_waveform(tx, payload, 1.0f, 1.4f);
    if (f == 1) burst.resize(burst.size() / 2);  // truncated corpse
    stream.insert(stream.end(), burst.begin(), burst.end());
    if (f != 1) stream.insert(stream.end(), 500 + f * 31, 1.0f);
  }
  stream.insert(stream.end(), 2500, 1.0f);
  for (auto& s : stream) s += 0.01f * static_cast<float>(rng.normal());

  std::vector<StreamFrame> whole_frames, chunk_frames;
  StreamingReceiver whole(
      config, [&](const StreamFrame& f) { whole_frames.push_back(f); });
  StreamingReceiver chunked(
      config, [&](const StreamFrame& f) { chunk_frames.push_back(f); });

  whole.process(stream);
  Rng chunk_rng(9);
  const std::size_t palette[] = {1, 3, 5, 17, 129, 777, 4096};
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n =
        std::min(palette[chunk_rng.uniform_int(std::size(palette))],
                 stream.size() - pos);
    chunked.process(std::span<const float>(stream.data() + pos, n));
    pos += n;
  }

  ASSERT_EQ(whole_frames.size(), chunk_frames.size());
  for (std::size_t f = 0; f < whole_frames.size(); ++f) {
    EXPECT_EQ(whole_frames[f].status, chunk_frames[f].status) << f;
    EXPECT_EQ(whole_frames[f].payload, chunk_frames[f].payload) << f;
    EXPECT_EQ(whole_frames[f].start_sample, chunk_frames[f].start_sample) << f;
    EXPECT_EQ(whole_frames[f].sync_corr, chunk_frames[f].sync_corr) << f;
  }
  EXPECT_EQ(whole.samples_processed(), chunked.samples_processed());
  EXPECT_EQ(whole.samples_processed(), stream.size());
}

}  // namespace
}  // namespace fdb::phy
