// Transport-layer robustness tests: CRC32C against the RFC 3720 reference
// vectors and, path by path (SSE4.2 instruction, table), against a bitwise
// reference; serial-number seq comparison across the 2^64 wraparound, bounded
// mailbox backpressure (including poison-wake of a blocked depositor), retry
// exhaustion surfacing RetryExhaustedError + the abandoned counter, and the
// byte-exact serialization used to ship worker results to the supervisor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/plan_compositor.hpp"
#include "mp/envelope.hpp"
#include "mp/errors.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"
#include "pvr/serialize.hpp"
#include "test_helpers.hpp"

namespace mp = slspvr::mp;
namespace pvr = slspvr::pvr;
namespace img = slspvr::img;
namespace core = slspvr::core;

namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = static_cast<std::byte>(s[i]);
  return out;
}

/// CRC32C one bit at a time, straight from the reflected polynomial: the
/// oracle both production paths are checked against.
std::uint32_t crc32c_bitwise(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F6'3B78u : crc >> 1;
  }
  return ~crc;
}

/// Deterministic pseudo-random bytes (xorshift64), so every run checks the
/// same buffers.
std::vector<std::byte> noise_bytes(std::size_t n, std::uint64_t state) {
  std::vector<std::byte> out(n);
  for (std::byte& b : out) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    b = static_cast<std::byte>(state >> 56);
  }
  return out;
}

using Crc32cPath = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

/// Every length 0..1024 at 8 start offsets (so the 8-byte steps meet every
/// alignment and every tail length), chained seeds, and one 3 MB buffer.
void expect_path_matches_bitwise(Crc32cPath path) {
  const std::vector<std::byte> buf = noise_bytes(1024 + 8, 0x9E37'79B9'7F4A'7C15ull);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto data = std::span(buf).subspan(offset, len);
      ASSERT_EQ(path(data, 0), crc32c_bitwise(data, 0))
          << "offset " << offset << ", length " << len;
    }
  }
  // Seeds chain: any split point, and arbitrary seeds pass through unchanged.
  const auto all = std::span(buf).first(1024);
  for (std::size_t split = 0; split <= all.size(); split += 7) {
    ASSERT_EQ(path(all.subspan(split), path(all.first(split), 0)), crc32c_bitwise(all, 0))
        << "split at " << split;
  }
  for (const std::uint32_t seed : {0x0000'0001u, 0xDEAD'BEEFu, 0xFFFF'FFFFu}) {
    ASSERT_EQ(path(all.subspan(3, 517), seed), crc32c_bitwise(all.subspan(3, 517), seed))
        << "seed " << seed;
  }
  const std::vector<std::byte> big = noise_bytes(3 * 1024 * 1024 + 5, 0xC0FF'EEull);
  EXPECT_EQ(path(big, 0), crc32c_bitwise(big, 0));
}

mp::Message make_msg(int source, int tag) {
  mp::Message m;
  m.source = source;
  m.tag = tag;
  return m;
}

}  // namespace

// --- CRC32C: the full RFC 3720 appendix B.4 vector set -----------------------

TEST(Crc32c, Rfc3720ReferenceVectors) {
  std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(mp::crc32c(zeros), 0x8A9136AAu);

  std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(mp::crc32c(ones), 0x62A8AB43u);

  std::vector<std::byte> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[static_cast<std::size_t>(i)] = std::byte(i);
  EXPECT_EQ(mp::crc32c(ascending), 0x46DD794Eu);

  std::vector<std::byte> descending(32);
  for (int i = 0; i < 32; ++i) descending[static_cast<std::size_t>(i)] = std::byte(31 - i);
  EXPECT_EQ(mp::crc32c(descending), 0x113FDB5Cu);

  EXPECT_EQ(mp::crc32c(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32c, SeedChainsPartialComputations) {
  const std::vector<std::byte> whole = bytes_of("123456789");
  const std::uint32_t first = mp::crc32c(std::span(whole).first(4));
  EXPECT_EQ(mp::crc32c(std::span(whole).subspan(4), first), mp::crc32c(whole));
}

TEST(Crc32c, TablePathMatchesBitwiseReference) {
  expect_path_matches_bitwise(&mp::detail::crc32c_table);
}

TEST(Crc32c, Sse42PathMatchesBitwiseReference) {
  if (!mp::detail::crc32c_sse42_supported()) {
    GTEST_SKIP() << "this CPU (or build) has no SSE4.2 crc32 instruction: "
                    "only the table path is checked";
  }
  expect_path_matches_bitwise(&mp::detail::crc32c_sse42);
}

// --- seq_before: RFC 1982 serial ordering across the wraparound --------------

TEST(SeqBefore, PlainOrderingAwayFromWraparound) {
  EXPECT_TRUE(mp::seq_before(0, 1));
  EXPECT_TRUE(mp::seq_before(41, 42));
  EXPECT_FALSE(mp::seq_before(42, 42));
  EXPECT_FALSE(mp::seq_before(43, 42));
}

TEST(SeqBefore, WrapsCorrectlyAcrossTwoToTheSixtyFour) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Plain `<` would call 0 older than 2^64-1; serial ordering must not.
  EXPECT_TRUE(mp::seq_before(kMax, 0));
  EXPECT_TRUE(mp::seq_before(kMax - 3, kMax));
  EXPECT_TRUE(mp::seq_before(kMax, 5));
  EXPECT_FALSE(mp::seq_before(0, kMax));
  EXPECT_FALSE(mp::seq_before(5, kMax));
}

// --- Mailbox capacity: blocking deposits and poison-wake ---------------------

TEST(MailboxCapacity, DepositBlocksUntilMatchFreesASlot) {
  mp::Mailbox box;
  box.set_capacity(2);
  box.deposit(make_msg(0, 1));
  box.deposit(make_msg(0, 1));

  std::atomic<bool> third_deposited{false};
  std::thread depositor([&] {
    box.deposit(make_msg(0, 1));  // full: must block until a match frees a slot
    third_deposited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_deposited.load());
  EXPECT_EQ(box.pending(), 2u);

  (void)box.match(0, 1);
  depositor.join();
  EXPECT_TRUE(third_deposited.load());
  EXPECT_EQ(box.pending(), 2u);
}

TEST(MailboxCapacity, PoisonWakesABlockedDepositorAndFailsMatch) {
  mp::Mailbox box;
  box.set_capacity(1);
  box.deposit(make_msg(0, 1));

  std::thread depositor([&] { box.deposit(make_msg(0, 1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.poison(3, 2, "unit test");
  depositor.join();  // poisoning lifts the bound: the depositor must return

  try {
    (void)box.match(0, 1);
    FAIL() << "match on a poisoned mailbox must throw";
  } catch (const mp::PeerFailedError& e) {
    EXPECT_EQ(e.failed_rank, 3);
    EXPECT_EQ(e.failed_stage, 2);
  }
}

TEST(MailboxCapacity, ZeroRestoresUnboundedDeposits) {
  mp::Mailbox box;
  box.set_capacity(1);
  box.set_capacity(0);
  for (int i = 0; i < 64; ++i) box.deposit(make_msg(0, 1));  // must never block
  EXPECT_EQ(box.pending(), 64u);
}

TEST(MailboxCapacity, ShrinkBelowCurrentDepthKeepsMessagesAndBlocksDeposits) {
  // Shrinking under the current depth must not drop queued messages; it only
  // gates *new* deposits until matches drain the queue under the new bound.
  mp::Mailbox box;
  for (int tag = 0; tag < 3; ++tag) box.deposit(make_msg(0, tag));
  box.set_capacity(1);
  EXPECT_EQ(box.pending(), 3u);

  std::atomic<bool> deposited{false};
  std::thread depositor([&] {
    box.deposit(make_msg(0, 99));
    deposited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(deposited.load());

  // Draining to depth 2 (still over the bound) must not release the
  // depositor; draining under the bound must.
  EXPECT_EQ(box.match(0, 0).tag, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(deposited.load());
  EXPECT_EQ(box.match(0, 1).tag, 1);
  EXPECT_EQ(box.match(0, 2).tag, 2);
  depositor.join();
  EXPECT_TRUE(deposited.load());
  EXPECT_EQ(box.match(0, 99).tag, 99);
}

TEST(MailboxCapacity, WideningWakesABlockedDepositorWithoutAMatch) {
  mp::Mailbox box;
  box.set_capacity(1);
  box.deposit(make_msg(0, 1));

  std::atomic<bool> deposited{false};
  std::thread depositor([&] {
    box.deposit(make_msg(0, 2));
    deposited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(deposited.load());
  box.set_capacity(2);  // reconfiguration alone must wake the waiter
  depositor.join();
  EXPECT_TRUE(deposited.load());
  EXPECT_EQ(box.pending(), 2u);
}

TEST(MailboxCapacity, LiftingTheBoundReleasesABlockedDepositor) {
  // set_capacity(0) mid-run acts like the poison path's bound-lift but
  // without failing the mailbox: the waiter deposits and matching proceeds.
  mp::Mailbox box;
  box.set_capacity(1);
  box.deposit(make_msg(0, 1));

  std::thread depositor([&] { box.deposit(make_msg(0, 2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.set_capacity(0);
  depositor.join();
  EXPECT_EQ(box.pending(), 2u);
  EXPECT_EQ(box.match(0, 2).tag, 2);
}

// --- Retry exhaustion: window eviction surfaces a typed error ----------------

TEST(RetryExhaustion, EvictedMessageAbandonsChannelWithTypedError) {
  // Rank 0 sends kWindow+1 messages on one channel; the first is dropped in
  // transit. By the time rank 1 looks, the in-flight window has evicted the
  // dropped seq 0 — healing is impossible, so the receive must surface
  // RetryExhaustedError (not hang) and count one abandoned channel.
  constexpr int kTag = 7;
  const int sends = static_cast<int>(mp::InflightStore::kWindow) + 1;

  mp::FaultPlan plan;
  plan.drops.push_back({/*source=*/0, /*dest=*/1, kTag, mp::kAnyStageRule, 1});
  plan.retry.max_attempts = 200;  // budget never the limiter: eviction is
  plan.retry.base_delay = std::chrono::milliseconds{1};
  plan.retry.deadline = std::chrono::milliseconds{10000};
  mp::FaultInjector injector(std::move(plan));

  mp::RunOptions opts;
  opts.injector = &injector;
  opts.retry.max_attempts = 200;
  opts.retry.base_delay = std::chrono::milliseconds{1};
  opts.retry.deadline = std::chrono::milliseconds{10000};

  const std::vector<std::byte> payload = bytes_of("x");
  auto result = mp::Runtime::run_tolerant(
      2,
      [&](mp::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < sends; ++i) comm.send(1, kTag, payload);
        }
        comm.barrier();  // receiver starts only after the window has rolled
        if (comm.rank() == 1) {
          (void)comm.recv(0, kTag);
          FAIL() << "recv of the evicted message must not succeed";
        }
      },
      opts);

  ASSERT_FALSE(result.ok());
  const mp::RankFailure& first = result.failures().front();
  EXPECT_EQ(first.rank, 1);
  EXPECT_TRUE(first.primary);
  try {
    std::rethrow_exception(first.error);
  } catch (const mp::RetryExhaustedError& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.source, 0);
    EXPECT_EQ(e.tag, kTag);
    EXPECT_NE(std::string(e.what()).find("evicted"), std::string::npos);
  } catch (...) {
    FAIL() << "expected RetryExhaustedError, got: " << first.what;
  }
  EXPECT_EQ(result.trace().retry_stats().abandoned, 1u);
}

TEST(RetryExhaustion, AbandonedChannelsAppearInFaultReportSummary) {
  pvr::FaultReport report;
  report.retry_stats.abandoned = 2;
  const std::string text = report.summary();
  EXPECT_NE(text.find("2 channel(s) abandoned after retry exhaustion"), std::string::npos);
}

// --- Serialization: byte-exact round trips -----------------------------------

TEST(Serialize, ScalarsRoundTripExactly) {
  pvr::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f32(0.1f);
  w.f64(-0.3);
  w.str("hello");
  const std::vector<std::byte> buf = std::move(w).take();

  pvr::ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f32(), 0.1f);  // bit-pattern transport: exact, not near
  EXPECT_EQ(r.f64(), -0.3);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncatedBufferThrowsOutOfRange) {
  pvr::ByteWriter w;
  w.u64(7);
  std::vector<std::byte> buf = std::move(w).take();
  buf.pop_back();
  pvr::ByteReader r(buf);
  EXPECT_THROW((void)r.u64(), std::out_of_range);
}

TEST(Serialize, ImageRoundTripIsByteIdentical) {
  img::Image image = slspvr::testing::random_subimage(9, 5, /*density=*/0.6, /*seed=*/123u);
  pvr::ByteWriter w;
  pvr::write_image(w, image);
  const std::vector<std::byte> buf = std::move(w).take();

  pvr::ByteReader r(buf);
  const img::Image back = pvr::read_image(r);
  ASSERT_EQ(back.width(), image.width());
  ASSERT_EQ(back.height(), image.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const img::Pixel& a = image.at(x, y);
      const img::Pixel& b = back.at(x, y);
      EXPECT_EQ(a.r, b.r);
      EXPECT_EQ(a.g, b.g);
      EXPECT_EQ(a.b, b.b);
      EXPECT_EQ(a.a, b.a);
    }
  }
}

TEST(Serialize, ImageGoldenBytesAndBitExactRoundTrip) {
  // A 2x1 image of awkward floats, set by bit pattern: -0.0, a quiet NaN
  // with a payload, the smallest denormal, 1.0 | a signalling NaN with a
  // payload, the largest negative denormal, 0.5, 0.0.
  const std::uint32_t bits[8] = {0x8000'0000u, 0x7FC1'2345u, 0x0000'0001u, 0x3F80'0000u,
                                 0xFFA0'0001u, 0x807F'FFFFu, 0x3F00'0000u, 0x0000'0000u};
  img::Image image(2, 1);
  std::memcpy(image.pixels().data(), bits, sizeof bits);

  pvr::ByteWriter w;
  pvr::write_image(w, image);
  const std::vector<std::byte> buf = std::move(w).take();
  // The serialisation format, fixed: width, height, the row's span (offset
  // 0, length 2: both pixels have a non-zero byte), then each float's
  // little-endian bit pattern.
  const std::vector<std::uint8_t> golden = {
      0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x45, 0x23, 0xC1, 0x7F,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F, 0x01, 0x00, 0xA0, 0xFF,
      0xFF, 0xFF, 0x7F, 0x80, 0x00, 0x00, 0x00, 0x3F, 0x00, 0x00, 0x00, 0x00};
  ASSERT_EQ(buf.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(std::to_integer<std::uint8_t>(buf[i]), golden[i]) << "byte " << i;
  }

  pvr::ByteReader r(buf);
  const img::Image back = pvr::read_image(r);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.width(), 2);
  ASSERT_EQ(back.height(), 1);
  EXPECT_EQ(std::memcmp(back.pixels().data(), bits, sizeof bits), 0);

  // An empty image is just its dimensions, and reads back empty.
  pvr::ByteWriter empty_w;
  pvr::write_image(empty_w, img::Image(0, 3));
  const std::vector<std::byte> empty_buf = std::move(empty_w).take();
  EXPECT_EQ(empty_buf.size(), 8u);
  pvr::ByteReader empty_r(empty_buf);
  const img::Image empty_back = pvr::read_image(empty_r);
  EXPECT_EQ(empty_back.width(), 0);
  EXPECT_EQ(empty_back.height(), 3);
  EXPECT_TRUE(empty_r.done());
}

TEST(Serialize, TruncatedImageThrowsOutOfRange) {
  pvr::ByteWriter w;
  pvr::write_image(w, img::Image(3, 2));
  std::vector<std::byte> buf = std::move(w).take();
  buf.pop_back();
  pvr::ByteReader r(buf);
  EXPECT_THROW((void)pvr::read_image(r), std::out_of_range);
}

TEST(Serialize, ImageReportIsTheRowSpansOfTheFrame) {
  // Rank 0's kReportImage of a procs-orbit frame (engine_low at scale 1.0,
  // 384^2, the ring's first view): width, height, 8 bytes per row and 16 per
  // row-span pixel, read back byte for byte.
  const pvr::Experiment experiment(pvr::ExperimentConfig{});
  const img::Image frame = experiment.run(core::bsbrc()).final_image;
  ASSERT_EQ(frame.height(), 384);
  pvr::ByteWriter w;
  pvr::write_image(w, frame);
  const std::vector<std::byte> buf = std::move(w).take();
  const std::int64_t spans = slspvr::testing::row_span_pixels(frame, frame.bounds());
  EXPECT_EQ(static_cast<std::int64_t>(buf.size()), 8 + 8 * 384 + 16 * spans);
  EXPECT_LT(spans, frame.pixel_count() / 2);

  pvr::ByteReader r(buf);
  const img::Image back = pvr::read_image(r);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.width(), frame.width());
  ASSERT_EQ(back.height(), frame.height());
  EXPECT_EQ(std::memcmp(back.pixels().data(), frame.pixels().data(),
                        frame.pixels().size_bytes()),
            0);
}

TEST(Serialize, MalformedImageThrowsOutOfRange) {
  // Everything read_image rejects is std::out_of_range, the one error
  // decode_reports drops a report for: bad dimensions before anything is
  // allocated, and a row span past the image's width.
  const auto header = [](std::int32_t width, std::int32_t height) {
    pvr::ByteWriter w;
    w.i32(width);
    w.i32(height);
    for (int i = 0; i < 4; ++i) w.u64(0);  // room for four empty rows
    return std::move(w).take();
  };
  for (const auto& [width, height] :
       {std::pair{-1, 2}, std::pair{2, -1}, std::pair{pvr::kMaxImageSide + 1, 1},
        std::pair{1, pvr::kMaxImageSide + 1}, std::pair{3, 5}}) {
    const std::vector<std::byte> buf = header(width, height);
    pvr::ByteReader r(buf);
    EXPECT_THROW((void)pvr::read_image(r), std::out_of_range) << width << "x" << height;
  }
  pvr::ByteWriter w;
  w.i32(3);
  w.i32(1);
  w.u32(2);  // offset 2, length 2: one pixel past the width
  w.u32(2);
  for (int i = 0; i < 8; ++i) w.f32(1.0f);
  const std::vector<std::byte> buf = std::move(w).take();
  pvr::ByteReader r(buf);
  EXPECT_THROW((void)pvr::read_image(r), std::out_of_range);
}

TEST(Serialize, MessageRecordRoundTrips) {
  core::Counters counters;
  counters.over_ops = 17;
  counters.pixels_sent = 4096;
  core::OpTotals mark;
  mark.over_ops = 9;
  mark.codes_emitted = 2;
  counters.stage_marks.push_back(mark);

  pvr::ByteWriter w;
  pvr::write_counters(w, counters);
  mp::MessageRecord rec;
  rec.peer = 3;
  rec.tag = -1002;
  rec.bytes = 512;
  rec.stage = 2;
  rec.seq = 9;
  rec.index = 41;
  rec.clock = {1, 2, 3, 4};
  pvr::write_record(w, rec);
  const std::vector<std::byte> buf = std::move(w).take();

  pvr::ByteReader r(buf);
  const core::Counters c2 = pvr::read_counters(r);
  EXPECT_EQ(c2.over_ops, counters.over_ops);
  EXPECT_EQ(c2.pixels_sent, counters.pixels_sent);
  ASSERT_EQ(c2.stage_marks.size(), 1u);
  EXPECT_EQ(c2.stage_marks[0], mark);
  const mp::MessageRecord r2 = pvr::read_record(r);
  EXPECT_EQ(r2.peer, rec.peer);
  EXPECT_EQ(r2.tag, rec.tag);
  EXPECT_EQ(r2.bytes, rec.bytes);
  EXPECT_EQ(r2.stage, rec.stage);
  EXPECT_EQ(r2.seq, rec.seq);
  EXPECT_EQ(r2.index, rec.index);
  EXPECT_EQ(r2.clock, rec.clock);
  EXPECT_TRUE(r.done());
}
