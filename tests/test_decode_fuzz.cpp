// Deterministic decode fuzzing: seed-mutated byte buffers (random flips,
// truncations, oversized length fields, appended garbage) pushed through
// every wire.hpp decoder (the streaming views and the row-span codec), the
// per-message reference unpackers (reference_decoders.hpp), every codec's
// decode (the path every frame takes) on a 1-wide and a 3-wide engine, the
// gather's piece placement, the worker image report reader and the
// transport envelope parser. Each decoder must either succeed or reject
// with its typed error — never read or write out of bounds (the ASan/UBSan
// CI jobs turn any violation into a failure).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/compositor.hpp"
#include "core/counters.hpp"
#include "core/wire.hpp"
#include "core/worker_pool.hpp"
#include "mp/envelope.hpp"
#include "mp/socket.hpp"
#include "pvr/serialize.hpp"
#include "reference_decoders.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace mp = slspvr::mp;
namespace pvr = slspvr::pvr;
namespace ref = slspvr::testing::ref;
namespace wire = slspvr::core::wire;
using slspvr::testing::make_subimages;

namespace {

constexpr img::Rect kBounds{0, 0, 32, 24};
constexpr img::Rect kRect{4, 4, 20, 16};
/// An interleaved progression inside kBounds (elements 1, 4, ..., 763).
constexpr img::InterleavedRange kRange{1, 3, 255};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Apply one or two seeded mutations: byte flips, truncation, a 4-byte
/// window stomped with 0xFF (oversized count/length fields), or appended
/// garbage. Deterministic in `seed`.
std::vector<std::byte> mutate(std::vector<std::byte> bytes, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto pick = [&](std::uint64_t n) -> std::uint64_t {
    return n == 0 ? 0 : splitmix64(state) % n;
  };
  const int rounds = 1 + static_cast<int>(pick(2));
  for (int round = 0; round < rounds; ++round) {
    switch (pick(4)) {
      case 0: {  // flip 1..8 random bytes
        const std::uint64_t flips = 1 + pick(8);
        for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
          bytes[pick(bytes.size())] ^= std::byte{static_cast<unsigned char>(1 + pick(255))};
        }
        break;
      }
      case 1:  // truncate to a random prefix
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // stomp a 4-byte window with 0xFF: huge length/count fields
        if (bytes.size() >= 4) {
          const std::uint64_t at = pick(bytes.size() - 3);
          for (std::uint64_t i = 0; i < 4; ++i) bytes[at + i] = std::byte{0xFF};
        }
        break;
      }
      default: {  // append 1..32 garbage bytes
        const std::uint64_t extra = 1 + pick(32);
        for (std::uint64_t i = 0; i < extra; ++i) {
          bytes.push_back(std::byte{static_cast<unsigned char>(pick(256))});
        }
        break;
      }
    }
  }
  return bytes;
}

struct FuzzTarget {
  std::string name;
  std::vector<std::byte> valid;  ///< a well-formed encoding to mutate
  std::function<void(const std::vector<std::byte>&)> decode;
};

std::vector<FuzzTarget> make_targets() {
  const auto subimages = make_subimages(1, kBounds.x1, kBounds.y1, 0.5, /*seed=*/11);
  const img::Image& source = subimages.front();
  core::Counters counters;
  std::vector<FuzzTarget> targets;

  {
    img::PackBuffer buf;
    buf.put(img::to_wire(kRect));
    targets.push_back({"parse_rect", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::UnpackBuffer in(bytes);
                         (void)wire::parse_rect(in, kBounds);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_rle(wire::encode_rect(source, kRect, counters), buf);
    targets.push_back({"parse_rle", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::UnpackBuffer in(bytes);
                         (void)ref::parse_rle(in, kRect.area());
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_rle(wire::encode_rect(source, kRect, counters), buf);
    targets.push_back({"parse_rle_view", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         std::vector<img::Pixel> pixel_bounce;
                         std::vector<std::uint16_t> code_bounce;
                         img::UnpackBuffer in(bytes);
                         (void)wire::parse_rle_view(in, kRect.area(), pixel_bounce,
                                                    code_bounce);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_spans(wire::encode_spans(source, kRect, counters), buf);
    targets.push_back({"parse_spans", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::UnpackBuffer in(bytes);
                         (void)ref::parse_spans(in, kRect);
                       }});
    targets.push_back({"parse_spans_view", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         std::vector<img::Pixel> pixel_bounce;
                         img::UnpackBuffer in(bytes);
                         (void)wire::parse_spans_view(in, kRect, pixel_bounce);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_rect_pixels(source, kRect, buf);
    targets.push_back({"unpack_composite_rect", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::Counters c;
                         img::UnpackBuffer in(bytes);
                         ref::unpack_composite_rect(image, kRect, in, true, c);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_raw_rect(source, kRect, buf, counters);
    targets.push_back({"unpack_composite_raw_rect", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::Counters c;
                         img::UnpackBuffer in(bytes);
                         (void)ref::unpack_composite_raw_rect(image, in, kBounds, true, c);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_rle_rect(source, kRect, buf, counters);
    targets.push_back({"unpack_composite_rle_rect", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::Counters c;
                         img::UnpackBuffer in(bytes);
                         (void)ref::unpack_composite_rle_rect(image, in, kBounds, true, c);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_span_rect(source, kRect, buf, counters);
    targets.push_back({"unpack_composite_span_rect", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::Counters c;
                         img::UnpackBuffer in(bytes);
                         (void)ref::unpack_composite_span_rect(image, in, kBounds, true, c);
                       }});
  }
  // Every codec's decode into a fresh frame, through a 1-wide engine (the
  // blend runs inline) and a 3-wide one (it bands across pool threads).
  // Each target builds its engine once and reuses it for every mutation.
  for (const int workers : {1, 3}) {
    const std::string width = " x" + std::to_string(workers);
    for (const core::CodecKind kind :
         {core::CodecKind::kFullPixel, core::CodecKind::kBoundingRect,
          core::CodecKind::kRleRect, core::CodecKind::kSpanRect}) {
      const core::PayloadCodec& codec = core::codec_for(kind);
      const auto engine = std::make_shared<core::EngineContext>(core::EngineConfig{workers});
      img::PackBuffer buf;
      codec.encode_rect(source, kRect, kRect, buf, counters);
      targets.push_back({std::string(codec.name()) + " decode_rect" + width,
                         {buf.bytes().begin(), buf.bytes().end()},
                         [&codec, engine](const std::vector<std::byte>& bytes) {
                           img::Image image(kBounds.x1, kBounds.y1);
                           core::Counters c;
                           img::UnpackBuffer in(bytes);
                           core::DecodeSink sink{image, true, c, *engine};
                           (void)codec.decode_rect(sink, kRect, in);
                         }});
    }
    const core::PayloadCodec& codec = core::codec_for(core::CodecKind::kInterleavedRle);
    const auto engine = std::make_shared<core::EngineContext>(core::EngineConfig{workers});
    img::PackBuffer buf;
    codec.encode_range(source, kRange, buf, counters);
    targets.push_back({std::string(codec.name()) + " decode_range" + width,
                       {buf.bytes().begin(), buf.bytes().end()},
                       [&codec, engine](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::Counters c;
                         img::UnpackBuffer in(bytes);
                         core::DecodeSink sink{image, true, c, *engine};
                         codec.decode_range(sink, kRange, in);
                       }});
  }
  {
    img::PackBuffer buf;
    wire::pack_row_spans(source, kRect, buf);
    targets.push_back({"unpack_row_spans", {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         img::UnpackBuffer in(bytes);
                         wire::unpack_row_spans(in, kRect, image);
                       }});
  }
  for (const core::Ownership& owned :
       {core::Ownership::full_rect(kRect), core::Ownership::interleaved(kRange)}) {
    img::PackBuffer buf;
    core::pack_gather_piece(source, owned, buf);
    targets.push_back({owned.kind == core::Ownership::Kind::kRect
                           ? "place_gather_piece rect"
                           : "place_gather_piece interleaved",
                       {buf.bytes().begin(), buf.bytes().end()},
                       [](const std::vector<std::byte>& bytes) {
                         img::Image image(kBounds.x1, kBounds.y1);
                         core::place_gather_piece(bytes, image);
                       }});
  }
  {
    pvr::ByteWriter w;
    pvr::write_image(w, source);
    targets.push_back({"read_image", std::move(w).take(),
                       [](const std::vector<std::byte>& bytes) {
                         // read_image's typed reject is std::out_of_range,
                         // the error decode_reports drops a report for.
                         pvr::ByteReader r(bytes);
                         try {
                           (void)pvr::read_image(r);
                         } catch (const std::out_of_range& e) {
                           throw img::DecodeError(e.what());
                         }
                       }});
  }
  {
    const std::vector<std::byte> payload(97, std::byte{0x5A});
    targets.push_back({"parse_envelope", mp::pack_envelope(/*seq=*/7, payload),
                       [](const std::vector<std::byte>& bytes) {
                         (void)mp::parse_envelope(bytes);
                       }});
  }
  return targets;
}

}  // namespace

// Every decoder, fed hundreds of deterministic mutations of a well-formed
// message, either succeeds or rejects with its typed error. Anything else —
// a different exception, a crash, an out-of-bounds access under ASan/UBSan —
// fails the test.
TEST(DecodeFuzz, EveryDecoderSurvivesMutatedBytes) {
  for (const FuzzTarget& target : make_targets()) {
    SCOPED_TRACE(target.name);
    // The unmutated encoding must decode cleanly (the target is wired right).
    ASSERT_NO_THROW(target.decode(target.valid));
    for (std::uint64_t seed = 1; seed <= 250; ++seed) {
      const std::vector<std::byte> bytes = mutate(target.valid, seed * 0x9E3779B9ULL);
      try {
        target.decode(bytes);
      } catch (const img::DecodeError&) {
        // typed reject: fine
      } catch (const mp::EnvelopeError&) {
        // typed reject: fine
      } catch (const std::exception& e) {
        ADD_FAILURE() << target.name << " seed " << seed << ": untyped exception "
                      << e.what();
      }
    }
  }
}

// ---- transport envelope unit coverage --------------------------------------

TEST(DecodeFuzz, EnvelopeRoundTripPreservesSeqAndPayload) {
  std::vector<std::byte> payload(33);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = std::byte{static_cast<unsigned char>(i * 7)};
  }
  const std::vector<std::byte> framed = mp::pack_envelope(0xDEADBEEFCAFEULL, payload);
  EXPECT_EQ(framed.size(), mp::kEnvelopeHeaderBytes + payload.size());
  const mp::ParsedEnvelope parsed = mp::parse_envelope(framed);
  EXPECT_EQ(parsed.seq, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(parsed.payload, payload);
}

TEST(DecodeFuzz, EnvelopeRejectsTruncationMagicLengthAndCrc) {
  const std::vector<std::byte> payload(16, std::byte{0x42});
  const std::vector<std::byte> framed = mp::pack_envelope(1, payload);

  // Truncated header.
  EXPECT_THROW((void)mp::parse_envelope(std::vector<std::byte>(framed.begin(),
                                                               framed.begin() + 10)),
               mp::EnvelopeError);
  // Bad magic.
  auto bad_magic = framed;
  bad_magic[0] = std::byte{0x00};
  EXPECT_THROW((void)mp::parse_envelope(bad_magic), mp::EnvelopeError);
  // Length field larger than the buffer.
  auto bad_length = framed;
  bad_length[4] = std::byte{0xFF};
  bad_length[5] = std::byte{0xFF};
  EXPECT_THROW((void)mp::parse_envelope(bad_length), mp::EnvelopeError);
  // Payload corruption must be caught by the checksum.
  auto flipped = framed;
  flipped.back() ^= std::byte{0x01};
  EXPECT_THROW((void)mp::parse_envelope(flipped), mp::EnvelopeError);
  // Header (seq) corruption is covered by the checksum too.
  auto seq_flip = framed;
  seq_flip[9] ^= std::byte{0x80};
  EXPECT_THROW((void)mp::parse_envelope(seq_flip), mp::EnvelopeError);
}

// ---- incarnation (generation) field: stale-rejection at the decode layer ----

// Rank identity on the wire is (rank, generation): the envelope carries the
// sender incarnation inside the CRC-covered header, so a damaged generation
// can never masquerade as a different incarnation — it is a typed framing
// reject, not a delivery.
TEST(DecodeFuzz, EnvelopeGenerationIsCrcProtected) {
  const std::vector<std::byte> payload(21, std::byte{0x6B});
  const std::vector<std::byte> framed = mp::pack_envelope(/*seq=*/9, payload,
                                                          /*generation=*/7);
  const mp::ParsedEnvelope parsed = mp::parse_envelope(framed);
  EXPECT_EQ(parsed.generation, 7u);
  EXPECT_EQ(parsed.seq, 9u);
  // Envelope layout: generation occupies header bytes [16..20). Every
  // single-bit change there must trip the checksum.
  for (std::size_t at = 16; at < 20; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto stale = framed;
      stale[at] ^= std::byte{static_cast<unsigned char>(1 << bit)};
      EXPECT_THROW((void)mp::parse_envelope(stale), mp::EnvelopeError)
          << "byte " << at << " bit " << bit;
    }
  }
}

// The generation space is uint32 and the supervisor bumps it with ++, so an
// extremely long-lived rank can wrap. Stale rejection is *equality*-based
// (never ordered comparison), which stays sound across the wrap — but only
// if the decode layer round-trips the extremes exactly. UINT32_MAX and the
// post-wrap 0 must decode as themselves and as distinct incarnations.
TEST(DecodeFuzz, GenerationWraparoundRoundTripsExactly) {
  const std::vector<std::byte> payload(5, std::byte{0x11});
  const mp::ParsedEnvelope last = mp::parse_envelope(
      mp::pack_envelope(/*seq=*/0, payload, /*generation=*/0xFFFFFFFFu));
  const mp::ParsedEnvelope wrapped =
      mp::parse_envelope(mp::pack_envelope(/*seq=*/0, payload, /*generation=*/0u));
  EXPECT_EQ(last.generation, 0xFFFFFFFFu);
  EXPECT_EQ(wrapped.generation, 0u);
  EXPECT_NE(last.generation, wrapped.generation);
}

TEST(DecodeFuzz, Crc32cMatchesKnownVector) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes is 0x8A9136AA.
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(mp::crc32c(zeros), 0x8A9136AAu);
}

// ---- FrameReader: the supervisor's incremental SLPW parser ------------------

namespace {

/// A representative frame stream: hello, a data frame with clock + payload,
/// goodbye — the shapes the supervisor's router actually sees.
std::vector<mp::Frame> sample_frames() {
  mp::Frame hello;
  hello.kind = mp::FrameKind::kHello;
  hello.source = 2;

  mp::Frame data;
  data.kind = mp::FrameKind::kData;
  data.source = 2;
  data.dest = 0;
  data.tag = 5;
  data.seq = 41;
  data.clock = {3, 0, 7, 1};
  data.payload.assign(29, std::byte{0xA7});

  mp::Frame goodbye;
  goodbye.kind = mp::FrameKind::kGoodbye;
  goodbye.source = 2;
  return {hello, data, goodbye};
}

std::vector<std::byte> pack_stream(const std::vector<mp::Frame>& frames) {
  std::vector<std::byte> stream;
  for (const mp::Frame& f : frames) {
    const std::vector<std::byte> packed = mp::pack_frame(f);
    stream.insert(stream.end(), packed.begin(), packed.end());
  }
  return stream;
}

void expect_frames_equal(const std::vector<mp::Frame>& want,
                         const std::vector<mp::Frame>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].kind, got[i].kind) << "frame " << i;
    EXPECT_EQ(want[i].source, got[i].source) << "frame " << i;
    EXPECT_EQ(want[i].dest, got[i].dest) << "frame " << i;
    EXPECT_EQ(want[i].tag, got[i].tag) << "frame " << i;
    EXPECT_EQ(want[i].seq, got[i].seq) << "frame " << i;
    EXPECT_EQ(want[i].clock, got[i].clock) << "frame " << i;
    EXPECT_EQ(want[i].payload, got[i].payload) << "frame " << i;
  }
}

}  // namespace

// recv() can hand the router any split of the byte stream. Re-parse the
// sample stream once per possible split point — every byte boundary,
// including mid-magic, mid-length and mid-envelope — and require identical
// frames out each time.
TEST(DecodeFuzz, FrameReaderReassemblesAcrossEverySplitPoint) {
  const std::vector<mp::Frame> want = sample_frames();
  const std::vector<std::byte> stream = pack_stream(want);
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    mp::FrameReader reader;
    reader.feed(std::span<const std::byte>(stream.data(), split));
    std::vector<mp::Frame> got;
    while (std::optional<mp::Frame> f = reader.next()) got.push_back(*std::move(f));
    reader.feed(std::span<const std::byte>(stream.data() + split, stream.size() - split));
    while (std::optional<mp::Frame> f = reader.next()) got.push_back(*std::move(f));
    ASSERT_NO_FATAL_FAILURE(expect_frames_equal(want, got)) << "split at " << split;
    EXPECT_EQ(reader.buffered(), 0u) << "split at " << split;
  }
}

// Degenerate delivery: one byte per feed() call, which exercises every
// internal buffering boundary at once.
TEST(DecodeFuzz, FrameReaderSurvivesByteAtATimeDelivery) {
  const std::vector<mp::Frame> want = sample_frames();
  const std::vector<std::byte> stream = pack_stream(want);
  mp::FrameReader reader;
  std::vector<mp::Frame> got;
  for (const std::byte b : stream) {
    reader.feed(std::span<const std::byte>(&b, 1));
    while (std::optional<mp::Frame> f = reader.next()) got.push_back(*std::move(f));
  }
  expect_frames_equal(want, got);
  EXPECT_EQ(reader.buffered(), 0u);
}

// A truncated stream is not an error for the incremental parser — the peer
// may still be writing. next() must return nothing and leave the partial
// frame buffered (which the supervisor reports if EOF follows).
TEST(DecodeFuzz, FrameReaderHoldsTruncatedFramesWithoutThrowing) {
  const std::vector<mp::Frame> frames = sample_frames();
  const std::vector<std::byte> stream = pack_stream(frames);
  // Cumulative end offset of each whole frame in the stream.
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  for (const mp::Frame& f : frames) {
    off += mp::pack_frame(f).size();
    ends.push_back(off);
  }
  for (std::size_t len = 0; len < stream.size(); ++len) {
    mp::FrameReader reader;
    reader.feed(std::span<const std::byte>(stream.data(), len));
    std::size_t drained = 0;
    while (true) {
      std::optional<mp::Frame> f;
      ASSERT_NO_THROW(f = reader.next()) << "prefix length " << len;
      if (!f) break;
      ++drained;
    }
    // Exactly the whole frames fitting in the prefix come out; the torn
    // tail stays buffered for the next feed().
    std::size_t whole = 0;
    std::size_t consumed = 0;
    while (whole < ends.size() && ends[whole] <= len) consumed = ends[whole++];
    EXPECT_EQ(drained, whole) << "prefix length " << len;
    EXPECT_EQ(reader.buffered(), len - consumed) << "prefix length " << len;
  }
}

// A garbage prefix (stream out of sync) must be a typed TransportError, not
// a hang or a misparse that invents a frame.
TEST(DecodeFuzz, FrameReaderRejectsGarbagePrefix) {
  const std::vector<std::byte> stream = pack_stream(sample_frames());
  std::uint64_t state = 0x5EEDF00DULL;
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::byte> garbled;
    const std::uint64_t junk = 4 + splitmix64(state) % 16;
    for (std::uint64_t i = 0; i < junk; ++i) {
      std::byte b{static_cast<unsigned char>(splitmix64(state) % 256)};
      // Keep the first byte off 'S' so the magic check, not a length check,
      // is what trips.
      if (i == 0 && b == std::byte{'S'}) b = std::byte{'X'};
      garbled.push_back(b);
    }
    garbled.insert(garbled.end(), stream.begin(), stream.end());
    mp::FrameReader reader;
    reader.feed(garbled);
    EXPECT_THROW((void)reader.next(), mp::TransportError) << "trial " << trial;
  }
}

// Incarnation safety starts at the parser: mutate the generation field of
// each frame in a framed stream in turn. The frames *before* the damaged one
// must come out intact (with their true generation), the damaged one must be
// a typed reject with zero deliveries — a stale or forged incarnation can
// never slip a frame through — and buffered() must account for every byte
// exactly at the boundary.
TEST(DecodeFuzz, FrameReaderRejectsMutatedGenerationWithoutDelivery) {
  std::vector<mp::Frame> frames = sample_frames();
  for (mp::Frame& f : frames) f.generation = 3;  // a respawned incarnation
  std::vector<std::size_t> starts;  // byte offset of each frame in the stream
  std::vector<std::byte> stream;
  for (const mp::Frame& f : frames) {
    starts.push_back(stream.size());
    const std::vector<std::byte> packed = mp::pack_frame(f);
    stream.insert(stream.end(), packed.begin(), packed.end());
  }
  // Generation lives in the SLP1 envelope header at offset [16..20), behind
  // the 8-byte SLPW frame header.
  constexpr std::size_t kGenerationOffset = mp::kFrameHeaderBytes + 16;
  for (std::size_t damaged = 0; damaged < frames.size(); ++damaged) {
    auto bytes = stream;
    bytes[starts[damaged] + kGenerationOffset] ^= std::byte{0x01};

    mp::FrameReader reader;
    // Everything up to the damaged frame drains whole, carrying the true
    // incarnation, with nothing left buffered.
    reader.feed(std::span<const std::byte>(bytes.data(), starts[damaged]));
    std::size_t drained = 0;
    while (std::optional<mp::Frame> f = reader.next()) {
      EXPECT_EQ(f->generation, 3u) << "damaged " << damaged;
      ++drained;
    }
    EXPECT_EQ(drained, damaged) << "damaged " << damaged;
    EXPECT_EQ(reader.buffered(), 0u) << "damaged " << damaged;

    // The damaged frame itself: typed reject on the very first next(), so
    // the flipped-generation frame is never delivered.
    reader.feed(std::span<const std::byte>(bytes.data() + starts[damaged],
                                           bytes.size() - starts[damaged]));
    EXPECT_THROW((void)reader.next(), mp::TransportError) << "damaged " << damaged;
  }
}

// Seed-mutated frame streams: the reader either yields frames or throws its
// typed TransportError. Any other exception (or an out-of-bounds read under
// the sanitizer jobs) is a parser bug.
TEST(DecodeFuzz, FrameReaderSurvivesMutatedStreams) {
  const std::vector<std::byte> stream = pack_stream(sample_frames());
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    const std::vector<std::byte> bytes = mutate(stream, seed * 0x9E3779B9ULL);
    mp::FrameReader reader;
    try {
      reader.feed(bytes);
      while (reader.next()) {
      }
    } catch (const mp::TransportError&) {
      // typed reject: fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << "FrameReader seed " << seed << ": untyped exception " << e.what();
    }
  }
}
