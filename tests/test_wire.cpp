// Unit tests for the wire helpers (rect/RLE pack–unpack–composite round
// trips, the row-span codec of the final image) and the gather_final
// ownership assembly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "check/schedule.hpp"
#include "core/compositor.hpp"
#include "core/plan_compositor.hpp"
#include "core/wire.hpp"
#include "reference_decoders.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace ref = slspvr::testing::ref;
namespace wire = slspvr::core::wire;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::random_subimage;
using slspvr::testing::row_span_pixels;

namespace {

img::Image checkerboard(int w, int h) {
  img::Image image(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if ((x + y) % 2 == 0) {
        const float v = 0.1f + 0.01f * static_cast<float>(x + y * w);
        image.at(x, y) = img::Pixel{v, v, v, 0.5f};
      }
    }
  }
  return image;
}

/// A pixel set by its four float bit patterns.
img::Pixel from_bits(std::uint32_t r, std::uint32_t g, std::uint32_t b, std::uint32_t a) {
  const std::uint32_t bits[4] = {r, g, b, a};
  img::Pixel p;
  std::memcpy(&p, bits, sizeof p);
  return p;
}

bool all_zero(const img::Image& image) {
  const img::Image zero(image.width(), image.height());
  return std::memcmp(image.pixels().data(), zero.pixels().data(),
                     image.pixels().size_bytes()) == 0;
}

/// `bytes` with the little-endian `value` written at `at`.
template <typename T>
std::vector<std::byte> poke(std::span<const std::byte> bytes, std::size_t at, T value) {
  std::vector<std::byte> out(bytes.begin(), bytes.end());
  std::memcpy(out.data() + at, &value, sizeof value);
  return out;
}

}  // namespace

TEST(Wire, PackUnpackRectRoundTrip) {
  const img::Image src = random_subimage(20, 16, 0.5, 7);
  const img::Rect rect{3, 2, 17, 13};
  img::PackBuffer buf;
  wire::pack_rect_pixels(src, rect, buf);
  EXPECT_EQ(buf.size(), static_cast<std::size_t>(rect.area()) * 16);

  // Composite onto a blank image: result must equal the source inside rect.
  img::Image dst(20, 16);
  img::UnpackBuffer in(buf.bytes());
  core::Counters counters;
  ref::unpack_composite_rect(dst, rect, in, true, counters);
  EXPECT_EQ(counters.over_ops, rect.area());
  EXPECT_EQ(counters.pixels_received, rect.area());
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 20; ++x) {
      if (rect.contains(x, y)) {
        EXPECT_EQ(dst.at(x, y), src.at(x, y));
      } else {
        EXPECT_TRUE(img::is_blank(dst.at(x, y)));
      }
    }
  }
}

TEST(Wire, EncodeRectCountsWork) {
  const img::Image src = checkerboard(16, 8);
  const img::Rect rect{0, 0, 16, 8};
  core::Counters counters;
  const img::Rle rle = wire::encode_rect(src, rect, counters);
  EXPECT_EQ(counters.encoded_pixels, rect.area());
  EXPECT_EQ(counters.codes_emitted, static_cast<std::int64_t>(rle.codes.size()));
  EXPECT_TRUE(img::rle_valid(rle));
  EXPECT_EQ(rle.non_blank_count(), rect.area() / 2);  // checkerboard
}

TEST(Wire, RleRectCompositeRoundTrip) {
  const img::Image src = random_subimage(24, 18, 0.3, 11);
  const img::Rect rect = img::bounding_rect_of(src, src.bounds());
  ASSERT_FALSE(rect.empty());
  core::Counters counters;
  const img::Rle rle = wire::encode_rect(src, rect, counters);

  img::PackBuffer buf;
  wire::pack_rle(rle, buf);
  EXPECT_EQ(static_cast<std::int64_t>(buf.size()), rle.wire_bytes());

  img::UnpackBuffer in(buf.bytes());
  const img::Rle parsed = ref::parse_rle(in, rect.area());
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(parsed.codes, rle.codes);
  EXPECT_EQ(parsed.pixels, rle.pixels);

  img::Image dst(24, 18);
  ref::composite_rle_rect(dst, rect, parsed, true, counters);
  for (int y = rect.y0; y < rect.y1; ++y) {
    for (int x = rect.x0; x < rect.x1; ++x) {
      EXPECT_EQ(dst.at(x, y), src.at(x, y)) << x << "," << y;
    }
  }
}

TEST(Wire, RleStridedCompositeRoundTrip) {
  const img::Image src = random_subimage(16, 16, 0.4, 13);
  const img::InterleavedRange range{1, 3, 85};  // indices 1,4,...,253
  core::Counters counters;
  const img::Rle rle = wire::encode_strided(src, range, counters);
  EXPECT_EQ(counters.encoded_pixels, range.count);

  img::Image dst(16, 16);
  ref::composite_rle_strided(dst, range, rle, true, counters);
  for (std::int64_t i = 0; i < range.count; ++i) {
    EXPECT_EQ(dst.at_index(range.index(i)), src.at_index(range.index(i)));
  }
  // Pixels outside the progression untouched.
  EXPECT_TRUE(img::is_blank(dst.at_index(0)));
  EXPECT_TRUE(img::is_blank(dst.at_index(2)));
}

TEST(Wire, ParseRleRejectsOvershoot) {
  img::Rle rle;
  rle.length = 5;
  rle.codes = {7};  // 7 > 5: overshoots
  img::PackBuffer buf;
  wire::pack_rle(rle, buf);
  img::UnpackBuffer in(buf.bytes());
  EXPECT_THROW((void)ref::parse_rle(in, 5), std::runtime_error);
}

TEST(Wire, ParseRleRejectsTruncation) {
  // Codes say 3 foreground pixels but only 1 is present.
  img::Rle rle;
  rle.length = 3;
  rle.codes = {0, 3};
  rle.pixels = {img::Pixel{1, 1, 1, 1}};
  img::PackBuffer buf;
  wire::pack_rle(rle, buf);
  img::UnpackBuffer in(buf.bytes());
  EXPECT_THROW((void)ref::parse_rle(in, 3), img::DecodeError);
}

TEST(Wire, EmptyRectIsFree) {
  const img::Image src(8, 8);
  core::Counters counters;
  const img::Rle rle = wire::encode_rect(src, img::kEmptyRect, counters);
  EXPECT_EQ(rle.length, 0);
  EXPECT_EQ(rle.wire_bytes(), 0);
  EXPECT_EQ(counters.encoded_pixels, 0);
}

// ---- row-span codec --------------------------------------------------------

TEST(RowSpans, RoundTripKeepsEveryNonZeroByte) {
  // Blank is a byte test: alpha 0 with a colour, -0.0 and a NaN payload are
  // all shipped, and only all-zero pixels at a row's ends are trimmed.
  img::Image src(12, 5);
  src.at(3, 1) = from_bits(0x8000'0000u, 0, 0, 0);              // -0.0 red
  src.at(0, 2) = from_bits(0x3F00'0000u, 0, 0, 0);              // alpha 0, red 0.5
  src.at(11, 2) = from_bits(0, 0x7FC1'2345u, 0, 0x3F80'0000u);  // NaN payload
  src.at(5, 3) = from_bits(0, 0, 0x0000'0001u, 0);              // smallest denormal
  src.at(6, 3) = from_bits(0, 0, 0, 0x807F'FFFFu);
  img::PackBuffer buf;
  wire::pack_row_spans(src, src.bounds(), buf);
  EXPECT_EQ(buf.size(), 8u * 5 + 16u * (0 + 1 + 12 + 2 + 0));

  img::Image back(12, 5);
  img::UnpackBuffer in(buf.bytes());
  wire::unpack_row_spans(in, src.bounds(), back);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(std::memcmp(back.pixels().data(), src.pixels().data(), src.pixels().size_bytes()),
            0);

  // A sub-rectangle: spans are relative to its left edge (row 2's two
  // pixels lie outside it), and nothing outside it is written.
  const img::Rect sub{2, 1, 9, 4};
  img::PackBuffer sub_buf;
  wire::pack_row_spans(src, sub, sub_buf);
  EXPECT_EQ(sub_buf.size(), 8u * 3 + 16u * (1 + 0 + 2));
  EXPECT_EQ(static_cast<std::int64_t>(sub_buf.size()), 8 * 3 + 16 * row_span_pixels(src, sub));
  img::Image part(12, 5);
  img::UnpackBuffer sub_in(sub_buf.bytes());
  wire::unpack_row_spans(sub_in, sub, part);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 12; ++x) {
      const img::Pixel want = sub.contains(x, y) ? src.at(x, y) : img::Pixel{};
      EXPECT_EQ(std::memcmp(&part.at(x, y), &want, sizeof want), 0) << x << "," << y;
    }
  }
}

TEST(RowSpans, DecoderRejectsBeforeWritingAPixel) {
  const img::Image src = random_subimage(16, 8, 0.5, 21);
  img::PackBuffer buf;
  wire::pack_row_spans(src, src.bounds(), buf);
  const std::span<const std::byte> good = buf.bytes();
  const auto rejects = [](std::span<const std::byte> bytes, const img::Rect& rect) {
    img::Image out(16, 8);
    img::UnpackBuffer in(bytes);
    EXPECT_THROW(wire::unpack_row_spans(in, rect, out), img::DecodeError);
    EXPECT_TRUE(all_zero(out));
  };
  rejects(good, img::Rect{0, 0, 17, 8});   // the rectangle leaves the frame
  rejects(good, img::Rect{-1, 0, 16, 8});
  rejects(poke(good, 3 * 8 + 4, std::uint32_t{17}), src.bounds());  // span past the width
  rejects(poke(good, 3 * 8, std::uint32_t{16}), src.bounds());       // offset at the edge
  rejects(poke(good, 3 * 8 + 4, std::uint32_t{0xFFFF'FFFFu}), src.bounds());
  rejects(good.first(8 * 8 - 1), src.bounds());    // truncated table
  rejects(good.first(good.size() - 1), src.bounds());  // truncated pixels
}

// ---- gather_final ownership kinds ----------------------------------------

TEST(Gather, RectOwnershipAssembles) {
  const int ranks = 4;
  // Rank r owns rows [r*4, r*4+4) of a 8x16 image filled with its rank id.
  std::vector<img::Image> locals;
  for (int r = 0; r < ranks; ++r) {
    img::Image image(8, 16);
    for (int y = r * 4; y < r * 4 + 4; ++y) {
      for (int x = 0; x < 8; ++x) {
        image.at(x, y) = img::Pixel{static_cast<float>(r), 0, 0, 1.0f};
      }
    }
    locals.push_back(std::move(image));
  }
  img::Image final_image;
  (void)slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
    const int r = comm.rank();
    const core::Ownership owned =
        core::Ownership::full_rect(img::Rect{0, r * 4, 8, r * 4 + 4});
    auto gathered =
        core::gather_final(comm, locals[static_cast<std::size_t>(r)], owned, 0);
    if (r == 0) final_image = std::move(gathered);
  });
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_FLOAT_EQ(final_image.at(x, y).r, static_cast<float>(y / 4));
    }
  }
}

TEST(Gather, InterleavedOwnershipAssembles) {
  const int ranks = 4;
  const std::int64_t n = 8 * 8;
  std::vector<img::Image> locals(ranks, img::Image(8, 8));
  // Rank r owns indices r, r+4, r+8, ... and stamps them with its id.
  for (int r = 0; r < ranks; ++r) {
    for (std::int64_t i = r; i < n; i += ranks) {
      locals[static_cast<std::size_t>(r)].at_index(i) =
          img::Pixel{static_cast<float>(r), 0, 0, 1.0f};
    }
  }
  img::Image final_image;
  (void)slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
    const int r = comm.rank();
    const core::Ownership owned = core::Ownership::interleaved(
        img::InterleavedRange{r, ranks, n / ranks});
    auto gathered =
        core::gather_final(comm, locals[static_cast<std::size_t>(r)], owned, 0);
    if (r == 0) final_image = std::move(gathered);
  });
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(final_image.at_index(i).r, static_cast<float>(i % ranks));
  }
}

TEST(Gather, FullAtRootKeepsRootImage) {
  const int ranks = 3;
  img::Image final_image;
  (void)slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
    img::Image local(4, 4);
    if (comm.rank() == 0) local.at(1, 1) = img::Pixel{0.5f, 0.5f, 0.5f, 1.0f};
    auto gathered = core::gather_final(comm, local, core::Ownership::full_at_root(), 0);
    if (comm.rank() == 0) final_image = std::move(gathered);
  });
  EXPECT_FLOAT_EQ(final_image.at(1, 1).a, 1.0f);
  EXPECT_TRUE(img::is_blank(final_image.at(0, 0)));
}

TEST(Gather, EmptyRectOwnershipContributesNothing) {
  const int ranks = 2;
  img::Image final_image;
  (void)slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
    img::Image local(4, 4);
    local.fill(img::Pixel{9, 9, 9, 1});  // should never reach the root
    const core::Ownership owned = comm.rank() == 0
                                      ? core::Ownership::full_rect(local.bounds())
                                      : core::Ownership::full_rect(img::kEmptyRect);
    auto gathered = core::gather_final(comm, local, owned, 0);
    if (comm.rank() == 0) final_image = std::move(gathered);
  });
  EXPECT_FLOAT_EQ(final_image.at(3, 3).r, 9.0f);
}

TEST(Gather, TrafficIsStageZero) {
  const int ranks = 2;
  const auto run = slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
    comm.set_stage(5);  // simulate being mid-phase before gather
    img::Image local(4, 4);
    (void)core::gather_final(comm, local, core::Ownership::full_rect(local.bounds()), 0);
  });
  for (const auto& rec : run.trace().received(0)) {
    EXPECT_EQ(rec.stage, 0);  // gather resets and records out of phase
  }
}

TEST(Gather, PlacementChecksEveryHeaderAgainstTheFrame) {
  // Header layout: kind @0, x0 y0 x1 y1 @4..20 (int32), offset @20,
  // stride @28, count @36 (int64); 44 bytes.
  const img::Image local = random_subimage(8, 6, 0.6, 5);
  img::PackBuffer rect_piece;
  core::pack_gather_piece(local, core::Ownership::full_rect(img::Rect{1, 1, 7, 5}), rect_piece);
  img::PackBuffer range_piece;
  core::pack_gather_piece(local, core::Ownership::interleaved(img::InterleavedRange{1, 3, 16}),
                          range_piece);
  for (const img::PackBuffer* piece : {&rect_piece, &range_piece}) {
    img::Image out(8, 6);
    EXPECT_NO_THROW(core::place_gather_piece(piece->bytes(), out));
  }

  const auto rejects = [](const std::vector<std::byte>& bytes) {
    img::Image out(8, 6);
    EXPECT_THROW(core::place_gather_piece(bytes, out), img::DecodeError);
    EXPECT_TRUE(all_zero(out));
  };
  const std::span<const std::byte> rect = rect_piece.bytes();
  rejects(poke(rect, 0, std::int32_t{7}));   // unknown kind
  rejects(poke(rect, 8, std::int32_t{-1}));  // y0 above the frame
  rejects(poke(rect, 12, std::int32_t{9}));  // x1 past the frame
  const std::span<const std::byte> range = range_piece.bytes();
  rejects(poke(range, 20, std::int64_t{48}));  // offset past the frame
  rejects(poke(range, 20, std::int64_t{-1}));
  rejects(poke(range, 28, std::int64_t{0}));   // stride 0
  rejects(poke(range, 36, std::int64_t{17}));  // last element 49 of 48 pixels
  rejects(poke(range, 36, std::int64_t{-1}));
  rejects(std::vector<std::byte>(range.begin(), range.end() - 1));  // short payload
}

TEST(Gather, TraceRecordsAreTheRowSpansOfEachPiece) {
  // Every tag-900 message of a BSBRC run is its header, 8 bytes per row of
  // the owned rectangle and 16 per row-span pixel — not the whole rectangle.
  const int ranks = 4;
  const auto subimages = make_subimages(ranks, 64, 48, 0.3, /*seed=*/31);
  const auto result = slspvr::testing::run_method(core::bsbrc(), subimages,
                                                  make_default_order(2));
  int pieces = 0;
  std::int64_t span_total = 0;
  for (int r = 0; r < ranks; ++r) {
    const core::Ownership& owned = result.ownerships[static_cast<std::size_t>(r)];
    ASSERT_EQ(owned.kind, core::Ownership::Kind::kRect);
    const std::int64_t spans = row_span_pixels(result.final_image, owned.rect);
    span_total += spans;
    for (const auto& rec : result.run.trace().sent(r)) {
      if (rec.tag != slspvr::check::kGatherTag) continue;
      EXPECT_EQ(static_cast<std::int64_t>(rec.bytes),
                44 + 8 * owned.rect.height() + 16 * spans)
          << "rank " << r;
      ++pieces;
    }
  }
  EXPECT_EQ(pieces, ranks - 1);
  EXPECT_LT(span_total, result.final_image.pixel_count());
}
