// Tests for the scanline-span codec (future-work encoding) and the BSBRS /
// BSBRC-tight compositor variants built on it.
#include <gtest/gtest.h>

#include "core/plan_compositor.hpp"
#include "core/wire.hpp"
#include "image/spans.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace wire = slspvr::core::wire;
using slspvr::testing::expect_images_near;
using slspvr::testing::make_default_order;
using slspvr::testing::make_order;
using slspvr::testing::make_subimages;
using slspvr::testing::random_subimage;
using slspvr::testing::run_method;

TEST(Spans, EmptyRect) {
  const img::Image image(8, 8);
  const img::SpanImage spans = img::span_encode_rect(image, img::kEmptyRect);
  EXPECT_TRUE(img::span_valid(spans));
  EXPECT_EQ(spans.wire_bytes(), 0);
  EXPECT_EQ(spans.non_blank_count(), 0);
}

TEST(Spans, BlankRowsCostTwoBytes) {
  const img::Image image(10, 5);
  const img::Rect rect{0, 0, 10, 5};
  std::int64_t scanned = 0;
  const img::SpanImage spans = img::span_encode_rect(image, rect, &scanned);
  EXPECT_TRUE(img::span_valid(spans));
  EXPECT_EQ(scanned, 50);
  EXPECT_EQ(spans.wire_bytes(), 2 * 5);  // five blank rows, no spans
}

TEST(Spans, SingleRowRuns) {
  img::Image image(12, 1);
  // Two runs: [2,5) and [8,10).
  for (const int x : {2, 3, 4, 8, 9}) image.at(x, 0) = img::Pixel{0.5f, 0.5f, 0.5f, 1.0f};
  const img::SpanImage spans = img::span_encode_rect(image, image.bounds());
  EXPECT_TRUE(img::span_valid(spans));
  ASSERT_EQ(spans.spans.size(), 2u);
  EXPECT_EQ(spans.spans[0], (img::Span{2, 3}));
  EXPECT_EQ(spans.spans[1], (img::Span{8, 2}));
  EXPECT_EQ(spans.non_blank_count(), 5);
}

TEST(Spans, OffsetsAreRelativeToRect) {
  img::Image image(12, 4);
  image.at(6, 2) = img::Pixel{1, 1, 1, 1};
  const img::Rect rect{4, 1, 10, 4};
  const img::SpanImage spans = img::span_encode_rect(image, rect);
  ASSERT_EQ(spans.spans.size(), 1u);
  EXPECT_EQ(spans.spans[0].x, 2);  // 6 - rect.x0
  EXPECT_EQ(spans.row_counts[1], 1u);  // row y=2 is rect-relative row 1
}

TEST(Spans, CompositeRoundTrip) {
  const img::Image src = random_subimage(24, 18, 0.35, 77);
  const img::Rect rect = img::bounding_rect_of(src, src.bounds());
  const img::SpanImage spans = img::span_encode_rect(src, rect);
  ASSERT_TRUE(img::span_valid(spans));

  img::Image dst(24, 18);
  const std::int64_t ops = img::span_composite(dst, spans, true);
  EXPECT_EQ(ops, spans.non_blank_count());
  for (int y = 0; y < 18; ++y) {
    for (int x = 0; x < 24; ++x) {
      EXPECT_EQ(dst.at(x, y), src.at(x, y)) << x << "," << y;
    }
  }
}

TEST(Spans, WirePackParseRoundTrip) {
  const img::Image src = random_subimage(20, 20, 0.25, 3);
  const img::Rect rect = img::bounding_rect_of(src, src.bounds());
  core::Counters counters;
  const img::SpanImage spans = wire::encode_spans(src, rect, counters);
  EXPECT_EQ(counters.encoded_pixels, rect.area());

  img::PackBuffer buf;
  wire::pack_spans(spans, buf);
  EXPECT_EQ(static_cast<std::int64_t>(buf.size()), spans.wire_bytes());

  img::UnpackBuffer in(buf.bytes());
  const img::SpanImage parsed = wire::parse_spans(in, rect);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(parsed.row_counts, spans.row_counts);
  EXPECT_EQ(parsed.spans, spans.spans);
  EXPECT_EQ(parsed.pixels, spans.pixels);
}

TEST(Spans, ValidatorCatchesCorruption) {
  img::Image image(8, 2);
  image.at(1, 0) = img::Pixel{1, 1, 1, 1};
  img::SpanImage spans = img::span_encode_rect(image, image.bounds());
  ASSERT_TRUE(img::span_valid(spans));

  auto bad = spans;
  bad.spans[0].len = 0;
  EXPECT_FALSE(img::span_valid(bad));

  bad = spans;
  bad.spans[0].x = 20;  // beyond rect width
  EXPECT_FALSE(img::span_valid(bad));

  bad = spans;
  bad.pixels.push_back(img::Pixel{1, 1, 1, 1});
  EXPECT_FALSE(img::span_valid(bad));

  bad = spans;
  bad.row_counts[1] = 9;
  EXPECT_FALSE(img::span_valid(bad));
}

TEST(Spans, WireBytesVersusRleTradeoff) {
  // Wide blank rectangle with a single solid row: spans pay 2 bytes/row but
  // describe the solid row with one span; RLE pays per run boundary. Both
  // must round-trip; the bench measures the crossover.
  img::Image image(64, 64);
  for (int x = 0; x < 64; ++x) image.at(x, 32) = img::Pixel{0.5f, 0.5f, 0.5f, 1.0f};
  const img::Rect rect = image.bounds();
  const img::SpanImage spans = img::span_encode_rect(image, rect);
  core::Counters counters;
  const img::Rle rle = wire::encode_rect(image, rect, counters);
  EXPECT_EQ(spans.non_blank_count(), rle.non_blank_count());
  // spans: 64 rows * 2 + 1 span * 4 + 64 px * 16 = 1156
  EXPECT_EQ(spans.wire_bytes(), 64 * 2 + 4 + 64 * 16);
  // rle: 3 codes (blank, fg, blank) * 2 + 64 px * 16 = 1030
  EXPECT_EQ(rle.wire_bytes(), 6 + 64 * 16);
}

// ---- compositors built on the codec --------------------------------------

class SpanCompositors : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SpanCompositors, BsbrsMatchesReference) {
  const auto [ranks, density] = GetParam();
  int levels = 0;
  while ((1 << levels) < ranks) ++levels;
  const auto subimages = make_subimages(ranks, 48, 40, density, 808);
  const auto order = make_default_order(levels);
  const auto result = run_method(core::bsbrs(), subimages, order);
  expect_images_near(result.final_image,
                     core::composite_reference(subimages, order.front_to_back));
}

INSTANTIATE_TEST_SUITE_P(RanksAndDensities, SpanCompositors,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                                            ::testing::Values(0.0, 0.2, 0.9)));

TEST(SpanCompositors, BsbrcTightRescanMatchesReference) {
  const auto subimages = make_subimages(8, 40, 40, 0.3, 909);
  const auto order = make_order(3, {true, false, true});
  const auto reference = core::composite_reference(subimages, order.front_to_back);
  const auto result = run_method(core::bsbrc_tight(), subimages, order);
  expect_images_near(result.final_image, reference);
}

TEST(SpanCompositors, TightRescanNeverShipsMoreBytes) {
  // The tight rectangle is contained in the incremental-union rectangle, so
  // per-rank payloads can only shrink (scan cost grows instead).
  const auto subimages = make_subimages(8, 64, 64, 0.15, 606);
  const auto order = make_default_order(3);
  const auto loose = run_method(core::bsbrc(), subimages, order);
  const auto tight = run_method(core::bsbrc_tight(), subimages, order);
  EXPECT_LE(core::max_received_message_bytes(tight.run.trace()),
            core::max_received_message_bytes(loose.run.trace()));
  std::int64_t loose_scan = 0, tight_scan = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    loose_scan += loose.per_rank[r].rect_scanned;
    tight_scan += tight.per_rank[r].rect_scanned;
  }
  EXPECT_GT(tight_scan, loose_scan);
}

TEST(SpanCompositors, BsbrsBlankImagesSendHeadersOnly) {
  std::vector<img::Image> blank(4, img::Image(24, 24));
  const auto result = run_method(core::bsbrs(), blank, make_default_order(2));
  for (int rank = 0; rank < 4; ++rank) {
    for (const auto& rec : result.run.trace().received(rank)) {
      if (rec.tag >= 0 && rec.stage >= 1) EXPECT_EQ(rec.bytes, 8u);
    }
  }
}
