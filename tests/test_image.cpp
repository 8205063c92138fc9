// Tests for pixels, the over operator, rectangles, and image scans.
#include <gtest/gtest.h>

#include "image/image.hpp"
#include "image/pack.hpp"
#include "image/pixel.hpp"
#include "image/rect.hpp"

namespace img = slspvr::img;

TEST(Pixel, SixteenBytesAndBlankPredicate) {
  EXPECT_EQ(sizeof(img::Pixel), 16u);
  EXPECT_TRUE(img::is_blank(img::Pixel{}));
  EXPECT_TRUE(img::is_blank(img::Pixel{0.5f, 0.5f, 0.5f, 0.0f}));
  EXPECT_FALSE(img::is_blank(img::Pixel{0.0f, 0.0f, 0.0f, 0.01f}));
}

TEST(Pixel, OverWithBlankIsIdentity) {
  const img::Pixel p{0.3f, 0.2f, 0.1f, 0.6f};
  EXPECT_EQ(img::over(p, img::Pixel{}), p);
  EXPECT_EQ(img::over(img::Pixel{}, p), p);
}

TEST(Pixel, OverOpaqueFrontHidesBack) {
  const img::Pixel front{0.9f, 0.9f, 0.9f, 1.0f};
  const img::Pixel back{0.1f, 0.1f, 0.1f, 1.0f};
  EXPECT_EQ(img::over(front, back), front);
}

TEST(Pixel, OverIsAssociative) {
  // Associativity is what lets binary swap regroup the over chain. Exact
  // float equality holds for these values; general inputs agree to ~1e-7.
  const img::Pixel a{0.50f, 0.25f, 0.125f, 0.5f};
  const img::Pixel b{0.25f, 0.50f, 0.250f, 0.25f};
  const img::Pixel c{0.125f, 0.125f, 0.50f, 0.75f};
  const img::Pixel left = img::over(img::over(a, b), c);
  const img::Pixel right = img::over(a, img::over(b, c));
  EXPECT_NEAR(left.r, right.r, 1e-6f);
  EXPECT_NEAR(left.g, right.g, 1e-6f);
  EXPECT_NEAR(left.b, right.b, 1e-6f);
  EXPECT_NEAR(left.a, right.a, 1e-6f);
}

TEST(Pixel, OverIsNotCommutativeInGeneral) {
  const img::Pixel a{0.8f, 0.0f, 0.0f, 0.8f};
  const img::Pixel b{0.0f, 0.8f, 0.0f, 0.8f};
  EXPECT_NE(img::over(a, b), img::over(b, a));
}

TEST(Pixel, Gray8Conversion) {
  EXPECT_EQ(img::to_gray8(img::Pixel{}), 0);
  EXPECT_EQ(img::to_gray8(img::Pixel{1.0f, 1.0f, 1.0f, 1.0f}), 255);
  EXPECT_EQ(img::to_gray8(img::Pixel{2.0f, 2.0f, 2.0f, 1.0f}), 255);  // clamps
}

TEST(Pixel, Gray8UnpremultipliesBeforeQuantizing) {
  // Pixels store premultiplied colour: a mid-gray at 50% opacity carries
  // r=g=b=0.25. Quantizing the raw luma would halve it to 64; the gray level
  // of the *colour* is 128 regardless of coverage.
  EXPECT_EQ(img::to_gray8(img::Pixel{0.25f, 0.25f, 0.25f, 0.5f}), 128);
  EXPECT_EQ(img::to_gray8(img::Pixel{0.5f, 0.5f, 0.5f, 0.5f}), 255);  // white at a=0.5
  // Opacity alone (colourless shadow) still quantizes to black.
  EXPECT_EQ(img::to_gray8(img::Pixel{0.0f, 0.0f, 0.0f, 0.5f}), 0);
}

TEST(Rect, EmptyAndArea) {
  EXPECT_TRUE(img::kEmptyRect.empty());
  EXPECT_EQ(img::kEmptyRect.area(), 0);
  const img::Rect r{2, 3, 10, 7};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 32);
  EXPECT_TRUE((img::Rect{5, 5, 5, 9}).empty());
  EXPECT_TRUE((img::Rect{5, 5, 9, 5}).empty());
}

TEST(Rect, ContainsPoint) {
  const img::Rect r{2, 3, 10, 7};
  EXPECT_TRUE(r.contains(2, 3));
  EXPECT_TRUE(r.contains(9, 6));
  EXPECT_FALSE(r.contains(10, 6));  // half-open
  EXPECT_FALSE(r.contains(9, 7));
  EXPECT_FALSE(r.contains(1, 5));
}

TEST(Rect, IntersectAndUnion) {
  const img::Rect a{0, 0, 10, 10};
  const img::Rect b{5, 5, 15, 15};
  EXPECT_EQ(img::intersect(a, b), (img::Rect{5, 5, 10, 10}));
  EXPECT_EQ(img::bounding_union(a, b), (img::Rect{0, 0, 15, 15}));
  const img::Rect disjoint{20, 20, 30, 30};
  EXPECT_TRUE(img::intersect(a, disjoint).empty());
  EXPECT_EQ(img::intersect(a, img::kEmptyRect), img::kEmptyRect);
  EXPECT_EQ(img::bounding_union(a, img::kEmptyRect), a);
  EXPECT_EQ(img::bounding_union(img::kEmptyRect, b), b);
}

TEST(Rect, SplitCenterlineCoversExactly) {
  const img::Rect r{0, 0, 9, 4};  // wider than tall -> vertical cut
  const auto [low, high] = img::split_centerline(r);
  EXPECT_EQ(low, (img::Rect{0, 0, 5, 4}));
  EXPECT_EQ(high, (img::Rect{5, 0, 9, 4}));
  EXPECT_EQ(low.area() + high.area(), r.area());

  const img::Rect tall{0, 0, 4, 9};
  const auto [top, bottom] = img::split_centerline(tall);
  EXPECT_EQ(top, (img::Rect{0, 0, 4, 5}));
  EXPECT_EQ(bottom, (img::Rect{0, 5, 4, 9}));
}

TEST(Rect, SplitSinglePixel) {
  const img::Rect r{3, 3, 4, 4};
  const auto [low, high] = img::split_centerline(r);
  EXPECT_EQ(low.area() + high.area(), 1);
}

TEST(Rect, WireRoundTripAndRange) {
  const img::Rect r{1, 2, 767, 768};
  EXPECT_EQ(img::from_wire(img::to_wire(r)), r);
  EXPECT_EQ(sizeof(img::WireRect), 8u);
  EXPECT_THROW((void)img::to_wire(img::Rect{0, 0, 40000, 1}), std::out_of_range);
}

TEST(Image, IndexingRoundTrip) {
  img::Image image(7, 5);
  EXPECT_EQ(image.pixel_count(), 35);
  image.at(6, 4) = img::Pixel{1, 1, 1, 1};
  EXPECT_EQ(image.at_index(image.index(6, 4)).a, 1.0f);
  EXPECT_EQ(image.bounds(), (img::Rect{0, 0, 7, 5}));
}

TEST(Image, NegativeDimensionsThrow) {
  EXPECT_THROW(img::Image(-1, 5), std::invalid_argument);
}

TEST(Image, BoundingRectOfSparsePixels) {
  img::Image image(20, 20);
  image.at(3, 4) = img::Pixel{0, 0, 0, 0.5f};
  image.at(15, 11) = img::Pixel{0, 0, 0, 0.5f};
  std::int64_t scanned = 0;
  const img::Rect r = img::bounding_rect_of(image, image.bounds(), &scanned);
  EXPECT_EQ(r, (img::Rect{3, 4, 16, 12}));
  EXPECT_EQ(scanned, 400);
}

TEST(Image, BoundingRectOfBlankImageIsEmpty) {
  img::Image image(8, 8);
  EXPECT_TRUE(img::bounding_rect_of(image, image.bounds()).empty());
}

TEST(Image, BoundingRectRespectsRegion) {
  img::Image image(20, 20);
  image.at(1, 1) = img::Pixel{0, 0, 0, 1.0f};
  image.at(18, 18) = img::Pixel{0, 0, 0, 1.0f};
  const img::Rect r = img::bounding_rect_of(image, img::Rect{10, 10, 20, 20});
  EXPECT_EQ(r, (img::Rect{18, 18, 19, 19}));
}

TEST(Image, CountNonBlank) {
  img::Image image(10, 10);
  image.at(0, 0) = img::Pixel{0, 0, 0, 1.0f};
  image.at(9, 9) = img::Pixel{0, 0, 0, 0.25f};
  EXPECT_EQ(img::count_non_blank(image, image.bounds()), 2);
  EXPECT_EQ(img::count_non_blank(image, img::Rect{0, 0, 5, 5}), 1);
}

TEST(Image, CompositeRegionFrontBack) {
  img::Image local(4, 4), incoming(4, 4);
  local.at(1, 1) = img::Pixel{0.2f, 0.2f, 0.2f, 1.0f};
  incoming.at(1, 1) = img::Pixel{0.9f, 0.9f, 0.9f, 1.0f};
  img::Image a = local;
  EXPECT_EQ(img::composite_region(a, incoming, a.bounds(), true), 16);
  EXPECT_FLOAT_EQ(a.at(1, 1).r, 0.9f);  // incoming in front, opaque: wins
  img::Image b = local;
  (void)img::composite_region(b, incoming, b.bounds(), false);
  EXPECT_FLOAT_EQ(b.at(1, 1).r, 0.2f);  // local in front
}

TEST(Pack, RoundTripMixedTypes) {
  img::PackBuffer buf;
  buf.put(std::int32_t{42});
  buf.put(3.25);
  const std::array<std::uint16_t, 3> codes{1, 2, 3};
  buf.put_span(std::span<const std::uint16_t>(codes));
  img::UnpackBuffer in(buf.bytes());
  EXPECT_EQ(in.get<std::int32_t>(), 42);
  EXPECT_DOUBLE_EQ(in.get<double>(), 3.25);
  const auto v = in.get_vector<std::uint16_t>(3);
  EXPECT_EQ(v, (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_TRUE(in.exhausted());
}

TEST(Pack, EmptySpansCopyNothing) {
  // An empty span's or vector's data() may be null, which memcpy must not
  // see (UBSan stops there): appending an empty span, into an empty buffer
  // or behind existing bytes, and reading zero values.
  img::PackBuffer buf;
  buf.put_span(std::span<const img::Pixel>{});
  EXPECT_EQ(buf.size(), 0u);
  buf.put(std::uint32_t{7});
  buf.put_span(std::span<const std::uint16_t>{});
  ASSERT_EQ(buf.size(), 4u);
  img::UnpackBuffer in(buf.bytes());
  EXPECT_TRUE(in.get_vector<std::uint16_t>(0).empty());
  EXPECT_EQ(in.get<std::uint32_t>(), 7u);
  EXPECT_TRUE(in.get_vector<std::uint16_t>(0).empty());
  EXPECT_TRUE(in.exhausted());
}

TEST(Pack, ShortReadThrows) {
  img::PackBuffer buf;
  buf.put(std::int16_t{1});
  img::UnpackBuffer in(buf.bytes());
  EXPECT_THROW((void)in.get<std::int64_t>(), img::DecodeError);
}
