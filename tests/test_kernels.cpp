// Scalar-vs-vector equivalence suite for the hot-path kernels: every kernel
// must be byte-identical to the scalar oracle at every width, including the
// tails the SIMD lane count does not divide, and every paper method must
// produce byte-identical frames under both dispatch settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/order.hpp"
#include "image/image.hpp"
#include "image/kernels.hpp"
#include "image/rle.hpp"
#include "pvr/experiment.hpp"
#include "pvr/synthetic.hpp"

namespace img = slspvr::img;
namespace kern = slspvr::img::kern;
namespace core = slspvr::core;
namespace pvr = slspvr::pvr;

namespace {

/// RAII pin of the kernel dispatch; restores environment-driven default.
class ScopedIsa {
 public:
  explicit ScopedIsa(bool scalar) { kern::force_scalar_kernels(scalar); }
  ~ScopedIsa() { kern::clear_kernel_override(); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

/// Deterministic pixel soup with controllable blank probability. Uses odd
/// float values so any rounding difference between paths shows up.
std::vector<img::Pixel> random_pixels(std::int64_t n, double blank_prob,
                                      std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> value(0.001f, 0.997f);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<img::Pixel> pixels(static_cast<std::size_t>(n));
  for (auto& p : pixels) {
    if (coin(rng) < blank_prob) continue;  // stays blank (all zero)
    p.a = value(rng);
    p.r = value(rng) * p.a;
    p.g = value(rng) * p.a;
    p.b = value(rng) * p.a;
  }
  return pixels;
}

bool bytes_equal(const std::vector<img::Pixel>& a, const std::vector<img::Pixel>& b) {
  // Empty vectors may hold null data(), which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(img::Pixel)) == 0);
}

TEST(Kernels, ForceScalarOverridesDispatch) {
  {
    const ScopedIsa pin(true);
    EXPECT_EQ(kern::active_isa(), kern::Isa::kScalar);
  }
  if (kern::simd_compiled()) {
    // With the override cleared the dispatch follows env + CPU; forcing
    // vector must not resolve to scalar on a machine that compiled SIMD in
    // and supports it (CI runs both settings, so don't assert kAvx2 here).
    const ScopedIsa pin(false);
    EXPECT_EQ(kern::active_isa() == kern::Isa::kAvx2,
              kern::active_isa() != kern::Isa::kScalar);
  }
}

TEST(Kernels, CompositeSpanMatchesScalarAtEveryWidth) {
  // 0..33 covers empty spans, sub-lane tails, and full 4-pixel unroll blocks.
  for (std::int64_t n = 0; n <= 33; ++n) {
    for (const bool in_front : {false, true}) {
      const auto local0 = random_pixels(n, 0.3, 7u + static_cast<std::uint32_t>(n));
      const auto incoming = random_pixels(n, 0.3, 91u + static_cast<std::uint32_t>(n));
      auto vec = local0;
      auto sca = local0;
      {
        const ScopedIsa pin(false);
        kern::composite_span(vec.data(), incoming.data(), n, in_front);
      }
      {
        const ScopedIsa pin(true);
        kern::composite_span(sca.data(), incoming.data(), n, in_front);
      }
      EXPECT_TRUE(bytes_equal(vec, sca))
          << "width " << n << " incoming_in_front=" << in_front;
    }
  }
}

TEST(Kernels, CompositeSpanMatchesOverOperator) {
  const std::int64_t n = 19;
  const auto incoming = random_pixels(n, 0.2, 5);
  auto local = random_pixels(n, 0.2, 6);
  const auto before = local;
  kern::composite_span(local.data(), incoming.data(), n, /*incoming_in_front=*/true);
  for (std::int64_t i = 0; i < n; ++i) {
    const img::Pixel expect = img::over(incoming[static_cast<std::size_t>(i)],
                                        before[static_cast<std::size_t>(i)]);
    EXPECT_EQ(std::memcmp(&local[static_cast<std::size_t>(i)], &expect, sizeof(expect)), 0)
        << "pixel " << i;
  }
}

TEST(Kernels, RowExtentMatchesScalarAtEveryWidth) {
  for (std::int64_t n = 0; n <= 33; ++n) {
    for (const double blank_prob : {0.0, 0.5, 0.9, 1.0}) {
      const auto row = random_pixels(
          n, blank_prob, 17u + static_cast<std::uint32_t>(n * 10 + blank_prob * 4));
      kern::RowExtent vec;
      kern::RowExtent sca;
      {
        const ScopedIsa pin(false);
        vec = kern::row_non_blank_extent(row.data(), n);
      }
      {
        const ScopedIsa pin(true);
        sca = kern::row_non_blank_extent(row.data(), n);
      }
      EXPECT_EQ(vec.first, sca.first) << "width " << n << " blank " << blank_prob;
      EXPECT_EQ(vec.last, sca.last) << "width " << n << " blank " << blank_prob;
    }
  }
}

TEST(Kernels, RowExtentEdgePatterns) {
  // Single non-blank pixel at every position of a width-24 row: first==last.
  for (std::int64_t pos = 0; pos < 24; ++pos) {
    std::vector<img::Pixel> row(24);
    row[static_cast<std::size_t>(pos)] = img::Pixel{0.1f, 0.1f, 0.1f, 0.5f};
    const auto extent = kern::row_non_blank_extent(row.data(), 24);
    EXPECT_EQ(extent.first, pos);
    EXPECT_EQ(extent.last, pos);
  }
  // All-blank and all-opaque rows.
  const std::vector<img::Pixel> blank(24);
  const auto none = kern::row_non_blank_extent(blank.data(), 24);
  EXPECT_EQ(none.first, -1);
  EXPECT_EQ(none.last, -1);
  const auto opaque = random_pixels(24, 0.0, 3);
  const auto all = kern::row_non_blank_extent(opaque.data(), 24);
  EXPECT_EQ(all.first, 0);
  EXPECT_EQ(all.last, 23);
}

TEST(Kernels, CountNonBlankMatchesScalarAtEveryWidth) {
  for (std::int64_t n = 0; n <= 33; ++n) {
    const auto row = random_pixels(n, 0.4, 23u + static_cast<std::uint32_t>(n));
    std::int64_t vec = 0;
    std::int64_t sca = 0;
    {
      const ScopedIsa pin(false);
      vec = kern::count_non_blank_span(row.data(), n);
    }
    {
      const ScopedIsa pin(true);
      sca = kern::count_non_blank_span(row.data(), n);
    }
    EXPECT_EQ(vec, sca) << "width " << n;
  }
}

/// Classify `pixels` in chunks of `span` and compare codes+payload against
/// img::rle_encode_sequence (the historical encoder).
void expect_classifier_matches_sequence(const std::vector<img::Pixel>& pixels,
                                        std::int64_t span) {
  const std::int64_t n = static_cast<std::int64_t>(pixels.size());
  const img::Rle expect =
      img::rle_encode_sequence(n, [&](std::int64_t i) -> const img::Pixel& {
        return pixels[static_cast<std::size_t>(i)];
      });
  for (const bool scalar : {false, true}) {
    const ScopedIsa pin(scalar);
    img::Rle got;
    got.length = n;
    kern::RunState state;
    for (std::int64_t pos = 0; pos < n; pos += span) {
      const std::int64_t len = std::min(span, n - pos);
      kern::rle_classify_span(pixels.data() + pos, len, state, got);
    }
    if (n > 0) kern::rle_classify_flush(state, got);
    EXPECT_EQ(got.codes, expect.codes) << "scalar=" << scalar << " span=" << span;
    EXPECT_TRUE(bytes_equal(got.pixels, expect.pixels))
        << "scalar=" << scalar << " span=" << span;
    EXPECT_TRUE(img::rle_valid(got)) << "scalar=" << scalar << " span=" << span;
  }
}

TEST(Kernels, RleClassifierMatchesSequenceEncoder) {
  for (const double blank_prob : {0.0, 0.3, 0.7, 1.0}) {
    const auto pixels =
        random_pixels(999, blank_prob, 31u + static_cast<std::uint32_t>(blank_prob * 8));
    // Spans of 1 exercise pure carry-over; 64 the word path; 999 one shot;
    // 37 misaligned chunks whose runs straddle every boundary.
    for (const std::int64_t span : {std::int64_t{1}, std::int64_t{37}, std::int64_t{64},
                                    std::int64_t{999}}) {
      expect_classifier_matches_sequence(pixels, span);
    }
  }
}

TEST(Kernels, RleRunsStraddleMaxRunEscape) {
  // 70000 consecutive non-blank pixels overflow the 16-bit run counter: the
  // escape inserts a zero-length blank run, [0, 65535, 0, 4465].
  const std::int64_t n = 70000;
  std::vector<img::Pixel> pixels(static_cast<std::size_t>(n),
                                 img::Pixel{0.5f, 0.5f, 0.5f, 1.0f});
  for (const bool scalar : {false, true}) {
    const ScopedIsa pin(scalar);
    img::Rle got;
    got.length = n;
    kern::RunState state;
    kern::rle_classify_span(pixels.data(), n, state, got);
    kern::rle_classify_flush(state, got);
    const std::vector<std::uint16_t> expect{0, 65535, 0, 4465};
    EXPECT_EQ(got.codes, expect) << "scalar=" << scalar;
    EXPECT_EQ(got.non_blank_count(), n);
    EXPECT_TRUE(img::rle_valid(got));
  }
  // The blank side of the escape: 70000 blanks then one opaque pixel gives
  // [65535, 0, 4465, 1].
  std::vector<img::Pixel> blanks(static_cast<std::size_t>(n + 1));
  blanks.back() = img::Pixel{0.5f, 0.5f, 0.5f, 1.0f};
  for (const bool scalar : {false, true}) {
    const ScopedIsa pin(scalar);
    img::Rle got;
    got.length = n + 1;
    kern::RunState state;
    kern::rle_classify_span(blanks.data(), n + 1, state, got);
    kern::rle_classify_flush(state, got);
    const std::vector<std::uint16_t> expect{65535, 0, 4465, 1};
    EXPECT_EQ(got.codes, expect) << "scalar=" << scalar;
    EXPECT_TRUE(img::rle_valid(got));
  }
}

TEST(Kernels, GatherScatterRoundTrip) {
  const std::int64_t total = 997;  // prime: no stride divides it evenly
  const auto base = random_pixels(total, 0.3, 41);
  for (const std::int64_t stride : {std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
                                    std::int64_t{7}}) {
    for (const std::int64_t offset : {std::int64_t{0}, std::int64_t{1}, stride - 1}) {
      const std::int64_t count = (total - offset + stride - 1) / stride;
      for (const bool scalar : {false, true}) {
        const ScopedIsa pin(scalar);
        std::vector<img::Pixel> gathered(static_cast<std::size_t>(count));
        kern::gather_strided(base.data(), offset, stride, count, gathered.data());
        for (std::int64_t i = 0; i < count; ++i) {
          ASSERT_EQ(std::memcmp(&gathered[static_cast<std::size_t>(i)],
                                &base[static_cast<std::size_t>(offset + i * stride)],
                                sizeof(img::Pixel)),
                    0)
              << "stride " << stride << " offset " << offset << " i " << i
              << " scalar " << scalar;
        }
        auto restored = std::vector<img::Pixel>(static_cast<std::size_t>(total));
        // Scatter into a zeroed copy, then re-gather: must round-trip.
        kern::scatter_strided(gathered.data(), count, restored.data(), offset, stride);
        std::vector<img::Pixel> again(static_cast<std::size_t>(count));
        kern::gather_strided(restored.data(), offset, stride, count, again.data());
        EXPECT_TRUE(bytes_equal(gathered, again))
            << "stride " << stride << " offset " << offset << " scalar " << scalar;
      }
    }
  }
}

TEST(Kernels, FillZeroProducesBlankPixels) {
  auto pixels = random_pixels(77, 0.0, 13);
  kern::fill_zero(pixels.data(), 77);
  const img::Pixel blank{};
  for (const auto& p : pixels) {
    EXPECT_EQ(std::memcmp(&p, &blank, sizeof(p)), 0);
  }
}

TEST(Kernels, CompositeRegionHandlesDegenerateRects) {
  const img::Image incoming = pvr::random_subimage(33, 21, 0.5, 8);
  for (const bool scalar : {false, true}) {
    const ScopedIsa pin(scalar);
    img::Image local(33, 21);
    // Empty rect: no-op, returns zero pixels touched.
    EXPECT_EQ(img::composite_region(local, incoming, img::kEmptyRect, true), 0);
    EXPECT_EQ(img::count_non_blank(local, local.bounds()), 0);
    // One-pixel rect touches exactly that pixel.
    const img::Rect one{5, 7, 6, 8};
    EXPECT_EQ(img::composite_region(local, incoming, one, true), 1);
    EXPECT_EQ(std::memcmp(&local.at(5, 7), &incoming.at(5, 7), sizeof(img::Pixel)), 0);
    // Bounding scan of an empty rect is empty; of a 1-pixel blank image too.
    EXPECT_TRUE(img::bounding_rect_of(local, img::kEmptyRect).empty());
    img::Image tiny(1, 1);
    EXPECT_TRUE(img::bounding_rect_of(tiny, tiny.bounds()).empty());
    tiny.at(0, 0) = img::Pixel{0.1f, 0.1f, 0.1f, 1.0f};
    EXPECT_EQ(img::bounding_rect_of(tiny, tiny.bounds()), (img::Rect{0, 0, 1, 1}));
  }
}

/// Whole-frame byte identity: every method, both dispatch settings.
void expect_methods_identical(const std::vector<const core::Compositor*>& methods, int ranks) {
  const int levels = std::countr_zero(static_cast<unsigned>(ranks));
  const auto subimages = pvr::make_subimages(ranks, 96, 96, 0.35);
  const auto order = core::make_uniform_order(levels);
  for (const auto& method : methods) {
    SCOPED_TRACE(std::string("method ") + std::string(method->name()) + " P=" +
                 std::to_string(ranks));
    pvr::MethodResult vec;
    pvr::MethodResult sca;
    {
      const ScopedIsa pin(false);
      vec = pvr::run_compositing(*method, subimages, order);
    }
    {
      const ScopedIsa pin(true);
      sca = pvr::run_compositing(*method, subimages, order);
    }
    ASSERT_EQ(vec.final_image.width(), sca.final_image.width());
    ASSERT_EQ(vec.final_image.height(), sca.final_image.height());
    EXPECT_EQ(std::memcmp(vec.final_image.pixels().data(), sca.final_image.pixels().data(),
                          static_cast<std::size_t>(vec.final_image.pixel_count()) *
                              sizeof(img::Pixel)),
              0);
  }
}

TEST(Kernels, PaperMethodsByteIdenticalAcrossIsas) {
  for (const int ranks : {2, 4, 8}) {
    expect_methods_identical(pvr::MethodSet::paper_methods(), ranks);
  }
}

TEST(Kernels, AllMethodsByteIdenticalAcrossIsas) {
  // Includes the related-work baselines whose depth-order grouping runs the
  // engine's scratch_frame + gather/composite/scatter path.
  expect_methods_identical(pvr::MethodSet::all_methods(), 4);
}

}  // namespace
