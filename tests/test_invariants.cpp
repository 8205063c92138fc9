// Cross-method invariants: conservation of traffic, ownership tiling, and
// payload dominance relations that must hold for ANY workload.
#include <gtest/gtest.h>

#include "core/binary_tree.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

namespace {

/// In-phase (stage >= 1, user-tag) bytes, summed over all ranks.
std::pair<std::uint64_t, std::uint64_t> global_traffic(const slspvr::mp::TrafficTrace& trace) {
  std::uint64_t sent = 0, received = 0;
  for (int r = 0; r < trace.ranks(); ++r) {
    for (const auto& rec : trace.sent(r)) {
      if (rec.stage >= 1 && rec.tag >= 0) sent += rec.bytes;
    }
    for (const auto& rec : trace.received(r)) {
      if (rec.stage >= 1 && rec.tag >= 0) received += rec.bytes;
    }
  }
  return {sent, received};
}

}  // namespace

TEST(Invariants, EveryMethodConservesBytesGlobally) {
  const auto subimages = make_subimages(8, 48, 40, 0.3, 2024);
  const auto order = make_default_order(3);

  const core::Compositor& bs = core::bs();
  const core::Compositor& bsbr = core::bsbr();
  const core::Compositor& bslc = core::bslc();
  const core::Compositor& bsbrc = core::bsbrc();
  const core::Compositor& bsbrs = core::bsbrs();
  const core::BinaryTreeCompositor tree;
  const core::Compositor& direct_full = core::direct_send_full();
  const core::Compositor& direct_sparse = core::direct_send_sparse();
  const core::ParallelPipelineCompositor pipeline;

  for (const core::Compositor* method :
       {static_cast<const core::Compositor*>(&bs), static_cast<const core::Compositor*>(&bsbr),
        static_cast<const core::Compositor*>(&bslc),
        static_cast<const core::Compositor*>(&bsbrc),
        static_cast<const core::Compositor*>(&bsbrs),
        static_cast<const core::Compositor*>(&tree),
        static_cast<const core::Compositor*>(&direct_full),
        static_cast<const core::Compositor*>(&direct_sparse),
        static_cast<const core::Compositor*>(&pipeline)}) {
    SCOPED_TRACE(std::string(method->name()));
    const auto result = run_method(*method, subimages, order);
    const auto [sent, received] = global_traffic(result.run.trace());
    EXPECT_EQ(sent, received);
    EXPECT_GT(sent, 0u);
    // Pixel payload conservation: pixels shipped == pixels composited from
    // the wire (each method counts both sides).
    std::int64_t pixels_sent = 0, pixels_received = 0;
    for (const auto& c : result.per_rank) {
      pixels_sent += c.pixels_sent;
      pixels_received += c.pixels_received;
    }
    EXPECT_EQ(pixels_sent, pixels_received);
  }
}

TEST(Invariants, BinarySwapFamilyOwnershipsTileTheImage) {
  const int width = 37, height = 29;  // odd sizes stress the splits
  const auto subimages = make_subimages(8, width, height, 0.4, 555);
  const auto order = make_default_order(3);

  for (const bool use_bsbrc : {false, true}) {
    const core::Compositor& bs = core::bs();
    const core::Compositor& bsbrc = core::bsbrc();
    const core::Compositor& method =
        use_bsbrc ? static_cast<const core::Compositor&>(bsbrc)
                  : static_cast<const core::Compositor&>(bs);
    const auto result = run_method(method, subimages, order);
    std::vector<int> hits(static_cast<std::size_t>(width * height), 0);
    for (const auto& owned : result.ownerships) {
      ASSERT_EQ(owned.kind, core::Ownership::Kind::kRect);
      for (int y = owned.rect.y0; y < owned.rect.y1; ++y) {
        for (int x = owned.rect.x0; x < owned.rect.x1; ++x) {
          ++hits[static_cast<std::size_t>(y * width + x)];
        }
      }
    }
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Invariants, BslcOwnershipsTileTheIndexSpace) {
  const int width = 41, height = 17;
  const auto subimages = make_subimages(16, width, height, 0.4, 556);
  const auto result = run_method(core::bslc(), subimages, make_default_order(4));
  std::vector<int> hits(static_cast<std::size_t>(width * height), 0);
  for (const auto& owned : result.ownerships) {
    ASSERT_EQ(owned.kind, core::Ownership::Kind::kInterleaved);
    for (std::int64_t i = 0; i < owned.range.count; ++i) {
      ++hits[static_cast<std::size_t>(owned.range.index(i))];
    }
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Invariants, PipelineAndDirectSendBandsTile) {
  const int width = 24, height = 31;
  const auto subimages = make_subimages(8, width, height, 0.4, 557);
  const auto order = make_default_order(3);
  for (const bool pipeline : {false, true}) {
    const core::Compositor& direct = core::direct_send_full();
    const core::ParallelPipelineCompositor pipe;
    const core::Compositor& method =
        pipeline ? static_cast<const core::Compositor&>(pipe)
                 : static_cast<const core::Compositor&>(direct);
    const auto result = run_method(method, subimages, order);
    std::vector<int> hits(static_cast<std::size_t>(width * height), 0);
    for (const auto& owned : result.ownerships) {
      ASSERT_EQ(owned.kind, core::Ownership::Kind::kRect);
      for (int y = owned.rect.y0; y < owned.rect.y1; ++y) {
        for (int x = owned.rect.x0; x < owned.rect.x1; ++x) {
          ++hits[static_cast<std::size_t>(y * width + x)];
        }
      }
    }
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Invariants, RlePayloadNeverExceedsRawRectangle) {
  // BSBRC's per-stage payload (codes + non-blank pixels) can never exceed
  // BSBR's raw rectangle by more than the code overhead bound: 2 bytes per
  // code with at most area+1 codes. Checked over a density sweep.
  for (const double density : {0.05, 0.3, 0.6, 0.95}) {
    const auto subimages =
        make_subimages(8, 64, 64, density, static_cast<std::uint32_t>(density * 1000));
    const auto order = make_default_order(3);
    const auto bsbr = run_method(core::bsbr(), subimages, order);
    const auto bsbrc = run_method(core::bsbrc(), subimages, order);
    for (int r = 0; r < 8; ++r) {
      std::uint64_t bsbr_bytes = 0, bsbrc_bytes = 0;
      for (const auto& rec : bsbr.run.trace().received(r)) {
        if (rec.stage >= 1 && rec.tag >= 0) bsbr_bytes += rec.bytes;
      }
      for (const auto& rec : bsbrc.run.trace().received(r)) {
        if (rec.stage >= 1 && rec.tag >= 0) bsbrc_bytes += rec.bytes;
      }
      // Worst case: alternating pixels inside the rect -> codes ~ area, so
      // bsbrc <= 8 (header) + 2*(area+1) + 16*nonblank <= bsbr_raw + 2*area.
      // With the shared rect the raw payload is 16*area, so a generous
      // bound is bsbr_bytes * 9 / 8 + 64.
      EXPECT_LE(bsbrc_bytes, bsbr_bytes * 9 / 8 + 64) << "rank " << r << " d=" << density;
    }
  }
}

TEST(Invariants, CountersAreNonNegativeAndConsistent) {
  const auto subimages = make_subimages(4, 32, 32, 0.5, 31337);
  const auto order = make_default_order(2);
  const auto result = run_method(core::bsbrc(), subimages, order);
  for (const auto& c : result.per_rank) {
    EXPECT_GE(c.over_ops, 0);
    EXPECT_GE(c.encoded_pixels, 0);
    EXPECT_GE(c.rect_scanned, 32 * 32);  // at least the first-stage scan
    EXPECT_GE(c.codes_emitted, 0);
    // RLE composites only non-blank pixels, so over ops <= pixels received
    // on the wire plus nothing else.
    EXPECT_EQ(c.over_ops, c.pixels_received);
  }
}
