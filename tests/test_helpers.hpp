// Shared helpers for compositor tests: synthetic subimage generation, order
// construction, and SPMD execution of a compositing method.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <vector>

#include "core/compositor.hpp"
#include "core/cost_model.hpp"
#include "core/order.hpp"
#include "core/reference.hpp"
#include "core/worker_pool.hpp"
#include "mp/runtime.hpp"
#include "pvr/synthetic.hpp"

namespace slspvr::testing {

namespace pvr = slspvr::pvr;

/// Build a SwapOrder from explicit per-bit front decisions, deriving the
/// consistent front-to-back BSP traversal (level l uses bit levels-1-l).
inline core::SwapOrder make_order(int levels, const std::vector<bool>& lower_front) {
  core::SwapOrder order;
  order.levels = levels;
  order.lower_front_per_bit = lower_front;
  const std::function<void(int, int)> visit = [&](int level, int prefix) {
    if (level == levels) {
      order.front_to_back.push_back(prefix);
      return;
    }
    const bool lower_first = lower_front[static_cast<std::size_t>(levels - 1 - level)];
    visit(level + 1, prefix * 2 + (lower_first ? 0 : 1));
    visit(level + 1, prefix * 2 + (lower_first ? 1 : 0));
  };
  visit(0, 0);
  return order;
}

/// All-lower-front order (the straight-on view).
inline core::SwapOrder make_default_order(int levels) {
  return make_order(levels, std::vector<bool>(static_cast<std::size_t>(levels), true));
}

// Subimage generators live in the library (shared with the ablation
// benches); re-export them into the test namespace.
using pvr::make_subimages;
using pvr::random_subimage;

struct SpmdResult {
  img::Image final_image;  ///< gathered at rank 0
  std::vector<core::Counters> per_rank;
  std::vector<core::Ownership> ownerships;  ///< what each rank finished owning
  mp::RunResult run;
};

/// Execute `method` SPMD over `subimages` and gather at rank 0. `engine`
/// carries the per-rank engine knobs (workers, fused decode); each rank
/// composites with its own context from a run-local arena.
inline SpmdResult run_method(const core::Compositor& method,
                             const std::vector<img::Image>& subimages,
                             const core::SwapOrder& order,
                             const core::EngineConfig& engine = {}) {
  const int ranks = static_cast<int>(subimages.size());
  std::vector<core::Counters> per_rank(static_cast<std::size_t>(ranks));
  std::vector<core::Ownership> ownerships(static_cast<std::size_t>(ranks));
  core::EngineArena arena(engine, ranks);
  img::Image final_image;
  auto run = mp::Runtime::run(ranks, [&](mp::Comm& comm) {
    img::Image local = subimages[static_cast<std::size_t>(comm.rank())];
    const core::Ownership owned =
        method.composite(comm, local, order, per_rank[static_cast<std::size_t>(comm.rank())],
                         arena.context(comm.rank()));
    ownerships[static_cast<std::size_t>(comm.rank())] = owned;
    img::Image gathered = core::gather_final(comm, local, owned, 0);
    if (comm.rank() == 0) final_image = std::move(gathered);
  });
  return SpmdResult{std::move(final_image), std::move(per_rank), std::move(ownerships),
                    std::move(run)};
}

/// Compare two images within a float tolerance (over is mathematically
/// associative, but regrouping changes rounding in the last ulps).
inline void expect_images_near(const img::Image& got, const img::Image& want,
                               float tolerance = 5e-5f) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  for (int y = 0; y < got.height(); ++y) {
    for (int x = 0; x < got.width(); ++x) {
      const img::Pixel& g = got.at(x, y);
      const img::Pixel& w = want.at(x, y);
      ASSERT_NEAR(g.r, w.r, tolerance) << "at (" << x << "," << y << ")";
      ASSERT_NEAR(g.g, w.g, tolerance) << "at (" << x << "," << y << ")";
      ASSERT_NEAR(g.b, w.b, tolerance) << "at (" << x << "," << y << ")";
      ASSERT_NEAR(g.a, w.a, tolerance) << "at (" << x << "," << y << ")";
    }
  }
}

/// Pixels the row-span codec ships for `rect` of `image`, counted here
/// independently of core/wire: per row, from its first to its last pixel
/// with a non-zero byte.
inline std::int64_t row_span_pixels(const img::Image& image, const img::Rect& rect) {
  const img::Pixel zero{};
  std::int64_t total = 0;
  for (int y = rect.y0; y < rect.y1; ++y) {
    int first = rect.x1;
    int last = rect.x0 - 1;
    for (int x = rect.x0; x < rect.x1; ++x) {
      if (std::memcmp(&image.at(x, y), &zero, sizeof zero) == 0) continue;
      first = std::min(first, x);
      last = x;
    }
    if (last >= first) total += last - first + 1;
  }
  return total;
}

}  // namespace slspvr::testing
