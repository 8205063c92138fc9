// Tests for the non-power-of-two fold extension (the paper's first
// future-work item) and the gather/ownership machinery.
#include <gtest/gtest.h>

#include "core/fold.hpp"
#include "core/plan_compositor.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
using slspvr::testing::expect_images_near;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

TEST(FoldPlan, GroupsAreContiguousAndCoverAllRanks) {
  for (const int ranks : {1, 2, 3, 5, 6, 7, 8, 11, 12, 16, 21}) {
    const core::FoldPlan plan = core::make_fold_plan(ranks);
    EXPECT_TRUE(slspvr::vol::is_power_of_two(plan.groups));
    EXPECT_LE(plan.groups, ranks);
    EXPECT_GT(plan.groups * 2, ranks);
    int covered = 0;
    for (int g = 0; g < plan.groups; ++g) {
      const int lo = plan.group_start(g), hi = plan.group_start(g + 1);
      EXPECT_GE(hi - lo, 1);
      EXPECT_LE(hi - lo, 2);  // P < 2Q means groups of 1 or 2
      for (int r = lo; r < hi; ++r) {
        EXPECT_EQ(plan.group_of(r), g);
        EXPECT_EQ(plan.leader_of(r), lo);
        ++covered;
      }
      EXPECT_TRUE(plan.is_leader(lo));
    }
    EXPECT_EQ(covered, ranks);
  }
}

TEST(FoldPlan, PowerOfTwoIsIdentity) {
  const core::FoldPlan plan = core::make_fold_plan(8);
  EXPECT_EQ(plan.groups, 8);
  for (int r = 0; r < 8; ++r) EXPECT_TRUE(plan.is_leader(r));
}

TEST(FoldPlan, ZeroRanksThrows) {
  EXPECT_THROW((void)core::make_fold_plan(0), std::invalid_argument);
}

class FoldCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(FoldCorrectness, MatchesReferenceForAnyRankCount) {
  const int ranks = GetParam();
  const float dir[3] = {1.0f, 0.0f, 0.0f};
  const core::SwapOrder order = core::make_fold_order(ranks, 0, dir);
  const auto subimages = make_subimages(ranks, 40, 32, 0.3, 555);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);

  const core::Compositor& bsbrc = core::bsbrc();
  const core::FoldCompositor fold(bsbrc);
  const auto result = run_method(fold, subimages, order);
  expect_images_near(result.final_image, reference);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FoldCorrectness,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 11, 12, 13));

TEST(Fold, DescendingSlabOrderAlsoWorks) {
  const int ranks = 6;
  const float dir[3] = {-1.0f, 0.0f, 0.0f};  // viewer looks down -x: slab 5 in front
  const core::SwapOrder order = core::make_fold_order(ranks, 0, dir);
  ASSERT_EQ(order.front_to_back.front(), 5);
  const auto subimages = make_subimages(ranks, 32, 32, 0.4, 777);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  const core::Compositor& bs = core::bs();
  const core::FoldCompositor fold(bs);
  const auto result = run_method(fold, subimages, order);
  expect_images_near(result.final_image, reference);
}

TEST(Fold, WorksWithEveryInnerMethod) {
  const int ranks = 5;
  const float dir[3] = {1.0f, 0.0f, 0.0f};
  const core::SwapOrder order = core::make_fold_order(ranks, 0, dir);
  const auto subimages = make_subimages(ranks, 36, 28, 0.25, 31);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);

  const core::Compositor& bs = core::bs();
  const core::Compositor& bsbr = core::bsbr();
  const core::Compositor& bslc = core::bslc();
  const core::Compositor& bsbrc = core::bsbrc();
  for (const core::Compositor* inner :
       {static_cast<const core::Compositor*>(&bs), static_cast<const core::Compositor*>(&bsbr),
        static_cast<const core::Compositor*>(&bslc),
        static_cast<const core::Compositor*>(&bsbrc)}) {
    const core::FoldCompositor fold(*inner);
    const auto result = run_method(fold, subimages, order);
    expect_images_near(result.final_image, reference);
  }
}

TEST(Fold, NameReflectsInnerMethod) {
  const core::Compositor& inner = core::bsbrc();
  const core::FoldCompositor fold(inner);
  EXPECT_EQ(fold.name(), "Fold+BSBRC");
}
