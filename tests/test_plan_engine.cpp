// Plan × codec engine coverage: final gather at a non-power-of-two rank
// count for every Ownership kind, pixel exactness of every registered
// (plan, codec) combination against the sequential reference, and static +
// dynamic verification of the cross-bred combinations at non-power-of-two P.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "check/trace_check.hpp"
#include "check/verify.hpp"
#include "core/compositor.hpp"
#include "core/fold.hpp"
#include "core/plan_compositor.hpp"
#include "core/reference.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"
#include "test_helpers.hpp"

namespace slspvr {
namespace {

using check::CommSchedule;
using testing::expect_images_near;
using testing::make_default_order;
using testing::make_subimages;
using testing::run_method;

int log2_exact(int n) {
  int levels = 0;
  while ((1 << levels) < n) ++levels;
  return levels;
}

/// Monotone ascending depth order covering all `ranks` slabs — what the
/// slab decomposition produces for non-power-of-two runs, and valid for
/// power-of-two runs too (all-lower-front view).
core::SwapOrder ascending_order(int ranks) {
  const float view_dir[3] = {1.0f, 0.0f, 0.0f};
  return core::make_fold_order(ranks, /*axis=*/0, view_dir);
}

// ---- gather_final at non-power-of-two P, all three Ownership kinds --------

constexpr int kGatherRanks = 5;
constexpr int kGatherW = 40;
constexpr int kGatherH = 30;

/// Run gather_final SPMD: rank r passes `owned[r]` and a copy of `full`
/// (gather only reads the owned portion), returning the image at root.
img::Image gather_spmd(const img::Image& full, const std::vector<core::Ownership>& owned) {
  const int ranks = static_cast<int>(owned.size());
  img::Image at_root;
  auto run = mp::Runtime::run(ranks, [&](mp::Comm& comm) {
    const img::Image local = full;
    img::Image gathered =
        core::gather_final(comm, local, owned[static_cast<std::size_t>(comm.rank())], 0);
    if (comm.rank() == 0) at_root = std::move(gathered);
  });
  EXPECT_TRUE(run.ok()) << "gather run failed";
  return at_root;
}

TEST(GatherFinalNonPow2, RectOwnershipTilesReassembleTheFrame) {
  const img::Image full =
      pvr::random_subimage(kGatherW, kGatherH, /*density=*/0.6, /*seed=*/21);
  std::vector<core::Ownership> owned;
  for (int r = 0; r < kGatherRanks; ++r) {
    // Ceil-boundary vertical slices: 5 uneven tiles covering the frame.
    const int x0 = (kGatherW * r + kGatherRanks - 1) / kGatherRanks;
    const int x1 = (kGatherW * (r + 1) + kGatherRanks - 1) / kGatherRanks;
    owned.push_back(core::Ownership::full_rect(img::Rect{x0, 0, x1, kGatherH}));
  }
  expect_images_near(gather_spmd(full, owned), full, /*tolerance=*/0.0f);
}

TEST(GatherFinalNonPow2, RectOwnershipToleratesEmptyRects) {
  // A fully blank subimage leaves some ranks owning nothing (BSBR-family
  // behaviour): the gather must still terminate and reassemble the rest.
  const img::Image full =
      pvr::random_subimage(kGatherW, kGatherH, /*density=*/0.5, /*seed=*/22);
  std::vector<core::Ownership> owned(kGatherRanks,
                                     core::Ownership::full_rect(img::kEmptyRect));
  owned[1] = core::Ownership::full_rect(img::Rect{0, 0, kGatherW, kGatherH});
  expect_images_near(gather_spmd(full, owned), full, /*tolerance=*/0.0f);
}

TEST(GatherFinalNonPow2, InterleavedOwnershipReassemblesTheFrame) {
  const img::Image full =
      pvr::random_subimage(kGatherW, kGatherH, /*density=*/0.6, /*seed=*/23);
  const int total = kGatherW * kGatherH;
  std::vector<core::Ownership> owned;
  for (int r = 0; r < kGatherRanks; ++r) {
    owned.push_back(core::Ownership::interleaved(img::InterleavedRange{
        r, kGatherRanks, (total + kGatherRanks - 1 - r) / kGatherRanks}));
  }
  expect_images_near(gather_spmd(full, owned), full, /*tolerance=*/0.0f);
}

TEST(GatherFinalNonPow2, FullAtRootReturnsRootImageWithoutPixelTraffic) {
  const img::Image full =
      pvr::random_subimage(kGatherW, kGatherH, /*density=*/0.6, /*seed=*/24);
  const std::vector<core::Ownership> owned(kGatherRanks, core::Ownership::full_at_root());
  expect_images_near(gather_spmd(full, owned), full, /*tolerance=*/0.0f);
}

// ---- pixel exactness: every (plan, codec) combination ≡ reference ---------

struct ComboCase {
  std::size_t combo;  ///< index into MethodSet::plan_combinations()
  int ranks;
};

std::string combo_case_name(const ::testing::TestParamInfo<ComboCase>& info) {
  const auto combos = pvr::MethodSet::plan_combinations();
  std::string name(combos[info.param.combo]->name());
  for (char& c : name) {
    if (c == '-' || c == '+') c = '_';
  }
  return name + "_P" + std::to_string(info.param.ranks);
}

class PlanComboExactness : public ::testing::TestWithParam<ComboCase> {};

TEST_P(PlanComboExactness, MatchesSequentialReference) {
  const ComboCase& c = GetParam();
  const auto combos = pvr::MethodSet::plan_combinations();
  const core::Compositor& method = *combos[c.combo];
  try {
    (void)method.schedule(c.ranks);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << method.name() << " undefined at P=" << c.ranks;
  }
  const auto subimages =
      make_subimages(c.ranks, 48, 36, /*density=*/0.35,
                     /*seed=*/static_cast<std::uint32_t>(1000 + c.combo * 31 + c.ranks));
  const core::SwapOrder order = ascending_order(c.ranks);
  const auto result = run_method(method, subimages, order);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  expect_images_near(result.final_image, reference);
}

std::vector<ComboCase> combo_cases() {
  std::vector<ComboCase> cases;
  const std::size_t count = pvr::MethodSet::plan_combinations().size();
  for (std::size_t i = 0; i < count; ++i) {
    for (const int ranks : {2, 4, 6, 8, 12}) {
      cases.push_back(ComboCase{i, ranks});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PlanComboExactness,
                         ::testing::ValuesIn(combo_cases()), combo_case_name);

// Descending depth order: the k-ary engine composites group members by the
// global front-to-back traversal, which must also hold reversed.
TEST(PlanComboExactness, KaryBrcMatchesReferenceUnderDescendingOrder) {
  const int ranks = 6;
  const core::PlanCompositor kary_brc("KaryBRC", core::PlanFamily::kKary,
                                      core::CodecKind::kRleRect, core::TrackerKind::kUnion);
  const float view_dir[3] = {-1.0f, 0.0f, 0.0f};
  const core::SwapOrder order = core::make_fold_order(ranks, /*axis=*/0, view_dir);
  const auto subimages = make_subimages(ranks, 48, 36, /*density=*/0.35, /*seed=*/77);
  const auto result = run_method(kary_brc, subimages, order);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  expect_images_near(result.final_image, reference);
}

// ---- static + dynamic verification of the cross-bred combinations --------

TEST(PlanComboSchedules, VerifyAtEveryRankCountUpTo17) {
  const auto combos = pvr::MethodSet::plan_combinations();
  int verified = 0;
  for (int p = 2; p <= 17; ++p) {
    for (const auto& method : combos) {
      CommSchedule schedule;
      try {
        schedule = method->schedule(p);
      } catch (const std::invalid_argument&) {
        continue;  // e.g. the tree combination at non-power-of-two P
      }
      check::append_final_gather(schedule);
      const auto result = check::verify_schedule(schedule);
      EXPECT_TRUE(result.ok()) << method->name() << " P=" << p << "\n" << result.summary();
      ++verified;
    }
  }
  // The four k-ary combos verify at every P; tree/direct-send add more.
  EXPECT_GE(verified, 4 * 16);
}

class PlanComboTrace : public ::testing::TestWithParam<int> {};

TEST_P(PlanComboTrace, NonPow2RunReplaysItsDerivedSchedule) {
  const int ranks = GetParam();
  const int width = 32, height = 24;
  const core::PlanCompositor kary_brc("KaryBRC", core::PlanFamily::kKary,
                                      core::CodecKind::kRleRect, core::TrackerKind::kUnion);
  const core::PlanCompositor ds_brc("DirectSend-BRC", core::PlanFamily::kDirectSend,
                                    core::CodecKind::kRleRect, core::TrackerKind::kUnion);
  const auto subimages = make_subimages(ranks, width, height, /*density=*/0.4, /*seed=*/13);
  const core::SwapOrder order = ascending_order(ranks);

  for (const core::Compositor* method : {static_cast<const core::Compositor*>(&kary_brc),
                                         static_cast<const core::Compositor*>(&ds_brc)}) {
    const auto result = run_method(*method, subimages, order);
    CommSchedule schedule = method->schedule(ranks);
    check::append_final_gather(schedule);

    const auto conformance =
        check::check_trace_conformance(result.run.trace(), schedule, width, height);
    EXPECT_TRUE(conformance.ok())
        << method->name() << " P=" << ranks << ":\n" << conformance.summary();

    const auto hb = check::check_happens_before(result.run.trace());
    EXPECT_TRUE(hb.ok()) << method->name() << " P=" << ranks << ":\n" << hb.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(NonPow2, PlanComboTrace, ::testing::Values(3, 6, 10));

// The derived power-of-two binary-swap schedules must replay real runs of
// the paper methods, proving the plan derivation byte-compatible with the
// hand-built schedules it replaced.
TEST(PlanComboTrace, DerivedBinarySwapScheduleReplaysPow2Run) {
  const int ranks = 8;
  const int width = 32, height = 24;
  const core::PlanCompositor bs_plan("BS", core::PlanFamily::kBinarySwap,
                                     core::CodecKind::kFullPixel, core::TrackerKind::kNone);
  const auto subimages = make_subimages(ranks, width, height, /*density=*/0.4, /*seed=*/17);
  const auto order = make_default_order(log2_exact(ranks));
  const auto result = run_method(bs_plan, subimages, order);
  CommSchedule schedule = bs_plan.schedule(ranks);
  check::append_final_gather(schedule);
  const auto conformance =
      check::check_trace_conformance(result.run.trace(), schedule, width, height);
  EXPECT_TRUE(conformance.ok()) << conformance.summary();
}

}  // namespace
}  // namespace slspvr
