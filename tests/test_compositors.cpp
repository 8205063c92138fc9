// Correctness of every compositing method against the sequential reference,
// parameterized over processor counts, image sparsity, and depth orders.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/binary_tree.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
using slspvr::testing::expect_images_near;
using slspvr::testing::make_default_order;
using slspvr::testing::make_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

namespace {

enum class Method {
  kBS,
  kBSBR,
  kBSLC,
  kBSLCNonInterleaved,
  kBSBRC,
  kBinaryTree,
  kDirectSendFull,
  kDirectSendSparse,
  kPipeline,
};

const core::Compositor& make(Method m) {
  static const core::BinaryTreeCompositor tree;
  static const core::ParallelPipelineCompositor pipeline;
  switch (m) {
    case Method::kBS: return core::bs();
    case Method::kBSBR: return core::bsbr();
    case Method::kBSLC: return core::bslc();
    case Method::kBSLCNonInterleaved: return core::bslc_noninterleaved();
    case Method::kBSBRC: return core::bsbrc();
    case Method::kBinaryTree: return tree;
    case Method::kDirectSendFull: return core::direct_send_full();
    case Method::kDirectSendSparse: return core::direct_send_sparse();
    case Method::kPipeline: return pipeline;
  }
  throw std::invalid_argument("unknown method");
}

struct Case {
  Method method;
  int ranks;
  double density;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name(make(info.param.method).name());
  for (char& c : name) {
    if (c == '-' || c == '+') c = '_';
  }
  return name + "_P" + std::to_string(info.param.ranks) + "_d" +
         std::to_string(static_cast<int>(info.param.density * 100));
}

// Helper: log2 for the powers of two used in the parameter table.
int vol_levels(int ranks) {
  int l = 0;
  while ((1 << l) < ranks) ++l;
  return l;
}

class CompositorCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(CompositorCorrectness, MatchesSequentialReference) {
  const Case& c = GetParam();
  const core::Compositor& method = make(c.method);
  const auto subimages = make_subimages(c.ranks, 64, 48, c.density);
  const core::SwapOrder order = make_default_order(vol_levels(c.ranks));
  const auto result = run_method(method, subimages, order);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  expect_images_near(result.final_image, reference);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Method m :
       {Method::kBS, Method::kBSBR, Method::kBSLC, Method::kBSLCNonInterleaved,
        Method::kBSBRC, Method::kBinaryTree, Method::kDirectSendFull,
        Method::kDirectSendSparse, Method::kPipeline}) {
    for (const int ranks : {1, 2, 4, 8, 16}) {
      for (const double density : {0.0, 0.08, 0.45, 0.97}) {
        cases.push_back(Case{m, ranks, density});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, CompositorCorrectness,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---- depth-order variations -------------------------------------------

class CompositorOrders : public ::testing::TestWithParam<int> {};

TEST_P(CompositorOrders, RandomFrontBackBitsStillMatchReference) {
  // Exercise every combination of per-bit front decisions for P=8 (2^3
  // combinations) across the four paper methods.
  const int mask = GetParam();
  const int levels = 3;
  std::vector<bool> lower_front;
  for (int b = 0; b < levels; ++b) lower_front.push_back(((mask >> b) & 1) != 0);
  const core::SwapOrder order = make_order(levels, lower_front);
  const auto subimages = make_subimages(8, 40, 40, 0.3, /*seed=*/99 + mask);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);

  for (const Method m : {Method::kBS, Method::kBSBR, Method::kBSLC, Method::kBSBRC,
                         Method::kBinaryTree, Method::kDirectSendFull, Method::kPipeline}) {
    const core::Compositor& method = make(m);
    const auto result = run_method(method, subimages, order);
    expect_images_near(result.final_image, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBitMasks, CompositorOrders, ::testing::Range(0, 8));

// ---- method-specific behaviour ------------------------------------------

TEST(BinarySwap, OverOpsMatchEquationOne) {
  // Eq. (1): each PE composites A/2^k pixels at stage k.
  const int ranks = 8;
  const auto subimages = make_subimages(ranks, 32, 32, 0.5);
  const auto result = run_method(core::bs(), subimages,
                                 make_default_order(3));
  const std::int64_t a = 32 * 32;
  const std::int64_t expected = a / 2 + a / 4 + a / 8;
  for (const auto& counters : result.per_rank) {
    EXPECT_EQ(counters.over_ops, expected);
  }
}

TEST(BinarySwap, MessageBytesMatchEquationTwo) {
  // Eq. (2): stage-k messages carry 16 * A/2^k bytes.
  const int ranks = 4;
  const auto subimages = make_subimages(ranks, 32, 32, 0.5);
  const auto result =
      run_method(core::bs(), subimages, make_default_order(2));
  const std::int64_t a = 32 * 32;
  for (int rank = 0; rank < ranks; ++rank) {
    std::int64_t stage1 = 0, stage2 = 0;
    for (const auto& rec : result.run.trace().received(rank)) {
      if (rec.tag < 0) continue;
      if (rec.stage == 1) stage1 += static_cast<std::int64_t>(rec.bytes);
      if (rec.stage == 2) stage2 += static_cast<std::int64_t>(rec.bytes);
    }
    EXPECT_EQ(stage1, 16 * (a / 2));
    EXPECT_EQ(stage2, 16 * (a / 4));
  }
}

TEST(Bsbr, BlankImagesSendOnlyRectHeaders) {
  const int ranks = 8;
  std::vector<img::Image> blank(ranks, img::Image(32, 32));
  const auto result = run_method(core::bsbr(), blank, make_default_order(3));
  for (int rank = 0; rank < ranks; ++rank) {
    EXPECT_EQ(result.per_rank[static_cast<std::size_t>(rank)].over_ops, 0);
    for (const auto& rec : result.run.trace().received(rank)) {
      if (rec.tag < 0 || rec.stage < 1) continue;
      EXPECT_EQ(rec.bytes, 8u);  // empty bounding rectangle: header only
    }
  }
}

TEST(Bsbr, DenseImagesDegradeTowardBinarySwapTraffic) {
  const int ranks = 4;
  const auto subimages = make_subimages(ranks, 32, 32, 0.99);
  const auto bs = run_method(core::bs(), subimages, make_default_order(2));
  const auto bsbr = run_method(core::bsbr(), subimages, make_default_order(2));
  const auto bytes = [](const slspvr::testing::SpmdResult& r, int rank) {
    std::uint64_t total = 0;
    for (const auto& rec : r.run.trace().received(rank)) {
      if (rec.tag >= 0 && rec.stage >= 1) total += rec.bytes;
    }
    return total;
  };
  for (int rank = 0; rank < ranks; ++rank) {
    // Nearly-full rectangles: BSBR ships almost as much as BS, plus headers,
    // but never more than BS + per-stage header overhead.
    EXPECT_LE(bytes(bsbr, rank), bytes(bs, rank) + 8u * 2u);
    EXPECT_GE(bytes(bsbr, rank), bytes(bs, rank) / 2);
  }
}

TEST(Bslc, EncodesExactlyHalfImageEachStage) {
  // Eq. (5): the encoder iterates A/2^k pixels at stage k.
  const auto subimages = make_subimages(8, 32, 32, 0.4);
  const auto result = run_method(core::bslc(), subimages, make_default_order(3));
  const std::int64_t a = 32 * 32;
  for (const auto& counters : result.per_rank) {
    EXPECT_EQ(counters.encoded_pixels, a / 2 + a / 4 + a / 8);
  }
}

TEST(Bslc, CompositesOnlyNonBlankPixels) {
  const auto subimages = make_subimages(4, 32, 32, 0.1);
  const auto bs = run_method(core::bs(), subimages, make_default_order(2));
  const auto bslc = run_method(core::bslc(), subimages, make_default_order(2));
  for (std::size_t r = 0; r < bslc.per_rank.size(); ++r) {
    EXPECT_LT(bslc.per_rank[r].over_ops, bs.per_rank[r].over_ops);
  }
}

TEST(Bsbrc, EncodesOnlyInsideSendingRectangle) {
  // Sparse images: BSBRC's encode work (A_send) must be well below BSLC's
  // full half-image (A/2^k) — the Sec. 3.4 advantage.
  const auto subimages = make_subimages(8, 64, 64, 0.05);
  const auto bslc = run_method(core::bslc(), subimages, make_default_order(3));
  const auto bsbrc = run_method(core::bsbrc(), subimages, make_default_order(3));
  std::int64_t bslc_encoded = 0, bsbrc_encoded = 0;
  for (std::size_t r = 0; r < bslc.per_rank.size(); ++r) {
    bslc_encoded += bslc.per_rank[r].encoded_pixels;
    bsbrc_encoded += bsbrc.per_rank[r].encoded_pixels;
  }
  EXPECT_LT(bsbrc_encoded, bslc_encoded / 2);
}

TEST(Bsbrc, BlankImagesSendOnlyRectHeaders) {
  std::vector<img::Image> blank(4, img::Image(24, 24));
  const auto result = run_method(core::bsbrc(), blank, make_default_order(2));
  for (int rank = 0; rank < 4; ++rank) {
    for (const auto& rec : result.run.trace().received(rank)) {
      if (rec.tag >= 0 && rec.stage >= 1) EXPECT_EQ(rec.bytes, 8u);
    }
  }
}

TEST(BinaryTree, OnlyRootHoldsResult) {
  const auto subimages = make_subimages(8, 24, 24, 0.4);
  const core::SwapOrder order = make_default_order(3);
  const auto result = run_method(core::BinaryTreeCompositor(), subimages, order);
  expect_images_near(result.final_image,
                     core::composite_reference(subimages, order.front_to_back));
  // Parallelism halves every stage: rank 1 sends at stage 1 then goes idle.
  std::uint64_t rank1_sent = 0;
  for (const auto& rec : result.run.trace().sent(1)) {
    if (rec.tag >= 0 && rec.stage >= 1) ++rank1_sent;
  }
  EXPECT_EQ(rank1_sent, 1u);
}

TEST(DirectSend, EveryRankSendsNMinusOneMessages) {
  const auto subimages = make_subimages(8, 24, 24, 0.4);
  const auto result =
      run_method(core::direct_send_full(), subimages, make_default_order(3));
  for (int rank = 0; rank < 8; ++rank) {
    int user_msgs = 0;
    for (const auto& rec : result.run.trace().sent(rank)) {
      if (rec.tag >= 0 && rec.stage >= 1) ++user_msgs;
    }
    EXPECT_EQ(user_msgs, 7);
  }
}

TEST(DirectSend, SparseVariantShipsFewerBytes) {
  const auto subimages = make_subimages(8, 48, 48, 0.08);
  const auto full =
      run_method(core::direct_send_full(), subimages, make_default_order(3));
  const auto sparse =
      run_method(core::direct_send_sparse(), subimages, make_default_order(3));
  EXPECT_LT(core::max_received_message_bytes(sparse.run.trace()),
            core::max_received_message_bytes(full.run.trace()));
}

TEST(Pipeline, MessageCountIsRanksMinusOne) {
  const auto subimages = make_subimages(8, 24, 24, 0.4);
  const auto result =
      run_method(core::ParallelPipelineCompositor(), subimages, make_default_order(3));
  for (int rank = 0; rank < 8; ++rank) {
    int user_msgs = 0;
    for (const auto& rec : result.run.trace().sent(rank)) {
      if (rec.tag >= 0 && rec.stage >= 1) ++user_msgs;
    }
    EXPECT_EQ(user_msgs, 7);
  }
}

TEST(Pipeline, NonPowerOfTwoRingWorks) {
  // The pipeline is not restricted to powers of two; run it on 5 and 6
  // ranks with an identity depth order.
  for (const int ranks : {3, 5, 6}) {
    const auto subimages = make_subimages(ranks, 30, 30, 0.3);
    core::SwapOrder order;
    order.levels = 0;
    order.front_to_back.resize(static_cast<std::size_t>(ranks));
    for (int i = 0; i < ranks; ++i) order.front_to_back[static_cast<std::size_t>(i)] = i;
    const auto result = run_method(core::ParallelPipelineCompositor(), subimages, order);
    expect_images_near(result.final_image,
                       core::composite_reference(subimages, order.front_to_back));
  }
}

TEST(AllMethods, OddImageDimensions) {
  // Non-power-of-two image sizes exercise the uneven centerline splits and
  // interleave remainders.
  const auto subimages = make_subimages(8, 37, 23, 0.35);
  const core::SwapOrder order = make_default_order(3);
  const img::Image reference = core::composite_reference(subimages, order.front_to_back);
  for (const Method m : {Method::kBS, Method::kBSBR, Method::kBSLC, Method::kBSBRC}) {
    const core::Compositor& method = make(m);
    const auto result = run_method(method, subimages, order);
    expect_images_near(result.final_image, reference);
  }
}

TEST(AllMethods, SingleRankIsIdentity) {
  const auto subimages = make_subimages(1, 16, 16, 0.5);
  const core::SwapOrder order = make_default_order(0);
  for (const Method m : {Method::kBS, Method::kBSBR, Method::kBSLC, Method::kBSBRC,
                         Method::kBinaryTree, Method::kPipeline}) {
    const core::Compositor& method = make(m);
    const auto result = run_method(method, subimages, order);
    expect_images_near(result.final_image, subimages[0]);
  }
}

}  // namespace
