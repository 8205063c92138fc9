// Tests for per-stage counter snapshots and the staged timeline model.
#include <gtest/gtest.h>

#include "core/plan_compositor.hpp"
#include "core/timeline.hpp"
#include "pvr/experiment.hpp"
#include "pvr/synthetic.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

TEST(StageMarks, DeltasPartitionTheTotals) {
  const auto subimages = make_subimages(8, 40, 40, 0.3, 77);
  const auto result = run_method(core::bsbrc(), subimages, make_default_order(3));
  for (const auto& c : result.per_rank) {
    EXPECT_EQ(c.marked_stages(), 3);
    core::OpTotals sum;
    for (int k = 1; k <= c.marked_stages(); ++k) {
      const auto d = c.stage_delta(k);
      EXPECT_GE(d.encoded_pixels, 0);
      EXPECT_GE(d.over_ops, 0);
      sum.over_ops += d.over_ops;
      sum.encoded_pixels += d.encoded_pixels;
      sum.rect_scanned += d.rect_scanned;
      sum.codes_emitted += d.codes_emitted;
      sum.pixels_sent += d.pixels_sent;
      sum.pixels_received += d.pixels_received;
    }
    EXPECT_EQ(sum, c.totals());
  }
}

TEST(StageMarks, OutOfRangeStagesAreZero) {
  core::Counters c;
  c.over_ops = 5;
  c.mark_stage();
  EXPECT_EQ(c.stage_delta(1).over_ops, 5);
  EXPECT_EQ(c.stage_delta(0).over_ops, 0);
  EXPECT_EQ(c.stage_delta(2).over_ops, 0);
  EXPECT_EQ(c.stage_delta(-3).over_ops, 0);
}

TEST(Timeline, BinarySwapFirstStageDominates) {
  // BS on uniform workloads: everyone does identical work, so the timeline
  // equals the additive per-rank time (no wait) up to float rounding.
  const auto subimages = make_subimages(8, 64, 64, 0.5, 11);
  const auto order = make_default_order(3);
  const auto result = run_method(core::bs(), subimages, order);
  const core::CostModel model = core::CostModel::sp2();
  const auto timeline =
      core::simulate_timeline(result.per_rank, result.run.trace(), model);
  const auto additive = model.critical_path(result.per_rank, result.run.trace());
  EXPECT_NEAR(timeline.makespan_ms, additive.total_ms(), additive.total_ms() * 0.01);
  EXPECT_NEAR(timeline.max_wait_ms, 0.0, 1e-6);
  EXPECT_NEAR(timeline.sync_overhead_ms, 0.0, 1e-6);
}

TEST(Timeline, MakespanNeverBelowAnyRankAdditiveTime) {
  const auto subimages = make_subimages(8, 48, 48, 0.25, 13);
  const auto order = make_default_order(3);
  const core::CostModel model = core::CostModel::sp2();
  for (const auto& method : pvr::MethodSet::paper_methods()) {
    const auto result = run_method(*method, subimages, order);
    const auto timeline =
        core::simulate_timeline(result.per_rank, result.run.trace(), model);
    for (int r = 0; r < 8; ++r) {
      const auto t = model.rank_times(result.per_rank[static_cast<std::size_t>(r)],
                                      result.run.trace(), r);
      EXPECT_GE(timeline.makespan_ms + 1e-9, t.total_ms())
          << method->name() << " rank " << r;
    }
  }
}

TEST(Timeline, SkewedWorkloadCreatesWaitWithoutInterleaving) {
  // Molnar's observation, now visible in time: on a corner-skewed workload
  // the contiguous (non-interleaved) BSLC variant makes lightly-loaded
  // ranks wait for the heavy ones; interleaving removes most of that.
  const auto subimages = pvr::make_skewed_subimages(8, 128, 128, 0.1);
  const auto order = make_default_order(3);
  const core::CostModel model = core::CostModel::sp2();

  const auto inter = run_method(core::bslc(), subimages, order);
  const auto contig = run_method(core::bslc_noninterleaved(), subimages, order);
  const auto t_inter = core::simulate_timeline(inter.per_rank, inter.run.trace(), model);
  const auto t_contig = core::simulate_timeline(contig.per_rank, contig.run.trace(), model);

  EXPECT_LT(t_inter.makespan_ms, t_contig.makespan_ms);
  EXPECT_LT(t_inter.max_wait_ms, t_contig.max_wait_ms);
}

TEST(Timeline, ExposedThroughMethodResult) {
  pvr::ExperimentConfig config;
  config.dataset = slspvr::vol::DatasetKind::Cube;
  config.volume_scale = 0.1;
  config.image_size = 48;
  config.ranks = 8;
  const pvr::Experiment experiment(config);
  const core::Compositor& bsbrc = core::bsbrc();
  const auto result = experiment.run(bsbrc);
  EXPECT_GT(result.timeline.makespan_ms, 0.0);
  EXPECT_EQ(result.timeline.rank_finish_ms.size(), 8u);
  // The staged makespan can only exceed the additive critical path.
  EXPECT_GE(result.timeline.makespan_ms + 1e-9, result.times.total_ms());
}

TEST(Timeline, EmptyCountersGiveZeroMakespan) {
  const std::vector<core::Counters> none(4);
  const slspvr::mp::TrafficTrace trace(4);
  const auto t = core::simulate_timeline(none, trace, core::CostModel::sp2());
  EXPECT_DOUBLE_EQ(t.makespan_ms, 0.0);
}
