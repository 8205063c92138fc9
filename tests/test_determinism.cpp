// Determinism: repeated SPMD runs must produce bit-identical images,
// counters, and traffic — the property that makes the counter-based cost
// model a sound measurement instrument despite thread scheduling.
#include <gtest/gtest.h>

#include "core/parallel_pipeline.hpp"
#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const auto subimages = make_subimages(8, 48, 48, 0.3, 12321);
  const auto order = make_default_order(3);
  const core::Compositor& bsbrc = core::bsbrc();

  const auto a = run_method(bsbrc, subimages, order);
  const auto b = run_method(bsbrc, subimages, order);

  EXPECT_EQ(a.final_image, b.final_image);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(a.per_rank[static_cast<std::size_t>(r)].totals(),
              b.per_rank[static_cast<std::size_t>(r)].totals());
    EXPECT_EQ(core::received_message_bytes(a.run.trace(), r),
              core::received_message_bytes(b.run.trace(), r));
  }
  EXPECT_EQ(core::max_received_message_bytes(a.run.trace()),
            core::max_received_message_bytes(b.run.trace()));
}

TEST(Determinism, PipelineTrafficIsStableAcrossRuns) {
  // The pipeline uses plain send (not sendrecv); matching by (source, tag)
  // must keep the byte counts identical regardless of thread interleaving.
  const auto subimages = make_subimages(6, 36, 36, 0.4, 999);
  core::SwapOrder order;
  order.levels = 0;
  for (int i = 0; i < 6; ++i) order.front_to_back.push_back(i);
  const core::ParallelPipelineCompositor pipeline;
  const auto a = run_method(pipeline, subimages, order);
  const auto b = run_method(pipeline, subimages, order);
  EXPECT_EQ(a.final_image, b.final_image);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(core::received_message_bytes(a.run.trace(), r),
              core::received_message_bytes(b.run.trace(), r));
  }
}

TEST(Determinism, ModelTimesReproducible) {
  const auto subimages = make_subimages(4, 40, 40, 0.5, 555);
  const auto order = make_default_order(2);
  const core::Compositor& bslc = core::bslc();
  const auto a = pvr::run_compositing(bslc, subimages, order);
  const auto b = pvr::run_compositing(bslc, subimages, order);
  EXPECT_DOUBLE_EQ(a.times.comp_ms, b.times.comp_ms);
  EXPECT_DOUBLE_EQ(a.times.comm_ms, b.times.comm_ms);
  EXPECT_DOUBLE_EQ(a.timeline.makespan_ms, b.timeline.makespan_ms);
  EXPECT_EQ(a.m_max, b.m_max);
}

TEST(Determinism, ExperimentRenderingIsReproducible) {
  pvr::ExperimentConfig config;
  config.dataset = slspvr::vol::DatasetKind::Cube;
  config.volume_scale = 0.1;
  config.image_size = 40;
  config.ranks = 4;
  const pvr::Experiment a(config);
  const pvr::Experiment b(config);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(a.subimages()[r], b.subimages()[r]);
  }
}
