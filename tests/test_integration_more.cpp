// Final integration combos: fold × distributed partitioning, splatting ×
// every proposed method, BSBRS on rendered workloads, and the experiment
// harness's option interplay.
#include <gtest/gtest.h>

#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "test_helpers.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;
namespace img = slspvr::img;
using slspvr::testing::expect_images_near;

namespace {

pvr::ExperimentConfig tiny(vol::DatasetKind kind, int ranks) {
  pvr::ExperimentConfig config;
  config.dataset = kind;
  config.volume_scale = 0.12;
  config.image_size = 56;
  config.ranks = ranks;
  return config;
}

}  // namespace

TEST(IntegrationMore, DistributedPartitioningWithNonPowerOfTwoFold) {
  auto config = tiny(vol::DatasetKind::Head, 6);
  config.distributed_partitioning = true;
  const pvr::Experiment experiment(config);
  EXPECT_GT(experiment.total_partition_bytes(), 0u);
  const core::Compositor& bsbrs = core::bsbrs();
  const auto result = experiment.run(bsbrs);
  EXPECT_EQ(result.method, "Fold+BSBRS");
  expect_images_near(result.final_image, experiment.reference());
}

TEST(IntegrationMore, SplattingWorksWithEveryProposedMethod) {
  auto config = tiny(vol::DatasetKind::Cube, 4);
  config.use_splatting = true;
  const pvr::Experiment experiment(config);
  const auto reference = experiment.reference();
  ASSERT_GT(img::count_non_blank(reference, reference.bounds()), 0);
  for (const auto& method : pvr::MethodSet::proposed_methods()) {
    SCOPED_TRACE(std::string(method->name()));
    expect_images_near(experiment.run(*method).final_image, reference);
  }
}

TEST(IntegrationMore, BsbrsOnRenderedWorkloads) {
  for (const auto kind : {vol::DatasetKind::EngineHigh, vol::DatasetKind::Head}) {
    const pvr::Experiment experiment(tiny(kind, 8));
    const core::Compositor& bsbrs = core::bsbrs();
    const auto result = experiment.run(bsbrs);
    expect_images_near(result.final_image, experiment.reference());
    // Span payloads stay within headers of BSBRC's (measured equivalence).
    const core::Compositor& bsbrc = core::bsbrc();
    const auto rc = experiment.run(bsbrc);
    EXPECT_LT(static_cast<double>(result.m_max),
              static_cast<double>(rc.m_max) * 1.2 + 512)
        << vol::dataset_name(kind);
  }
}

TEST(IntegrationMore, BalancedPartitionComposesWithDistribution) {
  auto config = tiny(vol::DatasetKind::EngineLow, 8);
  config.balanced_partition = true;
  config.distributed_partitioning = true;
  const pvr::Experiment experiment(config);
  const core::Compositor& bsbrs = core::bsbrs();
  expect_images_near(experiment.run(bsbrs).final_image, experiment.reference());
}

TEST(IntegrationMore, UserDatasetHonoursAllOptions) {
  // Bring-your-own volume + rainbow TF through the rect/RLE path.
  vol::Dataset dataset = vol::make_dataset(vol::DatasetKind::Cube, 0.1);
  dataset.tf = vol::rainbow_tf(100.0f, 200.0f, 0.7f);
  auto config = tiny(vol::DatasetKind::Head /*ignored*/, 4);
  const pvr::Experiment experiment(dataset, config);
  const auto reference = experiment.reference();
  ASSERT_GT(img::count_non_blank(reference, reference.bounds()), 0);
  for (const auto& method : pvr::MethodSet::paper_methods()) {
    SCOPED_TRACE(std::string(method->name()));
    expect_images_near(experiment.run(*method).final_image, reference);
  }
}

TEST(IntegrationMore, RanksOneDegeneratesGracefully) {
  const pvr::Experiment experiment(tiny(vol::DatasetKind::Head, 1));
  const core::Compositor& bsbrs = core::bsbrs();
  const auto result = experiment.run(bsbrs);
  expect_images_near(result.final_image, experiment.subimages()[0]);
  EXPECT_EQ(result.m_max, 0u);
  EXPECT_DOUBLE_EQ(result.times.comm_ms, 0.0);
}
