// End-to-end pipeline tests: partition -> render -> composite -> gather via
// the pvr::Experiment harness, including the Eq. (9) check on real rendered
// subimages, the folded non-power-of-two path, and the concurrent rendering
// phase against serial per-brick renders.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/plan_compositor.hpp"
#include "image/kernels.hpp"
#include "pvr/experiment.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "render/splatting.hpp"
#include "test_helpers.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;
namespace img = slspvr::img;
namespace render = slspvr::render;
using slspvr::testing::expect_images_near;

namespace {

pvr::ExperimentConfig small_config(vol::DatasetKind kind, int ranks) {
  pvr::ExperimentConfig config;
  config.dataset = kind;
  config.volume_scale = 0.15;
  config.image_size = 64;
  config.ranks = ranks;
  return config;
}

bool same_bytes(const img::Image& a, const img::Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(), a.pixels().size_bytes()) == 0;
}

render::OrthoCamera camera_of(const vol::Dataset& dataset, const pvr::ExperimentConfig& config) {
  return render::OrthoCamera(dataset.volume.dims(), config.image_size, config.image_size,
                             config.rot_x_deg, config.rot_y_deg);
}

}  // namespace

TEST(Experiment, EveryPaperMethodMatchesReference) {
  const pvr::Experiment experiment(small_config(vol::DatasetKind::Head, 8));
  const img::Image reference = experiment.reference();
  ASSERT_GT(img::count_non_blank(reference, reference.bounds()), 0);
  for (const auto& method : pvr::MethodSet::paper_methods()) {
    const auto result = experiment.run(*method);
    expect_images_near(result.final_image, reference);
  }
}

TEST(Experiment, RelatedWorkMethodsMatchReferenceToo) {
  const pvr::Experiment experiment(small_config(vol::DatasetKind::EngineHigh, 4));
  const img::Image reference = experiment.reference();
  for (const auto& method : pvr::MethodSet::all_methods()) {
    SCOPED_TRACE(std::string("method ") + std::string(method->name()));
    const auto result = experiment.run(*method);
    expect_images_near(result.final_image, reference);
  }
}

TEST(Experiment, NonPowerOfTwoRanksUseFold) {
  const pvr::Experiment experiment(small_config(vol::DatasetKind::Cube, 6));
  const img::Image reference = experiment.reference();
  const core::Compositor& bsbrc = core::bsbrc();
  const auto result = experiment.run(bsbrc);
  EXPECT_EQ(result.method, "Fold+BSBRC");
  expect_images_near(result.final_image, reference);
}

TEST(Experiment, Equation9HoldsOnRenderedImages) {
  for (const auto kind : {vol::DatasetKind::EngineLow, vol::DatasetKind::Cube}) {
    const pvr::Experiment experiment(small_config(kind, 8));
    std::vector<std::pair<std::string, std::uint64_t>> m;
    for (const auto& method : pvr::MethodSet::paper_methods()) {
      m.emplace_back(std::string(method->name()), experiment.run(*method).m_max);
    }
    ASSERT_EQ(m.size(), 4u);  // BS, BSBR, BSLC, BSBRC
    const auto m_bs = m[0].second, m_bsbr = m[1].second, m_bslc = m[2].second,
               m_bsbrc = m[3].second;
    EXPECT_GE(m_bs + 128, m_bsbr) << vol::dataset_name(kind);
    EXPECT_GE(m_bsbr + 128, m_bsbrc) << vol::dataset_name(kind);
    EXPECT_GE(m_bs, m_bslc) << vol::dataset_name(kind);
  }
}

TEST(Experiment, ModelTimesArePositiveAndDecomposed) {
  const pvr::Experiment experiment(small_config(vol::DatasetKind::EngineLow, 8));
  const core::Compositor& bsbrc = core::bsbrc();
  const auto result = experiment.run(bsbrc);
  EXPECT_GT(result.times.comp_ms, 0.0);
  EXPECT_GT(result.times.comm_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.times.total_ms(), result.times.comp_ms + result.times.comm_ms);
  EXPECT_GT(result.m_max, 0u);
  EXPECT_EQ(result.per_rank.size(), 8u);
  EXPECT_EQ(result.received_bytes_per_rank.size(), 8u);
  std::uint64_t max_bytes = 0;
  for (const auto b : result.received_bytes_per_rank) max_bytes = std::max(max_bytes, b);
  EXPECT_EQ(max_bytes, result.m_max);
}

TEST(Experiment, BalancedPartitionStillCorrect) {
  auto config = small_config(vol::DatasetKind::Head, 8);
  config.balanced_partition = true;
  const pvr::Experiment experiment(config);
  const img::Image reference = experiment.reference();
  const core::Compositor& bsbrc = core::bsbrc();
  expect_images_near(experiment.run(bsbrc).final_image, reference);
}

TEST(Experiment, SplattingRendererComposites) {
  auto config = small_config(vol::DatasetKind::Head, 2);
  config.use_splatting = true;
  // Splatting footprints spill one pixel across brick boundaries, so the
  // parallel-composite equals the brick-wise reference (same inputs), which
  // is what the compositing phase guarantees.
  const pvr::Experiment experiment(config);
  const img::Image reference = experiment.reference();
  ASSERT_GT(img::count_non_blank(reference, reference.bounds()), 0);
  const core::Compositor& bsbrc = core::bsbrc();
  expect_images_near(experiment.run(bsbrc).final_image, reference);
}

TEST(Experiment, InvalidRanksThrow) {
  EXPECT_THROW(pvr::Experiment(small_config(vol::DatasetKind::Head, 0)),
               std::invalid_argument);
}

TEST(Experiment, WallClockIsMeasured) {
  const pvr::Experiment experiment(small_config(vol::DatasetKind::Cube, 4));
  const core::Compositor& bsbrc = core::bsbrc();
  EXPECT_GT(experiment.run(bsbrc).wall_ms, 0.0);
}

TEST(Experiment, ConcurrentBricksMatchSerialReferenceRenders) {
  // The rendering phase renders every brick at once, each into its own
  // subimage and through its own kept slot: each subimage must be the plain
  // marcher's serial render of its brick, kd bricks for P = 4 and 8 and
  // slabs for P = 3 and 6, fresh and kept, under both marches.
  const vol::Dataset dataset = vol::make_dataset(vol::DatasetKind::EngineLow, 0.15);
  render::KeptRenderers kept;
  for (const int ranks : {4, 8, 3, 6}) {
    const pvr::ExperimentConfig config = small_config(vol::DatasetKind::EngineLow, ranks);
    const render::OrthoCamera camera = camera_of(dataset, config);
    for (const bool scalar : {true, false}) {
      for (render::KeptRenderers* renderers : {static_cast<render::KeptRenderers*>(nullptr),
                                                &kept}) {
        img::kern::force_scalar_kernels(scalar);
        const pvr::Experiment experiment(dataset, config, renderers);
        img::kern::clear_kernel_override();
        ASSERT_EQ(experiment.subimages().size(), static_cast<std::size_t>(ranks));
        for (std::size_t i = 0; i < experiment.bricks().size(); ++i) {
          img::Image want(config.image_size, config.image_size);
          render::render_brick_reference(dataset.volume, dataset.tf, camera,
                                         experiment.bricks()[i], want);
          EXPECT_TRUE(same_bytes(experiment.subimages()[i], want))
              << "P " << ranks << " brick " << i << (scalar ? " scalar" : " packet")
              << (renderers != nullptr ? " kept" : " fresh");
        }
      }
    }
  }
}

TEST(Experiment, ConcurrentSplatsMatchSerialSplats) {
  const vol::Dataset dataset = vol::make_dataset(vol::DatasetKind::Head, 0.15);
  for (const int ranks : {4, 6}) {
    pvr::ExperimentConfig config = small_config(vol::DatasetKind::Head, ranks);
    config.use_splatting = true;
    const pvr::Experiment experiment(dataset, config);
    for (std::size_t i = 0; i < experiment.bricks().size(); ++i) {
      img::Image want(config.image_size, config.image_size);
      render::splat_brick(dataset.volume, dataset.tf, camera_of(dataset, config),
                          experiment.bricks()[i], want);
      EXPECT_TRUE(same_bytes(experiment.subimages()[i], want)) << "P " << ranks << " brick " << i;
    }
  }
}

TEST(Experiment, RenderErrorsReachTheCaller) {
  // A brick that fails on its own thread fails the constructor, and the
  // next frame on the same thread renders as if nothing happened.
  const vol::Dataset dataset = vol::make_dataset(vol::DatasetKind::Cube, 0.15);
  const pvr::ExperimentConfig good = small_config(vol::DatasetKind::Cube, 4);
  for (const float step : {0.0f, std::numeric_limits<float>::quiet_NaN()}) {
    pvr::ExperimentConfig bad = good;
    bad.step = step;
    EXPECT_THROW(pvr::Experiment(dataset, bad), std::invalid_argument) << "step " << step;
    const pvr::Experiment experiment(dataset, good);
    for (std::size_t i = 0; i < experiment.bricks().size(); ++i) {
      img::Image want(good.image_size, good.image_size);
      render::render_brick_reference(dataset.volume, dataset.tf, camera_of(dataset, good),
                                     experiment.bricks()[i], want);
      EXPECT_TRUE(same_bytes(experiment.subimages()[i], want)) << "brick " << i;
    }
  }
}
