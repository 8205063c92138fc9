// Tests for the volume/dataset/camera/raycast/splatting substrate — and the
// crucial brick-factorisation property that makes sort-last compositing
// exact for the ray caster.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/order.hpp"
#include "core/reference.hpp"
#include "image/image_io.hpp"
#include "render/raycast.hpp"
#include "render/splatting.hpp"
#include "volume/datasets.hpp"
#include "volume/partition.hpp"

namespace vol = slspvr::vol;
namespace img = slspvr::img;
namespace render = slspvr::render;
namespace core = slspvr::core;

TEST(Volume, AtAndClampedAccess) {
  vol::Volume v(vol::Dims{4, 4, 4});
  v.at(1, 2, 3) = 100;
  EXPECT_EQ(v.at(1, 2, 3), 100);
  v.at(0, 0, 0) = 7;
  EXPECT_EQ(v.at_clamped(-5, -5, -5), 7);
  v.at(3, 3, 3) = 9;
  EXPECT_EQ(v.at_clamped(10, 10, 10), 9);
}

TEST(Volume, TrilinearSampleInterpolates) {
  vol::Volume v(vol::Dims{2, 2, 2});
  v.at(0, 0, 0) = 0;
  v.at(1, 0, 0) = 100;
  EXPECT_FLOAT_EQ(v.sample(0.0f, 0.0f, 0.0f), 0.0f);
  EXPECT_FLOAT_EQ(v.sample(1.0f, 0.0f, 0.0f), 100.0f);
  EXPECT_FLOAT_EQ(v.sample(0.5f, 0.0f, 0.0f), 50.0f);
}

TEST(Volume, RawIoRoundTrip) {
  const auto dims = vol::Dims{9, 7, 5};
  vol::Volume v(dims);
  for (std::size_t i = 0; i < v.data().size(); ++i) {
    v.data()[i] = static_cast<std::uint8_t>(i * 37 % 251);
  }
  const std::string path = std::filesystem::temp_directory_path() / "slspvr_vol_test.vol";
  vol::write_raw(v, path);
  const vol::Volume back = vol::read_raw(path);
  EXPECT_EQ(back.dims(), dims);
  EXPECT_EQ(back.data(), v.data());
  std::remove(path.c_str());
}

TEST(Volume, ReadRawRejectsGarbage) {
  const std::string path = std::filesystem::temp_directory_path() / "slspvr_garbage.vol";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a volume at all";
  }
  EXPECT_THROW((void)vol::read_raw(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TransferFunction, RampClassifies) {
  const auto tf = vol::ramp_tf(100.0f, 200.0f, 0.8f);
  EXPECT_FLOAT_EQ(tf.classify(0.0f).opacity, 0.0f);
  EXPECT_FLOAT_EQ(tf.classify(100.0f).opacity, 0.0f);
  EXPECT_NEAR(tf.classify(150.0f).opacity, 0.4f, 1e-5f);
  EXPECT_FLOAT_EQ(tf.classify(200.0f).opacity, 0.8f);
  EXPECT_FLOAT_EQ(tf.classify(255.0f).opacity, 0.8f);
}

TEST(TransferFunction, UnsortedPointsThrow) {
  EXPECT_THROW(vol::TransferFunction({{10, 0, 0}, {5, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(vol::TransferFunction({}), std::invalid_argument);
}

TEST(Datasets, DimensionsMatchThePaper) {
  EXPECT_EQ(vol::dataset_dims(vol::DatasetKind::EngineLow), (vol::Dims{256, 256, 110}));
  EXPECT_EQ(vol::dataset_dims(vol::DatasetKind::Head), (vol::Dims{256, 256, 113}));
  EXPECT_EQ(vol::dataset_dims(vol::DatasetKind::Cube), (vol::Dims{256, 256, 110}));
  // Scaled dims shrink proportionally.
  const auto small = vol::dataset_dims(vol::DatasetKind::EngineLow, 0.25);
  EXPECT_EQ(small.nx, 64);
  EXPECT_EQ(small.nz, 28);
}

TEST(Datasets, GeneratorsAreDeterministicAndNonEmpty) {
  const auto a = vol::make_dataset(vol::DatasetKind::Head, 0.2);
  const auto b = vol::make_dataset(vol::DatasetKind::Head, 0.2);
  EXPECT_EQ(a.volume.data(), b.volume.data());
  EXPECT_GT(a.volume.count_dense_voxels(vol::Brick::whole(a.volume.dims()), 1), 0);
}

TEST(Datasets, SparsityOrderingMatchesThePaper) {
  // Rendered at the default view, engine_high and cube must be much sparser
  // than engine_low and head — the property the evaluation leans on.
  const int size = 96;
  std::array<double, 4> coverage{};
  int i = 0;
  for (const auto kind : vol::kAllDatasets) {
    const auto ds = vol::make_dataset(kind, 0.25);
    render::OrthoCamera camera(ds.volume.dims(), size, size, 18.0f, 24.0f);
    img::Image image(size, size);
    render::render_full(ds.volume, ds.tf, camera, image);
    coverage[static_cast<std::size_t>(i++)] =
        static_cast<double>(img::count_non_blank(image, image.bounds())) / (size * size);
  }
  const double engine_low = coverage[0], engine_high = coverage[1], head = coverage[2],
               cube = coverage[3];
  EXPECT_GT(engine_low, 0.15);
  EXPECT_GT(head, 0.2);
  EXPECT_LT(engine_high, engine_low * 0.7);
  EXPECT_LT(cube, 0.25);
  EXPECT_GT(engine_high, 0.01);
  EXPECT_GT(cube, 0.01);
}

TEST(Camera, ViewDirIsUnitAndRotates) {
  render::OrthoCamera straight(vol::Dims{64, 64, 64}, 32, 32);
  float d[3];
  straight.view_dir_array(d);
  EXPECT_NEAR(d[0], 0.0f, 1e-6f);
  EXPECT_NEAR(d[1], 0.0f, 1e-6f);
  EXPECT_NEAR(d[2], 1.0f, 1e-6f);

  render::OrthoCamera rotated(vol::Dims{64, 64, 64}, 32, 32, 30.0f, 45.0f);
  rotated.view_dir_array(d);
  EXPECT_NEAR(d[0] * d[0] + d[1] * d[1] + d[2] * d[2], 1.0f, 1e-5f);
  EXPECT_GT(std::abs(d[0]) + std::abs(d[1]), 0.1f);  // actually rotated
}

TEST(Camera, ProjectInvertsRayOrigin) {
  render::OrthoCamera camera(vol::Dims{40, 40, 40}, 64, 48, 15.0f, -20.0f);
  const std::vector<std::pair<int, int>> probes{{0, 0}, {63, 47}, {31, 20}};
  for (const auto& [px, py] : probes) {
    const auto origin = camera.ray_origin(px, py);
    float rx, ry;
    camera.project(origin, rx, ry);
    EXPECT_NEAR(rx, static_cast<float>(px), 1e-2f);
    EXPECT_NEAR(ry, static_cast<float>(py), 1e-2f);
  }
}

TEST(Raycast, BlankVolumeRendersBlank) {
  vol::Volume empty(vol::Dims{16, 16, 16});
  const auto tf = vol::ramp_tf(10, 20, 0.9f);
  render::OrthoCamera camera(empty.dims(), 24, 24);
  img::Image image(24, 24);
  render::render_full(empty, tf, camera, image);
  EXPECT_EQ(img::count_non_blank(image, image.bounds()), 0);
}

TEST(Raycast, StepMustBeFiniteAndPositive) {
  // A step of 0 or NaN would never reach the ray's end, and casting an
  // infinite or NaN sample index is undefined: every marcher rejects it.
  const vol::Dataset ds = vol::make_dataset(vol::DatasetKind::Cube, 0.1);
  const render::OrthoCamera camera(ds.volume.dims(), 8, 8);
  const vol::Brick brick = vol::Brick::whole(ds.volume.dims());
  const vol::GhostBrick ghost = vol::GhostBrick::extract(ds.volume, brick, 1);
  for (const float step : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity()}) {
    render::RaycastOptions options;
    options.step = step;
    img::Image out(8, 8);
    EXPECT_THROW(render::render_brick(ds.volume, ds.tf, camera, brick, out, options),
                 std::invalid_argument)
        << step;
    EXPECT_THROW(render::render_ghost_brick(ghost, ds.tf, camera, out, options),
                 std::invalid_argument)
        << step;
    EXPECT_THROW(render::render_brick_reference(ds.volume, ds.tf, camera, brick, out, options),
                 std::invalid_argument)
        << step;
    EXPECT_THROW(render::BrickRenderer(ds.volume, ds.tf, brick, options), std::invalid_argument)
        << step;
    EXPECT_THROW(render::BrickRenderer(ghost, ds.tf, options), std::invalid_argument) << step;
  }
}

TEST(Raycast, NonEmptyBrickNeedsVoxels) {
  // With no voxels, the marches' interior test wrapped and read through the
  // empty vector's null data, and Volume::at_clamped clamped to index -1:
  // every entry point rejects a non-empty brick there. An empty brick stays
  // legal and renders nothing.
  const vol::TransferFunction tf = vol::ramp_tf(10, 20, 0.9f);
  const render::OrthoCamera camera(vol::Dims{4, 4, 4}, 8, 8, 18.0f, 24.0f);
  const vol::Brick brick{0, 0, 0, 4, 4, 4};
  for (const vol::Dims dims : {vol::Dims{}, vol::Dims{0, 5, 5}}) {
    const vol::Volume volume(dims);
    const vol::GhostBrick ghost = vol::GhostBrick::from_wire(
        vol::GhostBrick::WireHeader{0, 0, 0, 4, 4, 4, 1, -1, -1, -1, dims.nx, dims.ny, dims.nz},
        {});
    const std::string where = std::to_string(dims.nx) + "x" + std::to_string(dims.ny) + "x" +
                              std::to_string(dims.nz);
    img::Image out(8, 8);
    EXPECT_THROW(render::render_brick(volume, tf, camera, brick, out), std::invalid_argument)
        << where;
    EXPECT_THROW(render::render_ghost_brick(ghost, tf, camera, out), std::invalid_argument)
        << where;
    EXPECT_THROW(render::render_brick_reference(volume, tf, camera, brick, out),
                 std::invalid_argument)
        << where;
    EXPECT_THROW(render::BrickRenderer(volume, tf, brick), std::invalid_argument) << where;
    EXPECT_THROW(render::BrickRenderer(ghost, tf), std::invalid_argument) << where;

    const vol::Brick empty{0, 0, 0, 0, 4, 4};
    render::RenderStats stats;
    render::render_brick(volume, tf, camera, empty, out, {}, &stats);
    render::render_brick_reference(volume, tf, camera, empty, out, {}, &stats);
    EXPECT_EQ(stats.samples, 0) << where;
    for (std::int64_t i = 0; i < out.pixel_count(); ++i) {
      EXPECT_EQ(out.at_index(i).a, 0.0f) << where;
    }
  }
}

TEST(Raycast, SolidVolumeCoversItsProjection) {
  vol::Volume solid(vol::Dims{16, 16, 16});
  for (auto& v : solid.data()) v = 255;
  const auto tf = vol::ramp_tf(10, 20, 0.9f);
  render::OrthoCamera camera(solid.dims(), 32, 32);
  img::Image image(32, 32);
  render::RenderStats stats;
  render::render_full(solid, tf, camera, image, {}, &stats);
  EXPECT_GT(stats.rays, 0);
  EXPECT_GT(stats.samples, 0);
  // The 16^3 cube occupies the central ~16/diag fraction of the viewport.
  EXPECT_GT(img::count_non_blank(image, image.bounds()), 32 * 32 / 6);
  // Center pixel must be saturated (early termination path).
  EXPECT_GT(image.at(16, 16).a, 0.9f);
}

class BrickFactorisation : public ::testing::TestWithParam<std::tuple<int, float, float>> {};

TEST_P(BrickFactorisation, BricksCompositeToWholeVolumeRender) {
  // THE load-bearing renderer property: rendering P bricks separately and
  // compositing them in depth order must equal rendering the whole volume
  // with one ray march (identical global sample grid).
  const auto [ranks, rot_x, rot_y] = GetParam();
  const auto ds = vol::make_dataset(vol::DatasetKind::Head, 0.15);
  const int size = 48;
  render::OrthoCamera camera(ds.volume.dims(), size, size, rot_x, rot_y);
  float dir[3];
  camera.view_dir_array(dir);

  img::Image whole(size, size);
  render::RaycastOptions options;
  options.early_termination = 2.0f;  // disable: bricks terminate independently
  render::render_full(ds.volume, ds.tf, camera, whole, options);

  const auto partition = vol::kd_partition(ds.volume.dims(), ranks);
  const auto order = core::make_swap_order(partition, dir);
  std::vector<img::Image> parts;
  for (const auto& brick : partition.bricks) {
    img::Image sub(size, size);
    render::render_brick(ds.volume, ds.tf, camera, brick, sub, options);
    parts.push_back(std::move(sub));
  }
  const img::Image composed = core::composite_reference(parts, order.front_to_back);

  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      ASSERT_NEAR(composed.at(x, y).a, whole.at(x, y).a, 2e-4f) << x << "," << y;
      ASSERT_NEAR(composed.at(x, y).r, whole.at(x, y).r, 2e-4f) << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ViewsAndRanks, BrickFactorisation,
                         ::testing::Values(std::tuple{2, 0.0f, 0.0f},
                                           std::tuple{4, 0.0f, 0.0f},
                                           std::tuple{8, 18.0f, 24.0f},
                                           std::tuple{8, -30.0f, 45.0f},
                                           std::tuple{16, 10.0f, -35.0f}));

TEST(Splatting, ProducesNonEmptyPlausibleImage) {
  const auto ds = vol::make_dataset(vol::DatasetKind::Head, 0.15);
  const int size = 48;
  render::OrthoCamera camera(ds.volume.dims(), size, size, 10.0f, 15.0f);
  img::Image image(size, size);
  render::SplatStats stats;
  render::splat_brick(ds.volume, ds.tf, camera, vol::Brick::whole(ds.volume.dims()), image,
                      {}, &stats);
  EXPECT_GT(stats.voxels_splatted, 0);
  EXPECT_GT(stats.sheets, 0);
  EXPECT_GT(img::count_non_blank(image, image.bounds()), size * size / 10);
}

TEST(Splatting, BlankVolumeSplatsNothing) {
  vol::Volume empty(vol::Dims{12, 12, 12});
  const auto tf = vol::ramp_tf(10, 20, 0.9f);
  render::OrthoCamera camera(empty.dims(), 16, 16);
  img::Image image(16, 16);
  render::SplatStats stats;
  render::splat_brick(empty, tf, camera, vol::Brick::whole(empty.dims()), image, {}, &stats);
  EXPECT_EQ(stats.voxels_splatted, 0);
  EXPECT_EQ(img::count_non_blank(image, image.bounds()), 0);
}

TEST(ImageIo, WritesPgmAndPpm) {
  img::Image image(8, 4);
  image.at(2, 1) = img::Pixel{0.5f, 0.5f, 0.5f, 1.0f};
  const auto dir = std::filesystem::temp_directory_path();
  const std::string pgm = dir / "slspvr_test.pgm";
  const std::string ppm = dir / "slspvr_test.ppm";
  img::write_pgm(image, pgm);
  img::write_ppm(image, ppm);
  EXPECT_GT(std::filesystem::file_size(pgm), 20u);
  EXPECT_GT(std::filesystem::file_size(ppm), 20u);
  std::remove(pgm.c_str());
  std::remove(ppm.c_str());
}
