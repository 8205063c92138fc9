// Tests for the distributed-memory data path: ghost-brick extraction,
// local-only rendering, and the SPMD partitioning phase.
#include <gtest/gtest.h>

#include "image/compare.hpp"
#include "pvr/distribute.hpp"
#include "pvr/experiment.hpp"
#include "render/raycast.hpp"
#include "volume/datasets.hpp"
#include "volume/ghost.hpp"

namespace vol = slspvr::vol;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
namespace render = slspvr::render;

TEST(GhostBrick, ExtractCopiesBrickPlusGhostLayer) {
  vol::Volume volume(vol::Dims{8, 8, 8});
  for (std::size_t i = 0; i < volume.data().size(); ++i) {
    volume.data()[i] = static_cast<std::uint8_t>(i % 251);
  }
  const vol::Brick brick{2, 2, 2, 6, 6, 6};
  const auto gb = vol::GhostBrick::extract(volume, brick, 1);
  EXPECT_EQ(gb.data().dims(), (vol::Dims{6, 6, 6}));
  EXPECT_EQ(gb.payload_bytes(), 216);
  // Interior voxels match the source.
  for (int z = brick.z0; z < brick.z1; ++z) {
    for (int y = brick.y0; y < brick.y1; ++y) {
      for (int x = brick.x0; x < brick.x1; ++x) {
        EXPECT_EQ(gb.data().at(x - 1, y - 1, z - 1), volume.at(x, y, z));
      }
    }
  }
  // Ghost layer matches neighbours.
  EXPECT_EQ(gb.data().at(0, 1, 1), volume.at(1, 2, 2));
}

TEST(GhostBrick, EdgeReplicationAtVolumeBoundary) {
  vol::Volume volume(vol::Dims{4, 4, 4});
  volume.at(0, 0, 0) = 42;
  const vol::Brick corner{0, 0, 0, 2, 2, 2};
  const auto gb = vol::GhostBrick::extract(volume, corner, 1);
  // Position (-1,-1,-1) in global coords replicates voxel (0,0,0).
  EXPECT_EQ(gb.data().at(0, 0, 0), 42);
}

TEST(GhostBrick, SamplesMatchFullVolumeInsideBrick) {
  const auto ds = vol::make_dataset(vol::DatasetKind::Head, 0.1);
  const vol::Brick brick{3, 4, 2, 15, 17, 9};
  const auto gb = vol::GhostBrick::extract(ds.volume, brick, 1);
  for (float z = static_cast<float>(brick.z0); z < static_cast<float>(brick.z1); z += 0.7f) {
    for (float y = static_cast<float>(brick.y0); y < static_cast<float>(brick.y1); y += 1.3f) {
      for (float x = static_cast<float>(brick.x0); x < static_cast<float>(brick.x1); x += 1.1f) {
        // Renderer sample positions are offset by -0.5 voxel.
        EXPECT_FLOAT_EQ(gb.sample(x - 0.5f, y - 0.5f, z - 0.5f),
                        ds.volume.sample(x - 0.5f, y - 0.5f, z - 0.5f))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(GhostBrick, WireRoundTrip) {
  const auto ds = vol::make_dataset(vol::DatasetKind::Cube, 0.08);
  const vol::Brick brick{1, 2, 3, 9, 8, 7};
  const auto gb = vol::GhostBrick::extract(ds.volume, brick, 1);
  auto voxels = gb.data().data();
  const auto back = vol::GhostBrick::from_wire(gb.wire_header(), std::move(voxels));
  EXPECT_EQ(back.brick(), gb.brick());
  EXPECT_EQ(back.data().data(), gb.data().data());
  EXPECT_FLOAT_EQ(back.sample(4.2f, 4.1f, 4.3f), gb.sample(4.2f, 4.1f, 4.3f));

  EXPECT_THROW((void)vol::GhostBrick::from_wire(gb.wire_header(), {}), std::invalid_argument);
}

TEST(GhostBrick, ExtractFromAVolumeWithNoVoxelsThrows) {
  // at_clamped clamps to index -1 on a volume with no voxels, so extract must
  // refuse before it reads, as the renderers do.
  const vol::Brick brick{0, 0, 0, 4, 4, 4};
  EXPECT_THROW((void)vol::GhostBrick::extract(vol::Volume{}, brick, 1), std::invalid_argument);
  EXPECT_THROW((void)vol::GhostBrick::extract(vol::Volume(vol::Dims{0, 5, 5}), brick, 0),
               std::invalid_argument);
}

TEST(GhostBrick, LocalRenderBitMatchesSharedRender) {
  const auto ds = vol::make_dataset(vol::DatasetKind::EngineHigh, 0.12);
  const int size = 64;
  render::OrthoCamera camera(ds.volume.dims(), size, size, 18.0f, 24.0f);
  const auto partition = vol::kd_partition(ds.volume.dims(), 8);
  for (const auto& brick : partition.bricks) {
    img::Image shared(size, size), local(size, size);
    render::render_brick(ds.volume, ds.tf, camera, brick, shared);
    const auto gb = vol::GhostBrick::extract(ds.volume, brick, 1);
    render::render_ghost_brick(gb, ds.tf, camera, local);
    EXPECT_EQ(shared, local);  // bit-identical
  }
}

TEST(Distributed, PartitioningPhaseShipsExactBrickPayloads) {
  const auto ds = vol::make_dataset(vol::DatasetKind::Head, 0.1);
  const int size = 48;
  render::OrthoCamera camera(ds.volume.dims(), size, size, 10.0f, 15.0f);
  const auto partition = vol::kd_partition(ds.volume.dims(), 4);
  const auto result = pvr::distribute_and_render(ds.volume, ds.tf, partition.bricks, camera);
  ASSERT_EQ(result.subimages.size(), 4u);

  // Expected traffic: header + voxels for ranks 1..3 (rank 0 keeps its own).
  std::uint64_t expected = 0;
  for (std::size_t r = 1; r < partition.bricks.size(); ++r) {
    const auto gb = vol::GhostBrick::extract(ds.volume, partition.bricks[r], 1);
    expected += sizeof(vol::GhostBrick::WireHeader) +
                static_cast<std::uint64_t>(gb.payload_bytes());
  }
  EXPECT_EQ(result.total_partition_bytes, expected);
  EXPECT_GT(result.max_partition_bytes, 0u);
}

TEST(Distributed, ExperimentProducesIdenticalSubimagesAndComposite) {
  pvr::ExperimentConfig config;
  config.dataset = vol::DatasetKind::EngineLow;
  config.volume_scale = 0.12;
  config.image_size = 64;
  config.ranks = 8;

  const pvr::Experiment shared(config);
  config.distributed_partitioning = true;
  const pvr::Experiment distributed(config);

  ASSERT_EQ(shared.subimages().size(), distributed.subimages().size());
  for (std::size_t r = 0; r < shared.subimages().size(); ++r) {
    EXPECT_EQ(shared.subimages()[r], distributed.subimages()[r]) << "rank " << r;
  }
  EXPECT_EQ(shared.total_partition_bytes(), 0u);
  EXPECT_GT(distributed.total_partition_bytes(), 0u);
  EXPECT_FLOAT_EQ(img::max_abs_diff(shared.reference(), distributed.reference()), 0.0f);
}
