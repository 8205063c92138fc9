// Empty-space skipping and ray packets change no byte: render_brick and
// render_ghost_brick must reproduce render_brick_reference (the plain
// marcher) exactly, with the same ray count, across datasets, partitions,
// views and options, under both marches: the scalar loop and, where the CPU
// has AVX2, the eight-ray packets. The two marches also count the same
// samples. A BrickRenderer kept across views, as the resident owners keep
// them, renders what a fresh render_brick does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "image/kernels.hpp"
#include "render/raycast.hpp"
#include "volume/datasets.hpp"
#include "volume/ghost.hpp"
#include "volume/partition.hpp"

namespace vol = slspvr::vol;
namespace img = slspvr::img;
namespace render = slspvr::render;

namespace {

bool same_bytes(const img::Image& a, const img::Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(), a.pixels().size_bytes()) == 0;
}

std::string describe(const vol::Brick& brick, const render::OrthoCamera& camera,
                     const render::RaycastOptions& options) {
  std::ostringstream out;
  out << "brick [" << brick.x0 << "," << brick.x1 << ")x[" << brick.y0 << "," << brick.y1
      << ")x[" << brick.z0 << "," << brick.z1 << ") view (" << camera.view_dir().x << ","
      << camera.view_dir().y << "," << camera.view_dir().z << ") step " << options.step
      << " min_alpha " << options.min_alpha << " early " << options.early_termination;
  return out.str();
}

/// Totals over the bricks checked, so callers can assert that skipping
/// actually happened.
struct Samples {
  std::int64_t reference = 0;
  std::int64_t kernel = 0;
};

/// One march's renders of a brick: render_brick over the shared volume and
/// render_ghost_brick from the brick's ghost extraction.
struct MarchRun {
  img::Image shared;
  img::Image local;
  render::RenderStats s_shared;
  render::RenderStats s_local;
};

MarchRun run_march(bool scalar, const vol::Volume& volume, const vol::GhostBrick& ghost,
                   const vol::TransferFunction& tf, const render::OrthoCamera& camera,
                   const vol::Brick& brick, const render::RaycastOptions& options) {
  MarchRun run{img::Image(camera.width(), camera.height()),
               img::Image(camera.width(), camera.height()), {}, {}};
  img::kern::force_scalar_kernels(scalar);
  render::render_brick(volume, tf, camera, brick, run.shared, options, &run.s_shared);
  render::render_ghost_brick(ghost, tf, camera, run.local, options, &run.s_local);
  img::kern::clear_kernel_override();
  return run;
}

/// Render every brick with the reference, and with render_brick over the
/// shared volume and render_ghost_brick from the brick's ghost extraction
/// under both marches; all five images must be byte-identical and count the
/// same rays, and the marches the same samples.
Samples expect_identical(const vol::Volume& volume, const vol::TransferFunction& tf,
                         const render::OrthoCamera& camera,
                         const std::vector<vol::Brick>& bricks,
                         const render::RaycastOptions& options) {
  Samples total;
  for (const vol::Brick& brick : bricks) {
    img::Image want(camera.width(), camera.height());
    render::RenderStats s_want;
    render::render_brick_reference(volume, tf, camera, brick, want, options, &s_want);
    const vol::GhostBrick ghost = vol::GhostBrick::extract(volume, brick, 1);
    const MarchRun scalar = run_march(true, volume, ghost, tf, camera, brick, options);
    const MarchRun packets = run_march(false, volume, ghost, tf, camera, brick, options);
    const std::string where = describe(brick, camera, options);
    for (const auto& [name, run] : {std::pair{"scalar", &scalar}, std::pair{"packet", &packets}}) {
      EXPECT_TRUE(same_bytes(run->shared, want)) << name << " render_brick, " << where;
      EXPECT_TRUE(same_bytes(run->local, want)) << name << " render_ghost_brick, " << where;
      EXPECT_EQ(run->s_shared.rays, s_want.rays) << name << ", " << where;
      EXPECT_EQ(run->s_local.rays, s_want.rays) << name << ", " << where;
      EXPECT_LE(run->s_shared.samples, s_want.samples) << name << ", " << where;
      EXPECT_LE(run->s_local.samples, s_want.samples) << name << ", " << where;
    }
    EXPECT_TRUE(same_bytes(packets.shared, scalar.shared)) << where;
    EXPECT_TRUE(same_bytes(packets.local, scalar.local)) << where;
    EXPECT_EQ(packets.s_shared.rays, scalar.s_shared.rays) << where;
    EXPECT_EQ(packets.s_local.rays, scalar.s_local.rays) << where;
    EXPECT_EQ(packets.s_shared.samples, scalar.s_shared.samples) << where;
    EXPECT_EQ(packets.s_local.samples, scalar.s_local.samples) << where;
    total.reference += s_want.samples;
    total.kernel += scalar.s_shared.samples;
  }
  return total;
}

/// kd bricks for P in {1, 2, 4, 8} and slab bricks for P in {3, 5}: the
/// partitions Experiment uses for power-of-two and other rank counts.
std::vector<std::vector<vol::Brick>> partitions(const vol::Dims& dims) {
  std::vector<std::vector<vol::Brick>> out;
  for (const int p : {1, 2, 4, 8}) out.push_back(vol::kd_partition(dims, p).bricks);
  for (const int p : {3, 5}) out.push_back(vol::slab_partition(dims, p, /*axis=*/0));
  return out;
}

struct View {
  float rot_x;
  float rot_y;
};

/// Axis-aligned views (their zero or near-zero direction components take
/// the clip's |d| < 1e-7 branch) and oblique ones.
constexpr View kViews[] = {{0, 0},      {90, 0},    {-90, 0},  {180, 0},  {0, 90},
                           {0, -90},    {0, 180},   {18, 24},  {-30, 45}, {10, -35},
                           {63, 117}};

struct DatasetCase {
  vol::DatasetKind kind;
  double scale;
};

class RaycastIdentityDatasets : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(RaycastIdentityDatasets, EveryPartitionAndView) {
  const auto [kind, scale] = GetParam();
  const vol::Dataset ds = vol::make_dataset(kind, scale);
  const int size = 40;
  Samples total;
  for (const View& view : kViews) {
    const render::OrthoCamera camera(ds.volume.dims(), size, size, view.rot_x, view.rot_y);
    for (const std::vector<vol::Brick>& bricks : partitions(ds.volume.dims())) {
      const Samples s = expect_identical(ds.volume, ds.tf, camera, bricks, {});
      total.reference += s.reference;
      total.kernel += s.kernel;
    }
  }
  EXPECT_LT(total.kernel, total.reference);  // the skipping is live
}

INSTANTIATE_TEST_SUITE_P(
    Scales012To035, RaycastIdentityDatasets,
    ::testing::Values(DatasetCase{vol::DatasetKind::EngineLow, 0.12},
                      DatasetCase{vol::DatasetKind::EngineHigh, 0.2},
                      DatasetCase{vol::DatasetKind::Head, 0.28},
                      DatasetCase{vol::DatasetKind::Cube, 0.35}),
    [](const ::testing::TestParamInfo<DatasetCase>& info) {
      return std::string(vol::dataset_name(info.param.kind));
    });

struct OptionsCase {
  float step;
  float min_alpha;
  bool early_termination;
};

class RaycastIdentityOptions : public ::testing::TestWithParam<OptionsCase> {};

TEST_P(RaycastIdentityOptions, StepMinAlphaAndTermination) {
  const auto [step, min_alpha, early] = GetParam();
  render::RaycastOptions options;
  options.step = step;
  options.min_alpha = min_alpha;
  if (!early) options.early_termination = 2.0f;  // never fires
  const int size = 40;
  for (const auto kind : {vol::DatasetKind::EngineLow, vol::DatasetKind::Head}) {
    const vol::Dataset ds = vol::make_dataset(kind, 0.2);
    for (const View& view : {View{0, 0}, View{0, 90}, View{18, 24}, View{-40, 200}}) {
      const render::OrthoCamera camera(ds.volume.dims(), size, size, view.rot_x, view.rot_y);
      const Samples s = expect_identical(ds.volume, ds.tf, camera,
                                         vol::kd_partition(ds.volume.dims(), 4).bricks, options);
      if (min_alpha == 0.0f) EXPECT_EQ(s.kernel, s.reference);  // nothing is transparent
    }
  }
}

std::vector<OptionsCase> all_options() {
  std::vector<OptionsCase> out;
  for (const float step : {0.5f, 1.0f, 1.7f}) {
    for (const float min_alpha : {0.0f, render::RaycastOptions{}.min_alpha, 0.3f}) {
      for (const bool early : {true, false}) out.push_back({step, min_alpha, early});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RaycastIdentityOptions, ::testing::ValuesIn(all_options()),
    [](const ::testing::TestParamInfo<OptionsCase>& info) {
      const OptionsCase& c = info.param;
      std::string name = "step" + std::to_string(static_cast<int>(c.step * 10.0f + 0.5f)) +
                         "_alpha" + std::to_string(static_cast<int>(c.min_alpha * 1e4f + 0.5f));
      return name + (c.early_termination ? "_early" : "_full");
    });

TEST(RaycastIdentity, RandomBricksViewsAndThresholds) {
  // Blocks of three kinds around a sharp ramp that starts at density 118:
  // noise across it, empty space, and mostly-118 blocks capped at 118. A
  // density of 118 reaches min_alpha only through the table entry above
  // 118's, so the widened range must keep those cells. Arbitrary bricks
  // (volume faces, single voxels, off-grid corners) exercise the clamped
  // stencils and the partial last cells.
  std::mt19937 rng(0x5EEDu);
  vol::Volume volume(vol::Dims{37, 29, 23});
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> near(90, 130);
  std::uniform_int_distribution<int> capped(100, 117);
  for (int z = 0; z < 23; ++z) {
    for (int y = 0; y < 29; ++y) {
      for (int x = 0; x < 37; ++x) {
        int v = 0;
        switch ((x / 10 + 4 * (y / 10) + 12 * (z / 10)) % 3) {
          case 0: v = (x + y + z) % 7 == 0 ? byte(rng) : near(rng); break;
          case 1: v = (x + 2 * y + 3 * z) % 5 == 0 ? capped(rng) : 118; break;
          default: break;
        }
        volume.at(x, y, z) = static_cast<std::uint8_t>(v);
      }
    }
  }
  const vol::TransferFunction tf = vol::ramp_tf(118.0f, 122.0f, 0.7f);
  std::uniform_real_distribution<float> angle(-180.0f, 180.0f);
  std::uniform_int_distribution<int> pick(0, 3);
  const float steps[] = {0.5f, 1.0f, 1.7f, 0.8f};
  const float alphas[] = {1.0f / 512.0f, 0.05f, 0.3f, 0.0f};
  const auto corner = [&](int n) {
    std::uniform_int_distribution<int> at(0, n);
    int a = at(rng), b = at(rng);
    if (a > b) std::swap(a, b);
    if (a == b) {  // keep the brick non-empty
      b = std::min(n, a + 1);
      a = b - 1;
    }
    return std::pair{a, b};
  };
  for (int k = 0; k < 120; ++k) {
    const auto [x0, x1] = corner(37);
    const auto [y0, y1] = corner(29);
    const auto [z0, z1] = corner(23);
    render::RaycastOptions options;
    options.step = steps[pick(rng)];
    options.min_alpha = alphas[pick(rng)];
    if (pick(rng) == 0) options.early_termination = 2.0f;
    const render::OrthoCamera camera(volume.dims(), 36, 30, angle(rng), angle(rng));
    (void)expect_identical(volume, tf, camera, {vol::Brick{x0, y0, z0, x1, y1, z1}}, options);
  }
}

TEST(RaycastIdentity, PacketTailsAtEveryWidth) {
  // Rectangles 1 to 17 px wide give every count of tail lanes in the
  // eight-ray packets. At zoom 2 the volume covers the whole viewport, so
  // the whole-volume brick's rectangle spans each image row.
  const vol::Dataset ds = vol::make_dataset(vol::DatasetKind::Head, 0.12);
  render::RaycastOptions all;
  all.min_alpha = 0.0f;
  for (int width = 1; width <= 17; ++width) {
    for (const View& view : {View{0, 0}, View{18, 24}, View{-30, 45}}) {
      const render::OrthoCamera camera(ds.volume.dims(), width, 5, view.rot_x, view.rot_y, 2.0f);
      (void)expect_identical(ds.volume, ds.tf, camera, {vol::Brick::whole(ds.volume.dims())}, {});
      (void)expect_identical(ds.volume, ds.tf, camera,
                             vol::kd_partition(ds.volume.dims(), 2).bricks, all);
    }
  }
}

TEST(RaycastIdentity, FarCornerBricksReadTheLastVoxel) {
  // A stencil based at (nx - 2, ny - 2, nz - 2) is interior, and its last
  // voxel is the volume's last byte: a packet's 4-byte read there would
  // pass the end of the data, so such lanes read through at_clamped. The
  // ghost bricks' storage ends at the brick, so there every far-corner
  // stencil does. With min_alpha = 0 and no early termination, every
  // stencil a ray meets is read.
  std::mt19937 rng(0xC0DEu);
  std::uniform_int_distribution<int> byte(0, 255);
  vol::Volume volume(vol::Dims{21, 13, 11});
  for (std::uint8_t& v : volume.data()) v = static_cast<std::uint8_t>(byte(rng));
  const vol::TransferFunction tf = vol::ramp_tf(0.0f, 255.0f, 0.2f);
  render::RaycastOptions options;
  options.min_alpha = 0.0f;
  options.early_termination = 2.0f;
  const vol::Dims d = volume.dims();
  const std::vector<vol::Brick> bricks = {
      vol::Brick{d.nx - 1, d.ny - 1, d.nz - 1, d.nx, d.ny, d.nz},
      vol::Brick{d.nx - 3, d.ny - 3, d.nz - 3, d.nx, d.ny, d.nz},
      vol::Brick{d.nx / 2, d.ny / 2, d.nz / 2, d.nx, d.ny, d.nz}};
  for (const View& view : kViews) {
    const render::OrthoCamera camera(d, 48, 48, view.rot_x, view.rot_y, 1.5f);
    (void)expect_identical(volume, tf, camera, bricks, options);
  }
}

TEST(RaycastIdentity, PacketsMixRaysThatMissAndHit) {
  // Small bricks seen obliquely: their projections are hexagons, so the
  // corners of their rectangles hold rays that miss the box, in the same
  // packets as rays that hit it.
  vol::Volume volume(vol::Dims{24, 24, 24});
  std::fill(volume.data().begin(), volume.data().end(), std::uint8_t{200});
  const vol::TransferFunction tf = vol::ramp_tf(100.0f, 220.0f, 0.6f);
  const std::vector<vol::Brick> bricks = {vol::Brick{9, 10, 11, 14, 13, 15},
                                          vol::Brick{3, 3, 3, 5, 9, 4},
                                          vol::Brick{20, 0, 7, 24, 2, 24}};
  for (const View& view : {View{45, 45}, View{30, -60}, View{-20, 135}, View{60, 10}}) {
    const render::OrthoCamera camera(volume.dims(), 64, 64, view.rot_x, view.rot_y, 2.0f);
    (void)expect_identical(volume, tf, camera, bricks, {});
    // Every ray that meets the opaque brick colours its pixel, so blank
    // pixels inside the covered pixels' bounding box are misses.
    img::Image image(64, 64);
    render::render_brick(volume, tf, camera, bricks[0], image);
    int covered = 0, x0 = 64, y0 = 64, x1 = -1, y1 = -1;
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        if (image.at(x, y).a == 0.0f) continue;
        ++covered;
        x0 = std::min(x0, x);
        y0 = std::min(y0, y);
        x1 = std::max(x1, x);
        y1 = std::max(y1, y);
      }
    }
    ASSERT_GT(covered, 0);
    EXPECT_LT(covered, (x1 - x0 + 1) * (y1 - y0 + 1));
  }
}

TEST(RaycastIdentity, JumpsFarAlongTheRayAreConfirmed) {
  // A 20000 x 6 x 5 volume, an 8-voxel visible slab every 64 voxels, seen
  // within 3 degrees of its long axis from both ends: rays meet it at
  // t ~ 10^4, where float rounding can put a jump's last sample a hair past
  // its transparent cell's far face (rays along +x) or near face (along -x),
  // in the visible cell beyond. last_in_cell's base check rejects such a
  // jump, so that sample is taken; a march without either half of the check
  // skips it and counts one sample fewer than the other march.
  vol::Volume volume(vol::Dims{20000, 6, 5});
  const vol::Dims d = volume.dims();
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) volume.at(x, y, z) = x % 64 < 8 ? 200 : 0;
    }
  }
  const vol::TransferFunction tf = vol::ramp_tf(100.0f, 220.0f, 0.6f);
  const std::vector<vol::Brick> whole = {vol::Brick::whole(d)};
  std::mt19937 rng(0x7A11u);
  std::uniform_real_distribution<float> off_axis(-3.0f, 3.0f);
  for (int k = 0; k < 128; ++k) {
    const float rot_x = off_axis(rng);
    const float rot_y = (k % 2 == 0 ? 90.0f : -90.0f) + off_axis(rng);
    const render::OrthoCamera camera(d, 8, 8, rot_x, rot_y, 2000.0f);
    (void)expect_identical(volume, tf, camera, whole, {});
  }
}

TEST(RaycastIdentity, KeptRenderersMatchEveryViewAndMarch) {
  // A resident owner keeps one renderer per brick and renders it view after
  // view, and the march can switch between calls: every render must be the
  // reference's, and count the samples of a fresh render_brick under the
  // same march.
  const vol::Dataset ds = vol::make_dataset(vol::DatasetKind::EngineLow, 0.2);
  const int size = 40;
  std::vector<vol::Brick> bricks = vol::kd_partition(ds.volume.dims(), 4).bricks;
  for (const vol::Brick& slab : vol::slab_partition(ds.volume.dims(), 3, /*axis=*/0)) {
    bricks.push_back(slab);
  }
  for (const vol::Brick& brick : bricks) {
    const vol::GhostBrick ghost = vol::GhostBrick::extract(ds.volume, brick, 1);
    const render::BrickRenderer shared(ds.volume, ds.tf, brick);
    const render::BrickRenderer local(ghost, ds.tf);
    for (const View& view : kViews) {
      const render::OrthoCamera camera(ds.volume.dims(), size, size, view.rot_x, view.rot_y);
      const std::string where = describe(brick, camera, {});
      img::Image want(size, size);
      render::RenderStats s_want;
      render::render_brick_reference(ds.volume, ds.tf, camera, brick, want, {}, &s_want);
      for (const bool scalar : {true, false}) {
        img::Image fresh(size, size), kept_shared(size, size), kept_local(size, size);
        render::RenderStats s_fresh, s_shared, s_local;
        img::kern::force_scalar_kernels(scalar);
        render::render_brick(ds.volume, ds.tf, camera, brick, fresh, {}, &s_fresh);
        shared.render(camera, kept_shared, &s_shared);
        local.render(camera, kept_local, &s_local);
        img::kern::clear_kernel_override();
        const char* march = scalar ? "scalar" : "packet";
        EXPECT_TRUE(same_bytes(kept_shared, want)) << march << " shared, " << where;
        EXPECT_TRUE(same_bytes(kept_local, want)) << march << " ghost, " << where;
        EXPECT_EQ(s_shared.rays, s_want.rays) << march << ", " << where;
        EXPECT_EQ(s_local.rays, s_want.rays) << march << ", " << where;
        EXPECT_EQ(s_shared.samples, s_fresh.samples) << march << ", " << where;
        EXPECT_EQ(s_local.samples, s_fresh.samples) << march << ", " << where;
      }
    }
  }
}

TEST(RaycastIdentity, KeptRenderersPrepareAnewOnlyForANewBrickOrStep) {
  // The owners' rule: a slot keeps its renderer while the volume, the brick
  // and the options stay, and prepares anew when one of them changes.
  // Every frame equals a fresh render_brick's.
  const vol::Dataset ds = vol::make_dataset(vol::DatasetKind::Head, 0.2);
  const vol::Dataset same_dims = vol::make_dataset(vol::DatasetKind::Head, 0.2);
  const std::vector<vol::Brick> bricks = vol::kd_partition(ds.volume.dims(), 4).bricks;
  const int size = 40;
  render::KeptRenderers kept;
  const auto expect_fresh = [&](std::size_t slot, const vol::Volume& volume,
                                const vol::Brick& brick, const View& view, float step,
                                std::int64_t prepares) {
    render::RaycastOptions options;
    options.step = step;
    const render::OrthoCamera camera(volume.dims(), size, size, view.rot_x, view.rot_y);
    img::Image got(size, size), want(size, size);
    render::RenderStats s_got, s_want;
    kept.render(slot, volume, ds.tf, brick, camera, got, options, &s_got);
    render::render_brick(volume, ds.tf, camera, brick, want, options, &s_want);
    const std::string where =
        "slot " + std::to_string(slot) + ", " + describe(brick, camera, options);
    EXPECT_EQ(kept.prepares(), prepares) << where;
    EXPECT_TRUE(same_bytes(got, want)) << where;
    EXPECT_EQ(s_got.rays, s_want.rays) << where;
    EXPECT_EQ(s_got.samples, s_want.samples) << where;
  };
  expect_fresh(0, ds.volume, bricks[0], {18, 24}, 1.0f, 1);    // the first render prepares
  expect_fresh(0, ds.volume, bricks[0], {18, 54}, 1.0f, 1);    // a new view does not
  expect_fresh(0, ds.volume, bricks[0], {-30, 45}, 1.0f, 1);
  expect_fresh(0, ds.volume, bricks[1], {-30, 45}, 1.0f, 2);   // a new brick does
  expect_fresh(0, ds.volume, bricks[1], {18, 24}, 0.7f, 3);    // so does a new step
  expect_fresh(0, ds.volume, bricks[1], {18, 54}, 0.7f, 3);
  expect_fresh(1, ds.volume, bricks[1], {18, 54}, 0.7f, 4);    // a slot keeps its own
  expect_fresh(0, ds.volume, bricks[1], {63, 117}, 0.7f, 4);
  expect_fresh(0, same_dims.volume, bricks[1], {63, 117}, 0.7f, 5);  // and a new volume
}

TEST(RaycastIdentity, KeptRenderersRenderDistinctSlotsConcurrently) {
  // The rendering phase renders a frame's bricks at once, brick i through
  // slot i of one KeptRenderers. Each slot prepares once, whichever thread
  // renders it, and every image is a fresh render_brick's.
  const vol::Dataset ds = vol::make_dataset(vol::DatasetKind::EngineLow, 0.2);
  const std::vector<vol::Brick> bricks = vol::kd_partition(ds.volume.dims(), 8).bricks;
  const int size = 40;
  render::KeptRenderers kept;
  kept.reserve(bricks.size());
  for (const View& view : {View{18, 24}, View{18, 24}, View{-30, 45}}) {
    const render::OrthoCamera camera(ds.volume.dims(), size, size, view.rot_x, view.rot_y);
    std::vector<img::Image> got(bricks.size(), img::Image(size, size));
    std::vector<render::RenderStats> stats(bricks.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < bricks.size(); ++i) {
      threads.emplace_back([&, i] {
        kept.render(i, ds.volume, ds.tf, bricks[i], camera, got[i], {}, &stats[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(kept.prepares(), static_cast<std::int64_t>(bricks.size()));
    for (std::size_t i = 0; i < bricks.size(); ++i) {
      img::Image want(size, size);
      render::RenderStats s_want;
      render::render_brick(ds.volume, ds.tf, camera, bricks[i], want, {}, &s_want);
      const std::string where = "slot " + std::to_string(i) + ", " +
                                describe(bricks[i], camera, {});
      EXPECT_TRUE(same_bytes(got[i], want)) << where;
      EXPECT_EQ(stats[i].rays, s_want.rays) << where;
      EXPECT_EQ(stats[i].samples, s_want.samples) << where;
    }
  }
}

class RaycastIdentityServiceSize : public ::testing::TestWithParam<vol::DatasetKind> {};

TEST_P(RaycastIdentityServiceSize, TwoRingViewsAt384) {
  // A service-orbit frame: 384^2, scale 0.5, kd bricks for P = 4, two views
  // of the 30-degree ring.
  const vol::Dataset ds = vol::make_dataset(GetParam(), 0.5);
  Samples total;
  for (const View& view : {View{18.0f, 24.0f}, View{18.0f, 144.0f}}) {
    const render::OrthoCamera camera(ds.volume.dims(), 384, 384, view.rot_x, view.rot_y);
    const Samples s = expect_identical(ds.volume, ds.tf, camera,
                                       vol::kd_partition(ds.volume.dims(), 4).bricks, {});
    total.reference += s.reference;
    total.kernel += s.kernel;
  }
  EXPECT_LT(total.kernel, total.reference);
}

INSTANTIATE_TEST_SUITE_P(Datasets, RaycastIdentityServiceSize,
                         ::testing::Values(vol::DatasetKind::Cube, vol::DatasetKind::Head,
                                           vol::DatasetKind::EngineLow),
                         [](const ::testing::TestParamInfo<vol::DatasetKind>& info) {
                           return std::string(vol::dataset_name(info.param));
                         });

}  // namespace
