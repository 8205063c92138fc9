// google-benchmark microbenchmarks for the primitive operations behind the
// cost model's constants: the over operator (T_o), bounding-rectangle scans
// (T_bound), run-length encoding (T_encode), compressed-domain compositing,
// buffer packing, the message-passing runtime itself, and one brick render
// prepared per call or once.
#include <benchmark/benchmark.h>

#include "core/bsbrc.hpp"
#include "core/engine.hpp"
#include "core/worker_pool.hpp"
#include "core/order.hpp"
#include "core/wire.hpp"
#include "image/kernels.hpp"
#include "image/value_rle.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"
#include "pvr/synthetic.hpp"
#include "render/raycast.hpp"
#include "volume/datasets.hpp"
#include "volume/partition.hpp"

namespace img = slspvr::img;
namespace core = slspvr::core;
namespace mp = slspvr::mp;
namespace pvr = slspvr::pvr;
namespace render = slspvr::render;
namespace vol = slspvr::vol;

namespace {

img::Image test_image(int size, double density) {
  return pvr::random_subimage(size, size, density, 42);
}

void BM_OverOperator(benchmark::State& state) {
  const img::Image a = test_image(256, 0.5);
  const img::Image b = test_image(256, 0.5);
  for (auto _ : state) {
    img::Pixel acc{};
    for (std::int64_t i = 0; i < a.pixel_count(); ++i) {
      acc = img::over(a.at_index(i), b.at_index(i));
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetItemsProcessed(state.iterations() * a.pixel_count());
}
BENCHMARK(BM_OverOperator);

// Pins the kernel dispatch for the duration of one benchmark run, so the
// *Scalar variants below measure the reference oracle and the plain variants
// measure whatever ISA the dispatch picks (AVX2 where compiled + supported).
class KernelIsaGuard {
 public:
  explicit KernelIsaGuard(bool scalar) { img::kern::force_scalar_kernels(scalar); }
  ~KernelIsaGuard() { img::kern::clear_kernel_override(); }
  KernelIsaGuard(const KernelIsaGuard&) = delete;
  KernelIsaGuard& operator=(const KernelIsaGuard&) = delete;
};

void composite_region_body(benchmark::State& state, bool scalar) {
  const KernelIsaGuard guard(scalar);
  const img::Image incoming = test_image(256, 0.5);
  img::Image local = test_image(256, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        img::composite_region(local, incoming, local.bounds(), true));
  }
  state.SetItemsProcessed(state.iterations() * local.pixel_count());
}

void BM_CompositeRegion(benchmark::State& state) { composite_region_body(state, false); }
BENCHMARK(BM_CompositeRegion);

void BM_CompositeRegionScalar(benchmark::State& state) { composite_region_body(state, true); }
BENCHMARK(BM_CompositeRegionScalar);

void bounding_rect_scan_body(benchmark::State& state, bool scalar) {
  const KernelIsaGuard guard(scalar);
  const img::Image image = test_image(static_cast<int>(state.range(0)), 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::bounding_rect_of(image, image.bounds()));
  }
  state.SetItemsProcessed(state.iterations() * image.pixel_count());
}

void BM_BoundingRectScan(benchmark::State& state) { bounding_rect_scan_body(state, false); }
BENCHMARK(BM_BoundingRectScan)->Arg(128)->Arg(384)->Arg(768);

void BM_BoundingRectScanScalar(benchmark::State& state) {
  bounding_rect_scan_body(state, true);
}
BENCHMARK(BM_BoundingRectScanScalar)->Arg(128)->Arg(384)->Arg(768);

void BM_RleEncodeRect(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const img::Image image = test_image(384, density);
  const img::Rect rect = img::bounding_rect_of(image, image.bounds());
  for (auto _ : state) {
    core::Counters counters;
    benchmark::DoNotOptimize(core::wire::encode_rect(image, rect, counters));
  }
  state.SetItemsProcessed(state.iterations() * std::max<std::int64_t>(1, rect.area()));
}
BENCHMARK(BM_RleEncodeRect)->Arg(5)->Arg(30)->Arg(70);

void BM_RleEncodeStrided(benchmark::State& state) {
  const img::Image image = test_image(384, 0.3);
  const img::InterleavedRange range{0, 4, image.pixel_count() / 4};
  for (auto _ : state) {
    core::Counters counters;
    benchmark::DoNotOptimize(core::wire::encode_strided(image, range, counters));
  }
  state.SetItemsProcessed(state.iterations() * range.count);
}
BENCHMARK(BM_RleEncodeStrided);

void BM_ValueRleEncode(benchmark::State& state) {
  const img::Image image = test_image(384, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::value_rle_encode(image.pixels()));
  }
  state.SetItemsProcessed(state.iterations() * image.pixel_count());
}
BENCHMARK(BM_ValueRleEncode);

void BM_ValueRleComposite(benchmark::State& state) {
  const auto front = img::value_rle_encode(test_image(256, 0.4).pixels());
  const auto back = img::value_rle_encode(test_image(256, 0.4).pixels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::value_rle_composite(front, back));
  }
}
BENCHMARK(BM_ValueRleComposite);

void BM_PackRectPixels(benchmark::State& state) {
  const img::Image image = test_image(384, 0.5);
  const img::Rect rect{32, 32, 352, 352};
  for (auto _ : state) {
    img::PackBuffer buf;
    buf.reserve(static_cast<std::size_t>(rect.area()) * 16);
    core::wire::pack_rect_pixels(image, rect, buf);
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * rect.area() * 16);
}
BENCHMARK(BM_PackRectPixels);

// The engine's scratch reuse (EngineContext per-worker pack buffer) versus a
// fresh PackBuffer per message — the allocation/zeroing cost every stage of
// every frame pays without the per-rank scratch arena. Compare against
// BM_PackReusedArena.
void BM_PackFreshBuffer(benchmark::State& state) {
  const img::Image image = test_image(384, 0.5);
  const img::Rect rect{32, 32, 352, 352};
  for (auto _ : state) {
    img::PackBuffer buf;  // fresh allocation every message
    core::wire::pack_rect_pixels(image, rect, buf);
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * rect.area() * 16);
}
BENCHMARK(BM_PackFreshBuffer);

void BM_PackReusedArena(benchmark::State& state) {
  const img::Image image = test_image(384, 0.5);
  const img::Rect rect{32, 32, 352, 352};
  core::EngineContext engine;
  for (auto _ : state) {
    img::PackBuffer& buf = engine.scratch(0).pack;
    buf.clear();  // keeps capacity: no allocation after the first iteration
    core::wire::pack_rect_pixels(image, rect, buf);
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * rect.area() * 16);
}
BENCHMARK(BM_PackReusedArena);

// A procs-orbit brick: engine_low at scale 1.0 (generated once for both
// benchmarks), the first kd brick for P = 4, the first ring view at 384^2.
struct RingBrick {
  static const vol::Dataset& dataset() {
    static const vol::Dataset engine_low = vol::make_dataset(vol::DatasetKind::EngineLow, 1.0);
    return engine_low;
  }
  const vol::Dataset& ds = dataset();
  vol::Brick brick = vol::kd_partition(ds.volume.dims(), 4).bricks[0];
  render::OrthoCamera camera{ds.volume.dims(), 384, 384, 18.0f, 24.0f};
  img::Image out{384, 384};
};

// render_brick prepares the brick (classification table and transparent-cell
// grid) on every call; a resident procs worker or FrameService session
// prepares it once and keeps the renderer. Compare against
// BM_RenderBrickKept.
void BM_RenderBrickFresh(benchmark::State& state) {
  RingBrick r;
  for (auto _ : state) {
    render::render_brick(r.ds.volume, r.ds.tf, r.camera, r.brick, r.out);
    benchmark::DoNotOptimize(r.out.pixels().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RenderBrickFresh)->Unit(benchmark::kMillisecond);

void BM_RenderBrickKept(benchmark::State& state) {
  RingBrick r;
  const render::BrickRenderer renderer(r.ds.volume, r.ds.tf, r.brick);
  for (auto _ : state) {
    renderer.render(r.camera, r.out);
    benchmark::DoNotOptimize(r.out.pixels().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RenderBrickKept)->Unit(benchmark::kMillisecond);

void BM_MessageRoundTrip(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> payload(bytes);
  for (auto _ : state) {
    (void)mp::Runtime::run(2, [&](mp::Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 1, payload);
        benchmark::DoNotOptimize(comm.recv(1, 2));
      } else {
        benchmark::DoNotOptimize(comm.recv(0, 1));
        comm.send(0, 2, payload);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes * 2));
}
BENCHMARK(BM_MessageRoundTrip)->Arg(1024)->Arg(1 << 20);

void BM_BinarySwapSpmd(benchmark::State& state) {
  // Whole-method wall time at P=8, 256x256 synthetic images — a sanity
  // check that methods run in microsecond-to-millisecond range in-process.
  const auto subimages = pvr::make_subimages(8, 256, 256, 0.3);
  const auto order = core::make_uniform_order(3);
  const core::BsbrcCompositor bsbrc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pvr::run_compositing(bsbrc, subimages, order));
  }
}
BENCHMARK(BM_BinarySwapSpmd);

}  // namespace

BENCHMARK_MAIN();
