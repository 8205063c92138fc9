// Ablation: rendering-phase load balancing (the paper's future-work item on
// "an efficient load-balancing scheme in the rendering phase since ... the
// size of opaque voxels has large disparities").
//
// Compares the uniform midpoint kd partition against the dense-voxel
// balanced kd partition: per-rank dense-voxel counts (render work proxy)
// and the resulting compositing cost for BSBRC.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "volume/partition.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;

namespace {

struct Spread {
  std::int64_t max = 0;
  std::int64_t min = 0;
  [[nodiscard]] double ratio() const {
    return min > 0 ? static_cast<double>(max) / static_cast<double>(min)
                   : static_cast<double>(max);
  }
};

Spread dense_spread(const vol::Volume& volume, const vol::KdPartition& partition,
                    std::uint8_t threshold) {
  Spread spread;
  spread.min = std::numeric_limits<std::int64_t>::max();
  for (const auto& brick : partition.bricks) {
    const auto dense = volume.count_dense_voxels(brick, threshold);
    spread.max = std::max(spread.max, dense);
    spread.min = std::min(spread.min, dense);
  }
  if (spread.min == std::numeric_limits<std::int64_t>::max()) spread.min = 0;
  return spread;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = slspvr::bench::parse_options(argc, argv);
  const int image_size = options.image_size > 0 ? options.image_size : 384;
  constexpr std::uint8_t kThreshold = 64;

  std::cout << "Ablation — uniform vs dense-voxel-balanced kd partition "
            << "(render-phase load proxy: dense voxels per PE)\n\n";

  pvr::TextTable table({"dataset", "P", "partition", "max dense", "min dense", "max/min",
                        "BSBRC T_total"});

  for (const auto kind : {vol::DatasetKind::EngineHigh, vol::DatasetKind::Head}) {
    const auto ds = vol::make_dataset(kind, options.scale);
    for (const int ranks : {8, 16}) {
      for (const bool balanced : {false, true}) {
        const auto partition =
            balanced ? vol::kd_partition_balanced(ds.volume, ranks, kThreshold)
                     : vol::kd_partition(ds.volume.dims(), ranks);
        const Spread spread = dense_spread(ds.volume, partition, kThreshold);

        pvr::ExperimentConfig config;
        config.dataset = kind;
        config.volume_scale = options.scale;
        config.image_size = image_size;
        config.ranks = ranks;
        config.balanced_partition = balanced;
        const pvr::Experiment experiment(config);
        const core::Compositor& bsbrc = core::bsbrc();
        const auto result = experiment.run(bsbrc);

        table.add_row({ds.name, std::to_string(ranks), balanced ? "balanced" : "uniform",
                       pvr::fmt_bytes(static_cast<std::uint64_t>(spread.max)),
                       pvr::fmt_bytes(static_cast<std::uint64_t>(spread.min)),
                       pvr::fmt_ms(spread.ratio(), 2),
                       pvr::fmt_ms(result.times.total_ms())});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nBalanced cuts should pull max/min toward 1, evening the rendering\n"
               "phase; compositing cost stays in the same regime.\n";
  return 0;
}
