// Ablation: partitioning-phase traffic versus processor count.
//
// The compositing phase is the paper's bottleneck *because* the partitioning
// phase is a one-off: its total traffic is ~the volume size plus a ghost
// surface term that grows with P (each brick ships a one-voxel skin). This
// bench quantifies that: total/max ghost-brick payloads per P, the ghost
// overhead ratio, and the compositing traffic of one BSBRC frame for scale —
// showing why repeated-frame rendering amortizes partitioning but not
// compositing.
#include <iostream>

#include "bench_common.hpp"
#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;

int main(int argc, char** argv) {
  const auto options = slspvr::bench::parse_options(argc, argv);
  const int image = options.image_size > 0 ? options.image_size : 384;

  std::cout << "Ablation — partitioning-phase traffic vs P (head, volume scale "
            << options.scale << ")\n\n";

  const vol::Dims dims = vol::dataset_dims(vol::DatasetKind::Head, options.scale);
  const std::uint64_t volume_bytes = static_cast<std::uint64_t>(dims.voxel_count());

  pvr::TextTable table({"P", "partition total", "partition max/PE", "ghost overhead",
                        "BSBRC frame traffic"});

  const core::Compositor& bsbrc = core::bsbrc();
  for (const int ranks : options.ranks) {
    pvr::ExperimentConfig config;
    config.dataset = vol::DatasetKind::Head;
    config.volume_scale = options.scale;
    config.image_size = image;
    config.ranks = ranks;
    config.distributed_partitioning = vol::is_power_of_two(ranks);
    if (!config.distributed_partitioning) continue;  // fold path renders shared
    const pvr::Experiment experiment(config);

    const auto result = experiment.run(bsbrc);
    std::uint64_t frame_bytes = 0;
    for (const auto b : result.received_bytes_per_rank) frame_bytes += b;

    // Ideal = everyone's brick except rank 0's, with no ghost layers.
    const std::uint64_t ideal =
        std::max<std::uint64_t>(1, volume_bytes * static_cast<std::uint64_t>(ranks - 1) /
                                       static_cast<std::uint64_t>(ranks));
    const double overhead =
        static_cast<double>(experiment.total_partition_bytes()) / static_cast<double>(ideal);

    table.add_row({std::to_string(ranks), pvr::fmt_bytes(experiment.total_partition_bytes()),
                   pvr::fmt_bytes(experiment.max_partition_bytes()),
                   pvr::fmt_ms(overhead, 3), pvr::fmt_bytes(frame_bytes)});
  }
  table.print(std::cout);
  std::cout << "\nghost overhead = shipped bytes / ideal (volume minus rank 0's share);\n"
               "it grows with P as brick surface/volume ratios worsen. Compositing\n"
               "traffic recurs EVERY frame — the paper's bottleneck argument.\n";
  return 0;
}
