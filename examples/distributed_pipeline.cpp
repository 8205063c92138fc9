// The complete Figure-1 pipeline, distributed for real: rank 0 owns the
// volume; the partitioning phase ships each PE its ghost brick over the
// message-passing runtime; PEs render from purely local data; compositing
// runs BSBRC; the final image gathers at rank 0. Reports the traffic of
// every phase — the whole sort-last story in one run.
#include <filesystem>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "image/compare.hpp"
#include "image/image_io.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace img = slspvr::img;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.35;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 8;
  std::filesystem::create_directories("out");

  pvr::ExperimentConfig config;
  config.dataset = vol::DatasetKind::Head;
  config.volume_scale = scale;
  config.image_size = 384;
  config.ranks = ranks;
  config.distributed_partitioning = true;

  std::cout << "Sort-last pipeline, fully distributed (P=" << ranks << ", head, scale "
            << scale << ")\n\n";

  const pvr::Experiment experiment(config);
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();
  const auto result = experiment.run(bsbrc);

  const auto reference = experiment.reference();
  img::write_pgm(result.final_image, "out/distributed_head.pgm");

  pvr::TextTable table({"phase", "traffic", "notes"});
  table.add_row({"1. partitioning", pvr::fmt_bytes(experiment.total_partition_bytes()),
                 "ghost bricks shipped from rank 0 (max single PE: " +
                     pvr::fmt_bytes(experiment.max_partition_bytes()) + ")"});
  std::uint64_t compositing_bytes = 0;
  for (const auto b : result.received_bytes_per_rank) compositing_bytes += b;
  table.add_row({"2. rendering", "0", "purely PE-local ray casting"});
  table.add_row({"3. compositing", pvr::fmt_bytes(compositing_bytes),
                 "BSBRC, M_max " + pvr::fmt_bytes(result.m_max) + ", modelled T_total " +
                     pvr::fmt_ms(result.times.total_ms()) + " ms"});
  table.print(std::cout);

  const float err = img::max_abs_diff(result.final_image, reference);
  std::cout << "\nfinal image: out/distributed_head.pgm (max |err| vs reference " << err
            << ")\n";
  return err < 1e-4f ? 0 : 1;
}
