// Quickstart: the whole sort-last-sparse pipeline in ~40 lines of API.
//
//   1. generate (or load) a volume dataset
//   2. partition it across P processors (kd tree)
//   3. render each brick to a subimage (ray casting)
//   4. composite with BSBRC — the paper's best method
//   5. write the final image and print what it cost
//
// Everything below also works with BS/BSBR/BSLC, with the splatting
// renderer, and with non-power-of-two P (see the other examples).
#include <filesystem>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "image/image_io.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;

int main() {
  // Configure: the paper's Head dataset, 8 PEs, 384x384 image, slightly
  // rotated view. volume_scale 0.5 keeps the demo fast; use 1.0 for the
  // full 256x256x113 grid.
  pvr::ExperimentConfig config;
  config.dataset = vol::DatasetKind::Head;
  config.volume_scale = 0.5;
  config.image_size = 384;
  config.ranks = 8;
  config.rot_x_deg = 18.0f;
  config.rot_y_deg = 24.0f;

  // Partition + render happen here (steps 1-3).
  std::cout << "partitioning and rendering " << config.ranks << " subvolumes...\n";
  const pvr::Experiment experiment(config);

  // Composite with BSBRC (step 4).
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();
  const pvr::MethodResult result = experiment.run(bsbrc);

  // Save the final image (step 5).
  std::filesystem::create_directories("out");
  slspvr::img::write_pgm(result.final_image, "out/quickstart_head.pgm");

  std::cout << "method           : " << result.method << "\n"
            << "image            : out/quickstart_head.pgm\n"
            << "modelled T_comp  : " << pvr::fmt_ms(result.times.comp_ms) << " ms (SP2 model)\n"
            << "modelled T_comm  : " << pvr::fmt_ms(result.times.comm_ms) << " ms\n"
            << "modelled T_total : " << pvr::fmt_ms(result.times.total_ms()) << " ms\n"
            << "M_max            : " << pvr::fmt_bytes(result.m_max) << " bytes\n"
            << "wall clock (SPMD): " << pvr::fmt_ms(result.wall_ms) << " ms in-process\n";

  // Sanity: the parallel result must equal the sequential reference.
  const auto reference = experiment.reference();
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < reference.pixel_count(); ++i) {
    const auto& a = result.final_image.at_index(i);
    const auto& b = reference.at_index(i);
    if (std::abs(a.a - b.a) > 1e-4f) ++mismatches;
  }
  std::cout << "pixels differing from sequential reference: " << mismatches << "\n";
  return mismatches == 0 ? 0 : 1;
}
