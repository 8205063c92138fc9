// Colour classification: the 16-byte RGBA pixel path end to end.
//
// Renders the head sample with a density-rainbow transfer function, runs
// the full sort-last pipeline with BSBRC on 8 PEs, verifies against the
// sequential reference, and writes a colour PPM — demonstrating that the
// compositing methods are channel-agnostic (they only care about the
// blank/non-blank structure and the 16-byte payload).
#include <filesystem>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "image/compare.hpp"
#include "image/image_io.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "volume/datasets.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace img = slspvr::img;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.4;
  std::filesystem::create_directories("out");

  // Bring-your-own-classification: same head volume, rainbow transfer
  // function instead of the gray preset.
  vol::Dataset dataset = vol::make_dataset(vol::DatasetKind::Head, scale);
  dataset.tf = vol::rainbow_tf(60.0f, 180.0f, 0.5f);
  dataset.name = "head_rainbow";

  pvr::ExperimentConfig config;
  config.image_size = 384;
  config.ranks = 8;
  config.rot_x_deg = 18.0f;
  config.rot_y_deg = 24.0f;

  const pvr::Experiment experiment(dataset, config);
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();
  const auto result = experiment.run(bsbrc);

  const auto reference = experiment.reference();
  const float err = img::max_abs_diff(result.final_image, reference);

  img::write_ppm(result.final_image, "out/head_rainbow.ppm");
  std::cout << "wrote out/head_rainbow.ppm (" << result.method
            << ", T_total " << pvr::fmt_ms(result.times.total_ms())
            << " ms, max |err| vs reference " << err << ")\n";
  return err < 1e-4f ? 0 : 1;
}
