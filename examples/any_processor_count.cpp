// Non-power-of-two processor counts — the paper's first future-work item.
//
// "The drawback of the binary-swap compositing method is that the number of
//  processors must be a power of two."
//
// This example runs the pipeline on P = 3, 5, 6, 7, 12 processors: the
// Experiment harness switches to a depth-ordered slab decomposition and
// wraps the method in the fold pre-stage (core/fold.hpp), which collapses
// the extra ranks onto 2^floor(log2 P) leaders with one BSBRC-style
// exchange, then runs plain binary swap among the leaders.
#include <cmath>
#include <filesystem>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "image/image_io.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.35;
  std::filesystem::create_directories("out");

  std::cout << "Binary-swap on any processor count via folding (dataset: cube)\n\n";
  pvr::TextTable table({"P", "method", "T_total(ms)", "M_max(bytes)", "max |err| vs ref"});

  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();

  for (const int ranks : {3, 5, 6, 7, 12}) {
    pvr::ExperimentConfig config;
    config.dataset = vol::DatasetKind::Cube;
    config.volume_scale = scale;
    config.image_size = 256;
    config.ranks = ranks;
    const pvr::Experiment experiment(config);

    const auto result = experiment.run(bsbrc);
    const auto reference = experiment.reference();
    float max_err = 0.0f;
    for (std::int64_t i = 0; i < reference.pixel_count(); ++i) {
      max_err = std::max(max_err, std::abs(result.final_image.at_index(i).a -
                                           reference.at_index(i).a));
    }
    table.add_row({std::to_string(ranks), result.method,
                   pvr::fmt_ms(result.times.total_ms()), pvr::fmt_bytes(result.m_max),
                   pvr::fmt_ms(max_err, 6)});
    if (ranks == 7) {
      slspvr::img::write_pgm(result.final_image, "out/cube_p7.pgm");
    }
  }
  table.print(std::cout);
  std::cout << "\nout/cube_p7.pgm holds the P=7 composited image.\n";
  return 0;
}
