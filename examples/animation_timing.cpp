// Rotation-animation timing: the interactive-exploration scenario from the
// paper's introduction ("it is important for users to interactively explore
// the volume data in real time").
//
// Rotates the viewpoint through a sweep, re-runs the rendering + compositing
// phases per frame, and prints the per-frame modelled compositing time of
// BSBR vs BSBRC — showing how viewpoint-dependent bounding rectangles and
// pixel sparsity move the numbers frame to frame, and writing a couple of
// frames to out/ for inspection.
#include <filesystem>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "image/image_io.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.3;
  const int frames = argc > 2 ? std::atoi(argv[2]) : 10;
  std::filesystem::create_directories("out");

  std::cout << "Animation sweep — engine_high, P=16, " << frames
            << " frames rotating 0..90 degrees about y\n\n";

  const core::Compositor& bsbr = core::bsbr();
  const core::Compositor& bsbrc = core::bsbrc();
  pvr::TextTable table({"frame", "rot_y", "render wall(ms)", "BSBR T_total",
                        "BSBRC T_total", "BSBRC M_max"});

  double bsbr_sum = 0, bsbrc_sum = 0;
  for (int frame = 0; frame < frames; ++frame) {
    const float rot_y = 90.0f * static_cast<float>(frame) / static_cast<float>(frames - 1);

    pvr::ExperimentConfig config;
    config.dataset = vol::DatasetKind::EngineHigh;
    config.volume_scale = scale;
    config.image_size = 256;
    config.ranks = 16;
    config.rot_x_deg = 12.0f;
    config.rot_y_deg = rot_y;

    const auto t0 = std::chrono::steady_clock::now();
    const pvr::Experiment experiment(config);
    const auto t1 = std::chrono::steady_clock::now();
    const double render_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    const auto r_bsbr = experiment.run(bsbr);
    const auto r_bsbrc = experiment.run(bsbrc);
    bsbr_sum += r_bsbr.times.total_ms();
    bsbrc_sum += r_bsbrc.times.total_ms();

    table.add_row({std::to_string(frame), pvr::fmt_ms(rot_y, 0), pvr::fmt_ms(render_ms, 0),
                   pvr::fmt_ms(r_bsbr.times.total_ms()),
                   pvr::fmt_ms(r_bsbrc.times.total_ms()), pvr::fmt_bytes(r_bsbrc.m_max)});

    if (frame == 0 || frame == frames - 1) {
      slspvr::img::write_pgm(r_bsbrc.final_image,
                             "out/anim_frame" + std::to_string(frame) + ".pgm");
    }
  }
  table.print(std::cout);
  std::cout << "\nmean over sweep: BSBR " << pvr::fmt_ms(bsbr_sum / frames) << " ms, BSBRC "
            << pvr::fmt_ms(bsbrc_sum / frames)
            << " ms (first/last frames written to out/anim_frame*.pgm)\n";
  return 0;
}
