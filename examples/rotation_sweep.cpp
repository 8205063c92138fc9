// Viewpoint-rotation sweep: reproduces the Sec. 3.2 discussion of empty
// bounding rectangles.
//
// "The number of empty bounding rectangles depends on the number of
//  processors and the rotation of a viewing point. ... there are
//  log(cbrt(P)) nonempty bounding rectangles ... when we use a normal
//  orthogonal projection. As a viewing point rotates along one axis, each
//  processor has a maximum of log(cbrt(P^2)) nonempty ... while a viewing
//  point rotates along two axes [a maximum of] log P."
//
// For each rotation mode this example counts, per PE, how many of the
// log P receiving bounding rectangles are nonempty under BSBR (a stage
// message larger than the 8-byte header), and reports max/mean across PEs
// next to the paper's bound.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/plan_compositor.hpp"
#include "mp/runtime.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.35;
  const int ranks = 64;  // P = 64 = 4^3: every axis split twice
  const int image = 256;

  struct Mode {
    const char* name;
    float rot_x, rot_y;
    double paper_bound;  // nonempty receiving rectangles per PE (upper bound)
  };
  const double p = ranks;
  const Mode modes[] = {
      {"normal orthogonal", 0.0f, 0.0f, std::log2(std::cbrt(p))},
      {"rotate one axis", 0.0f, 30.0f, std::log2(std::cbrt(p * p))},
      {"rotate two axes", 25.0f, 30.0f, std::log2(p)},
  };

  std::cout << "Nonempty receiving bounding rectangles vs viewpoint rotation "
            << "(BSBR, P=" << ranks << ", engine_low)\n\n";
  pvr::TextTable table(
      {"view", "paper bound", "measured max", "measured mean", "stages (log P)"});

  const core::Compositor& bsbr = core::bsbr();
  int stages = 0;
  while ((1 << stages) < ranks) ++stages;

  for (const Mode& mode : modes) {
    pvr::ExperimentConfig config;
    config.dataset = vol::DatasetKind::EngineLow;
    config.volume_scale = scale;
    config.image_size = image;
    config.ranks = ranks;
    config.rot_x_deg = mode.rot_x;
    config.rot_y_deg = mode.rot_y;
    const pvr::Experiment experiment(config);

    // SPMD run with direct trace access: a nonempty receiving rectangle is
    // an in-phase message carrying more than the 8-byte header.
    const auto& subimages = experiment.subimages();
    const auto& order = experiment.order();
    const auto run = slspvr::mp::Runtime::run(ranks, [&](slspvr::mp::Comm& comm) {
      slspvr::img::Image local = subimages[static_cast<std::size_t>(comm.rank())];
      core::Counters counters;
      (void)bsbr.composite(comm, local, order, counters);
    });

    int max_nonempty = 0;
    double sum_nonempty = 0;
    for (int r = 0; r < ranks; ++r) {
      int nonempty = 0;
      for (const auto& rec : run.trace().received(r)) {
        if (rec.stage >= 1 && rec.tag >= 0 && rec.bytes > 8) ++nonempty;
      }
      max_nonempty = std::max(max_nonempty, nonempty);
      sum_nonempty += nonempty;
    }

    table.add_row({mode.name, pvr::fmt_ms(mode.paper_bound, 1),
                   std::to_string(max_nonempty), pvr::fmt_ms(sum_nonempty / ranks, 2),
                   std::to_string(stages)});
  }
  table.print(std::cout);
  std::cout << "\nRotating the viewpoint spreads subimage footprints, so more stages\n"
               "carry nonempty rectangles — up to the paper's per-mode bounds.\n";
  return 0;
}
