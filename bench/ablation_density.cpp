// Ablation: bounding-rectangle density sweep (Sec. 4's closing analysis).
//
// As the content of the bounding rectangle gets denser, BSBR approaches
// BSBRC (nothing blank left to skip) and both approach BS. This bench
// sweeps synthetic subimage density and prints the modelled T_total and
// M_max of BS / BSBR / BSLC / BSBRC at a fixed processor count, exposing
// the crossover the paper describes.
#include <iostream>

#include "bench_common.hpp"
#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "pvr/synthetic.hpp"

namespace pvr = slspvr::pvr;
namespace core = slspvr::core;

int main(int argc, char** argv) {
  auto options = slspvr::bench::parse_options(argc, argv);
  const int image_size = options.image_size > 0 ? options.image_size : 384;
  const int ranks = 8;
  const int levels = 3;

  std::cout << "Ablation — method T_total (ms) and M_max vs subimage density, P=" << ranks
            << ", " << image_size << "x" << image_size << " synthetic subimages\n\n";

  pvr::TextTable table({"density", "BS", "BSBR", "BSLC", "BSBRC", "BSBR/BSBRC", "M_BSBR",
                        "M_BSBRC"});

  const core::Compositor& bs = core::bs();
  const core::Compositor& bsbr = core::bsbr();
  const core::Compositor& bslc = core::bslc();
  const core::Compositor& bsbrc = core::bsbrc();
  const core::SwapOrder order = core::make_uniform_order(levels);

  for (const double density : {0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 0.97}) {
    const auto subimages =
        pvr::make_subimages(ranks, image_size, image_size, density,
                            static_cast<std::uint32_t>(1000 + density * 100));
    const auto r_bs = pvr::run_compositing(bs, subimages, order);
    const auto r_bsbr = pvr::run_compositing(bsbr, subimages, order);
    const auto r_bslc = pvr::run_compositing(bslc, subimages, order);
    const auto r_bsbrc = pvr::run_compositing(bsbrc, subimages, order);

    table.add_row({pvr::fmt_ms(density, 2), pvr::fmt_ms(r_bs.times.total_ms()),
                   pvr::fmt_ms(r_bsbr.times.total_ms()), pvr::fmt_ms(r_bslc.times.total_ms()),
                   pvr::fmt_ms(r_bsbrc.times.total_ms()),
                   pvr::fmt_ms(r_bsbr.times.total_ms() / r_bsbrc.times.total_ms(), 3),
                   pvr::fmt_bytes(r_bsbr.m_max), pvr::fmt_bytes(r_bsbrc.m_max)});
  }
  table.print(std::cout);
  std::cout << "\nExpect BSBR/BSBRC >> 1 at low density (RLE skips the blank filler) and\n"
               "-> ~1 as density approaches 1 (the paper's convergence observation).\n";
  return 0;
}
