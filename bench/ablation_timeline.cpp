// Ablation: additive cost model vs staged timeline simulation.
//
// The paper's measured T_comm on the SP2 includes synchronization wait; the
// additive model (Eqs. 2/4/6/8 summed per rank) cannot see it. This bench
// compares both models per method on (a) the rendered test samples and
// (b) a corner-skewed synthetic workload where imbalance is extreme —
// quantifying how much of the measured-vs-modelled gap is sync wait and
// showing BSLC's interleaving earning its keep in *time*, not just bytes.
#include <iostream>

#include "bench_common.hpp"
#include "core/plan_compositor.hpp"
#include "core/timeline.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "pvr/synthetic.hpp"

namespace pvr = slspvr::pvr;
namespace vol = slspvr::vol;
namespace core = slspvr::core;

int main(int argc, char** argv) {
  const auto options = slspvr::bench::parse_options(argc, argv);
  const int image = options.image_size > 0 ? options.image_size : 384;
  const int ranks = 16;

  std::cout << "Ablation — additive model vs staged timeline (P=" << ranks << ", " << image
            << "x" << image << ")\n\n";

  std::cout << "== rendered test samples ==\n";
  pvr::TextTable rendered({"dataset", "method", "additive T_total", "timeline makespan",
                           "max wait", "sync overhead"});
  for (const auto kind : {vol::DatasetKind::EngineLow, vol::DatasetKind::Cube}) {
    pvr::ExperimentConfig config;
    config.dataset = kind;
    config.volume_scale = options.scale;
    config.image_size = image;
    config.ranks = ranks;
    const pvr::Experiment experiment(config);
    for (const auto& method : pvr::MethodSet::paper_methods()) {
      const auto result = experiment.run(*method);
      rendered.add_row({vol::dataset_name(kind), result.method,
                        pvr::fmt_ms(result.times.total_ms()),
                        pvr::fmt_ms(result.timeline.makespan_ms),
                        pvr::fmt_ms(result.timeline.max_wait_ms),
                        pvr::fmt_ms(result.timeline.sync_overhead_ms)});
    }
  }
  rendered.print(std::cout);

  std::cout << "\n== corner-skewed synthetic workload (10% coverage in one corner) ==\n";
  pvr::TextTable skewed({"method", "additive T_total", "timeline makespan", "max wait"});
  const auto subimages = pvr::make_skewed_subimages(ranks, image, image, 0.10);
  const auto order = core::make_uniform_order(4);
  const core::Compositor& interleaved = core::bslc();
  const core::Compositor& contiguous = core::bslc_noninterleaved();
  for (const auto* method : {static_cast<const core::Compositor*>(&interleaved),
                             static_cast<const core::Compositor*>(&contiguous)}) {
    const auto result = pvr::run_compositing(*method, subimages, order);
    skewed.add_row({std::string(method->name()), pvr::fmt_ms(result.times.total_ms()),
                    pvr::fmt_ms(result.timeline.makespan_ms),
                    pvr::fmt_ms(result.timeline.max_wait_ms)});
  }
  skewed.print(std::cout);
  std::cout << "\nTimeline >= additive on single-partner stages; the gap is pure\n"
               "synchronization wait — the component the paper's measured T_comm\n"
               "contains and Eqs. (2)-(8) do not.\n";
  return 0;
}
