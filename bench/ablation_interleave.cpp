// Ablation: BSLC's interleaved static load balancing (Figure 6 / Molnar's
// load-imbalance observation).
//
// On a maximally skewed workload (all non-blank pixels in one screen
// corner), contiguous halving concentrates the traffic on the ranks that
// end up owning that corner, while interleaved halving spreads it evenly.
// Reported: per-rank received bytes (max, mean, imbalance = max/mean) and
// the modelled times, for BSLC with and without interleaving.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "core/plan_compositor.hpp"
#include "pvr/experiment.hpp"
#include "pvr/report.hpp"
#include "pvr/synthetic.hpp"

namespace pvr = slspvr::pvr;
namespace core = slspvr::core;

namespace {

struct Load {
  std::uint64_t max = 0;
  double mean = 0;
  [[nodiscard]] double imbalance() const { return mean > 0 ? static_cast<double>(max) / mean : 0; }
};

Load load_of(const pvr::MethodResult& result) {
  Load load;
  std::uint64_t sum = 0;
  for (const auto b : result.received_bytes_per_rank) {
    load.max = std::max(load.max, b);
    sum += b;
  }
  load.mean = static_cast<double>(sum) /
              static_cast<double>(result.received_bytes_per_rank.size());
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = slspvr::bench::parse_options(argc, argv);
  const int image_size = options.image_size > 0 ? options.image_size : 384;

  std::cout << "Ablation — BSLC interleaved vs contiguous halving on a skewed workload\n"
            << "(all non-blank pixels in one corner covering 10% of the " << image_size
            << "x" << image_size << " image)\n\n";

  const core::Compositor& interleaved = core::bslc();
  const core::Compositor& contiguous = core::bslc_noninterleaved();

  pvr::TextTable table({"P", "variant", "M_max", "mean recv", "imbalance", "T_total"});
  for (const int ranks : {4, 8, 16, 32}) {
    int levels = 0;
    while ((1 << levels) < ranks) ++levels;
    const auto order = core::make_uniform_order(levels);
    const auto subimages = pvr::make_skewed_subimages(ranks, image_size, image_size, 0.10);

    for (const auto* method :
         {static_cast<const core::Compositor*>(&interleaved),
          static_cast<const core::Compositor*>(&contiguous)}) {
      const auto result = pvr::run_compositing(*method, subimages, order);
      const Load load = load_of(result);
      table.add_row({std::to_string(ranks), std::string(method->name()),
                     pvr::fmt_bytes(load.max), pvr::fmt_bytes(static_cast<std::uint64_t>(load.mean)),
                     pvr::fmt_ms(load.imbalance(), 2),
                     pvr::fmt_ms(result.times.total_ms())});
    }
  }
  table.print(std::cout);
  std::cout << "\nInterleaving should hold imbalance near 1.0; contiguous halving\n"
               "concentrates the skewed corner's pixels on a few ranks.\n";
  return 0;
}
