// Ablation: BSBRC's run-length codes vs BSBRS's scanline spans vs the
// tight-rescan rectangle update — the paper's future-work question of
// "more efficient encoding schemes", measured end to end.
//
// For each dataset and P: modelled T_total, M_max, and the encode/scan
// counter split, for BSBRC (paper), BSBRC-tight (exact rectangles, extra
// scans) and BSBRS (span codec).
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

  std::cout << "Ablation — encoding scheme and rectangle-update policy, " << image << "x"
            << image << " (volume scale " << options.scale << ")\n\n";

  const core::Compositor& bsbrc = core::bsbrc();
  const core::Compositor& bsbrc_tight = core::bsbrc_tight();
  const core::Compositor& bsbrs = core::bsbrs();

  pvr::TextTable table({"dataset", "P", "method", "T_total", "M_max", "encoded px",
                        "rect-scanned px"});

  for (const auto kind : {vol::DatasetKind::EngineHigh, vol::DatasetKind::Cube,
                          vol::DatasetKind::Head}) {
    for (const int ranks : {8, 32}) {
      pvr::ExperimentConfig config;
      config.dataset = kind;
      config.volume_scale = options.scale;
      config.image_size = image;
      config.ranks = ranks;
      const pvr::Experiment experiment(config);

      for (const auto* method :
           {static_cast<const core::Compositor*>(&bsbrc),
            static_cast<const core::Compositor*>(&bsbrc_tight),
            static_cast<const core::Compositor*>(&bsbrs)}) {
        const auto result = experiment.run(*method);
        std::int64_t encoded = 0, scanned = 0;
        for (const auto& c : result.per_rank) {
          encoded += c.encoded_pixels;
          scanned += c.rect_scanned;
        }
        table.add_row({vol::dataset_name(kind), std::to_string(ranks),
                       std::string(method->name()), pvr::fmt_ms(result.times.total_ms()),
                       pvr::fmt_bytes(result.m_max),
                       pvr::fmt_bytes(static_cast<std::uint64_t>(encoded)),
                       pvr::fmt_bytes(static_cast<std::uint64_t>(scanned))});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nBSBRS trades 2 bytes/row for span-level compositing; BSBRC-tight\n"
               "trades extra rectangle scans for smaller payloads.\n";
  return 0;
}
