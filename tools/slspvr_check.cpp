// slspvr-check: prove the compositors' communication schedules correct
// before any frame is rendered.
//
// For every method and every rank count P up to --max-p the tool emits the
// static schedule (final gather included), then proves send/recv matching,
// deadlock freedom, tag uniqueness across concurrent in-flight messages and
// per-stage partner symmetry. Non-power-of-two P exercises the Fold wrapper
// around every binary-swap family method, which is where the fold pre-stage,
// the inner swap stages and the gather tags interact. Eq. (9)'s worst-case
// message-size ordering M_BS >= M_BSBR >= M_BSBRC >= M_BSLC is proven
// symbolically at every power-of-two P unless --no-eq9.
//
// Exit status is 0 iff every check passes; diagnostics go to stderr.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/verify.hpp"
#include "cli_parse.hpp"
#include "core/binary_tree.hpp"
#include "core/codec.hpp"
#include "core/fold.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/plan.hpp"
#include "core/plan_compositor.hpp"

namespace {

using slspvr::check::CommSchedule;
using slspvr::check::VerifyResult;
using slspvr::vol::is_power_of_two;

struct MethodEntry {
  const slspvr::core::Compositor* direct;  ///< used at power-of-two P
  const slspvr::core::Compositor* folded;  ///< used at other P (null: skip)
};

void usage(const char* argv0) {
  std::cout << "usage: " << argv0 << " [options]\n"
            << "  --all-methods     verify every compositing method (default)\n"
            << "  --method NAME     verify only the named method (e.g. BSBRC)\n"
            << "  --max-p N         verify all rank counts 2..N (default 64)\n"
            << "  --repair-matrix   verify every mid-frame repair schedule instead:\n"
            << "                    P x fail-stage x fail-rank over the resumable\n"
            << "                    plan families (chaos-soak entry point for CI)\n"
            << "  --no-eq9          skip the Eq. (9) size-ordering proof\n"
            << "  --verbose, -v     print one line per verified schedule\n"
            << "  --help            this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  int max_p = 64;
  bool eq9 = true;
  bool verbose = false;
  bool repair_matrix = false;
  std::string only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all-methods") {
      only.clear();
    } else if (arg == "--method" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--max-p" && i + 1 < argc) {
      try {
        max_p = slspvr::tools::parse_positive_int(argv[++i], "--max-p");
      } catch (const slspvr::tools::ParseError& e) {
        std::cerr << "slspvr-check: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--repair-matrix") {
      repair_matrix = true;
    } else if (arg == "--no-eq9") {
      eq9 = false;
    } else if (arg == "--eq9") {
      eq9 = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "slspvr-check: unknown argument '" << arg << "'\n";
      usage(argv[0]);
      return 2;
    }
  }
  if (max_p < 2) {
    std::cerr << "slspvr-check: --max-p must be at least 2\n";
    return 2;
  }

  using namespace slspvr::core;

  if (repair_matrix) {
    // Chaos-soak mode: prove every mid-frame repair schedule deadlock-free.
    // For each resumable base plan family, each rank count, each fail stage
    // (the epoch the survivors agree on) and each fail rank, lower the
    // repaired plan through the same derive_schedule path the runtime uses
    // and run the full static verifier on it.
    const auto traits = codec_for(CodecKind::kRleRect).traits();
    int verified = 0;
    int failed = 0;
    for (int p = 2; p <= max_p; ++p) {
      std::vector<std::pair<std::string, ExchangePlan>> bases;
      bases.emplace_back("Kary", kary_plan(p, SplitRule::kBalanced));
      if (is_power_of_two(p)) {
        bases.emplace_back("BS", binary_swap_plan(p, SplitRule::kBalanced));
      }
      for (const auto& [family, base] : bases) {
        for (int epoch = 0; epoch <= base.stages(); ++epoch) {
          for (int dead = 0; dead < p; ++dead) {
            std::vector<int> survivors;
            survivors.reserve(static_cast<std::size_t>(p - 1));
            for (int r = 0; r < p; ++r) {
              if (r != dead) survivors.push_back(r);
            }
            const std::string name = family + "-repair(P=" + std::to_string(p) +
                                     ",e=" + std::to_string(epoch) +
                                     ",dead=" + std::to_string(dead) + ")";
            CommSchedule schedule =
                derive_schedule(repair_plan(base, epoch, survivors), traits, name);
            slspvr::check::append_final_gather(schedule);
            const VerifyResult result = slspvr::check::verify_schedule(schedule);
            if (result.ok()) {
              ++verified;
              if (verbose) std::cout << "ok  " << name << "\n";
            } else {
              ++failed;
              std::cerr << "FAIL  " << name << "\n" << result.summary();
            }
          }
        }
      }
    }
    std::cout << "slspvr-check: " << verified
              << " repair schedule(s) verified for P=2.." << max_p;
    if (failed > 0) {
      std::cout << ", " << failed << " FAILED\n";
      return 1;
    }
    std::cout << ", all ok\n";
    return 0;
  }

  const BinaryTreeCompositor tree;
  const ParallelPipelineCompositor pipeline;
  const FoldCompositor fold_bs(bs()), fold_bsbr(bsbr()), fold_bslc(bslc()),
      fold_bsbrc(bsbrc()), fold_bsbrs(bsbrs());
  // Cross-bred (plan, codec) combinations: k-ary group exchanges verify at
  // EVERY P without the Fold wrapper; tree/direct-send carry RLE payloads.
  const PlanCompositor kary_bs("KaryBS", PlanFamily::kKary, CodecKind::kFullPixel,
                               TrackerKind::kNone);
  const PlanCompositor kary_br("KaryBR", PlanFamily::kKary, CodecKind::kBoundingRect,
                               TrackerKind::kUnion);
  const PlanCompositor kary_brc("KaryBRC", PlanFamily::kKary, CodecKind::kRleRect,
                                TrackerKind::kUnion);
  const PlanCompositor kary_lc("KaryLC", PlanFamily::kKary, CodecKind::kInterleavedRle,
                               TrackerKind::kNone);
  const PlanCompositor tree_brc("Tree-BRC", PlanFamily::kBinaryTree, CodecKind::kRleRect,
                                TrackerKind::kUnion);
  const PlanCompositor ds_brc("DirectSend-BRC", PlanFamily::kDirectSend, CodecKind::kRleRect,
                              TrackerKind::kUnion);

  const std::vector<MethodEntry> methods = {
      {&bs(), &fold_bs},
      {&bsbr(), &fold_bsbr},
      {&bslc(), &fold_bslc},
      {&bslc_noninterleaved(), nullptr},
      {&bsbrc(), &fold_bsbrc},
      {&bsbrc_tight(), nullptr},
      {&bsbrs(), &fold_bsbrs},
      {&direct_send_full(), nullptr},
      {&direct_send_sparse(), nullptr},
      {&tree, nullptr},
      {&pipeline, nullptr},
      {&kary_bs, nullptr},
      {&kary_br, nullptr},
      {&kary_brc, nullptr},
      {&kary_lc, nullptr},
      {&tree_brc, nullptr},
      {&ds_brc, nullptr},
  };

  int verified = 0;
  int failed = 0;

  for (int p = 2; p <= max_p; ++p) {
    const bool pow2 = is_power_of_two(p);
    for (const MethodEntry& entry : methods) {
      // Power-of-two P runs the method directly; other P runs its Fold
      // wrapper when one exists. Methods valid at any P never need folding.
      const Compositor* chosen = entry.direct;
      CommSchedule schedule;
      try {
        schedule = chosen->schedule(p);
      } catch (const std::invalid_argument&) {
        if (pow2 || entry.folded == nullptr) continue;  // method undefined at this P
        chosen = entry.folded;
        schedule = chosen->schedule(p);
      }
      if (!only.empty() && only != chosen->name() && only != entry.direct->name()) continue;
      slspvr::check::append_final_gather(schedule);
      const VerifyResult result = slspvr::check::verify_schedule(schedule);
      if (result.ok()) {
        ++verified;
        if (verbose) {
          std::cout << "ok  " << schedule.method << "  P=" << p << "\n";
        }
      } else {
        ++failed;
        std::cerr << "FAIL  " << schedule.method << "  P=" << p << "\n"
                  << result.summary();
      }
    }
    if (eq9 && pow2 && (only.empty() || only == "eq9")) {
      const auto report = slspvr::check::verify_eq9(bs().schedule(p), bsbr().schedule(p),
                                                   bsbrc().schedule(p), bslc().schedule(p));
      if (report.holds) {
        ++verified;
        if (verbose) {
          std::cout << "ok  Eq9 M_BS >= M_BSBR >= M_BSBRC >= M_BSLC  P=" << p << "\n";
        }
      } else {
        ++failed;
        std::cerr << "FAIL  Eq9 ordering  P=" << p << "\n" << report.detail << "\n";
      }
    }
  }

  if (verified == 0 && failed == 0) {
    std::cerr << "slspvr-check: nothing matched";
    if (!only.empty()) std::cerr << " --method " << only;
    std::cerr << "\n";
    return 2;
  }
  std::cout << "slspvr-check: " << verified << " schedule(s) verified for P=2.." << max_p;
  if (failed > 0) {
    std::cout << ", " << failed << " FAILED\n";
    return 1;
  }
  std::cout << ", all ok\n";
  return 0;
}
