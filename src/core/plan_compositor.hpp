// PlanCompositor: a Compositor assembled from a (plan family, codec,
// tracker) triple instead of a hand-written stage loop.
//
// This is the payoff of the plan × codec decomposition: any exchange family
// can carry any compatible payload, so the paper's methods are named triples
// (bs(), bsbr(), bslc(), bsbrc() below) and method combinations the paper
// never named — a k-ary exchange with BSBRC's RLE-in-rect payload, a binary
// tree shipping bounding rectangles, direct send with RLE — are one
// constructor call (see docs/architecture.md for the worked example).
#pragma once

#include <string>

#include "core/codec.hpp"
#include "core/compositor.hpp"
#include "core/region_tracker.hpp"

namespace slspvr::core {

/// Which ExchangePlan builder backs the method.
enum class PlanFamily {
  kBinarySwap,  ///< radix-2 pairing, power-of-two P (binary_swap_plan)
  kKary,        ///< mixed-radix group exchange, any P (kary_plan)
  kDirectSend,  ///< one-stage banded all-to-all (direct_send_plan)
  kBinaryTree,  ///< reduction to rank 0 (binary_tree_plan)
};

class PlanCompositor : public Compositor {
 public:
  /// `split` reaches the binary-swap and k-ary plans; only BSLC's contiguous
  /// ablation sets it.
  PlanCompositor(std::string name, PlanFamily family, CodecKind codec, TrackerKind tracker,
                 SplitRule split = SplitRule::kBalanced)
      : name_(std::move(name)),
        family_(family),
        codec_(codec),
        tracker_(tracker),
        split_(split) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  using Compositor::composite;
  Ownership composite(mp::Comm& comm, img::Image& image, const SwapOrder& order,
                      Counters& counters, EngineContext& engine) const override;

  [[nodiscard]] check::CommSchedule schedule(int ranks) const override;

  [[nodiscard]] std::optional<ExchangePlan> resume_plan(int ranks) const override;

 private:
  [[nodiscard]] ExchangePlan plan_for(int ranks) const;

  std::string name_;
  PlanFamily family_;
  CodecKind codec_;
  TrackerKind tracker_;
  SplitRule split_;
};

// ---- the named methods -------------------------------------------------
// Each returns a shared immutable instance, as codec_for returns its codecs,
// so a FoldCompositor may hold one for any lifetime.

/// BS (Ma et al. 1994, Sec. 3.1): at stage k each PE ships the half of its
/// region it gives up — every pixel, blank or not — and composites the half
/// it keeps. Pixels shipped per PE: sum_k A/2^k (Eqs. 1/2). The baseline.
[[nodiscard]] const PlanCompositor& bs();

/// BSBR (Sec. 3.2): each PE tracks the bounding rectangle of its non-blank
/// pixels (one O(A) scan, the T_bound term) and ships only the part of it in
/// the send half, behind an 8-byte header; the rectangle updates in O(1) per
/// stage as the union of the kept and received ones. Every pixel inside the
/// rectangle still ships, blank or not.
[[nodiscard]] const PlanCompositor& bsbr();

/// BSLC (Sec. 3.3): the half a PE gives up is an interleaved pixel set
/// (Figure 6), which spreads non-blank pixels evenly across PEs, run-length
/// encoded on the blank/non-blank pattern (Figure 5). The encoder iterates
/// the whole A/2^k half each stage: the largest T_comp of the four.
[[nodiscard]] const PlanCompositor& bslc();

/// BSLC with contiguous halves: RLE without the static load balancing (the
/// interleave ablation).
[[nodiscard]] const PlanCompositor& bslc_noninterleaved();

/// BSBRC (Sec. 3.4), the paper's best method: run-length codes of the
/// sending bounding rectangle only, so the encoder touches A_send^k pixels
/// and the wire carries the header, the codes and the non-blank pixels.
[[nodiscard]] const PlanCompositor& bsbrc();

/// BSBRC that rescans the kept region each stage for an exact rectangle
/// instead of the O(1) union (algorithm line 21): the rectangle-update
/// ablation.
[[nodiscard]] const PlanCompositor& bsbrc_tight();

/// BSBRS: BSBRC's exchange with per-row scanline spans instead of run-length
/// codes — this repository's take on the paper's "more efficient encoding
/// schemes" future work (bench/ablation_encoding measures the trade-off).
[[nodiscard]] const PlanCompositor& bsbrs();

/// Direct send, the "buffered case" of Sec. 2 (Hsu 1993, Neumann 1993): P
/// horizontal bands, band r owned by rank r; every rank ships each other
/// rank its pixels of that band at once, and the owner composites all P
/// contributions in depth order. The full variant ships whole bands raw.
[[nodiscard]] const PlanCompositor& direct_send_full();

/// Direct send with each band clipped to the sender's bounding rectangle
/// (8-byte header + pixels): the buffered-case counterpart to BSBR.
[[nodiscard]] const PlanCompositor& direct_send_sparse();

}  // namespace slspvr::core
