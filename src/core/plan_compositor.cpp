#include "core/plan_compositor.hpp"

#include <stdexcept>

#include "core/engine.hpp"

namespace slspvr::core {

ExchangePlan PlanCompositor::plan_for(int ranks) const {
  switch (family_) {
    case PlanFamily::kBinarySwap: return binary_swap_plan(ranks, split_);
    case PlanFamily::kKary: return kary_plan(ranks, split_);
    case PlanFamily::kDirectSend: return direct_send_plan(ranks);
    case PlanFamily::kBinaryTree: return binary_tree_plan(ranks);
  }
  throw std::invalid_argument("PlanCompositor: unknown plan family");
}

Ownership PlanCompositor::composite(mp::Comm& comm, img::Image& image,
                                    const SwapOrder& order, Counters& counters,
                                    EngineContext& engine) const {
  return plan_composite(plan_for(comm.size()), codec_for(codec_), tracker_, comm, image,
                        order, counters, engine);
}

check::CommSchedule PlanCompositor::schedule(int ranks) const {
  return derive_schedule(plan_for(ranks), codec_for(codec_).traits(), name_);
}

std::optional<ExchangePlan> PlanCompositor::resume_plan(int ranks) const {
  // Mid-frame repair replays per-rank rectangle state, which only the
  // balanced-split families with non-scalar payloads carry.
  const bool balanced_rect =
      (family_ == PlanFamily::kBinarySwap || family_ == PlanFamily::kKary) &&
      !codec_for(codec_).scalar();
  if (!balanced_rect) return std::nullopt;
  return plan_for(ranks);
}

const PlanCompositor& bs() {
  static const PlanCompositor method("BS", PlanFamily::kBinarySwap, CodecKind::kFullPixel,
                                     TrackerKind::kNone);
  return method;
}

const PlanCompositor& bsbr() {
  static const PlanCompositor method("BSBR", PlanFamily::kBinarySwap,
                                     CodecKind::kBoundingRect, TrackerKind::kUnion);
  return method;
}

const PlanCompositor& bslc() {
  static const PlanCompositor method("BSLC", PlanFamily::kBinarySwap,
                                     CodecKind::kInterleavedRle, TrackerKind::kNone);
  return method;
}

const PlanCompositor& bslc_noninterleaved() {
  static const PlanCompositor method("BSLC-noninterleaved", PlanFamily::kBinarySwap,
                                     CodecKind::kInterleavedRle, TrackerKind::kNone,
                                     SplitRule::kContiguous);
  return method;
}

const PlanCompositor& bsbrc() {
  static const PlanCompositor method("BSBRC", PlanFamily::kBinarySwap, CodecKind::kRleRect,
                                     TrackerKind::kUnion);
  return method;
}

const PlanCompositor& bsbrc_tight() {
  static const PlanCompositor method("BSBRC-tight", PlanFamily::kBinarySwap,
                                     CodecKind::kRleRect, TrackerKind::kRescan);
  return method;
}

const PlanCompositor& bsbrs() {
  static const PlanCompositor method("BSBRS", PlanFamily::kBinarySwap, CodecKind::kSpanRect,
                                     TrackerKind::kUnion);
  return method;
}

const PlanCompositor& direct_send_full() {
  static const PlanCompositor method("DirectSend-full", PlanFamily::kDirectSend,
                                     CodecKind::kFullPixel, TrackerKind::kNone);
  return method;
}

const PlanCompositor& direct_send_sparse() {
  static const PlanCompositor method("DirectSend-sparse", PlanFamily::kDirectSend,
                                     CodecKind::kBoundingRect, TrackerKind::kUnion);
  return method;
}

}  // namespace slspvr::core
