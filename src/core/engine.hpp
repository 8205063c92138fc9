// PlanEngine: one stage loop that executes any (plan, codec, tracker) triple.
//
// plan_composite replaces the five near-identical per-method stage loops the
// binary-swap family used to carry: it walks an ExchangePlan stage by stage,
// splits the rank's current region per the plan's SplitRule, encodes the
// outgoing parts with the PayloadCodec (clipped by the RegionTracker for
// sparse codecs), exchanges them, and composites the incoming contributions
// per the plan's FrontRule. derive_schedule lowers the same plan object to
// the static model slspvr-check verifies, so the checked schedule is by
// construction the program this loop runs.
#pragma once

#include "core/codec.hpp"
#include "core/compositor.hpp"
#include "core/plan.hpp"
#include "core/region_tracker.hpp"

namespace slspvr::core {

/// Execute `plan` with `codec` payloads. Runs SPMD on every rank, exactly
/// like Compositor::composite. All engine state — worker fan-out, the
/// send-buffer arena, the depth-order scratch frame — comes from `engine`,
/// which the loop holds exclusively for the duration of the call (a second
/// frame passing the same context throws). Requirements:
///  * plan.ranks == comm.size();
///  * kSwapBit plans pair on rank bit s at stage s (binary swap, tree);
///  * kDepthOrder plans need `order.front_to_back` to cover every rank;
///  * ring plans are schedule-only and rejected here.
Ownership plan_composite(const ExchangePlan& plan, const PayloadCodec& codec,
                         TrackerKind tracker_kind, mp::Comm& comm, img::Image& image,
                         const SwapOrder& order, Counters& counters, EngineContext& engine);

/// Per-stage partial-result retention for mid-frame repair. When a sink is
/// installed on a PE thread, plan_composite reports the rank's partial
/// composite and owned rectangle after every completed stage of a balanced
/// rect plan — the snapshots Experiment::run_ft resumes from when a peer
/// dies later in the protocol. Scalar/band/gather plans report nothing
/// (their state is not a rectangle; resume falls back to degrade).
class StageSnapshotSink {
 public:
  virtual ~StageSnapshotSink() = default;
  /// `stage` is the 1-based stage marker; `image` holds the partial
  /// composite, valid inside `region`. Called on the rank's own PE thread.
  virtual void on_stage_complete(int rank, int stage, const img::Image& image,
                                 const img::Rect& region) = 0;
};

/// Install / read the calling thread's snapshot sink (thread-local, so each
/// PE thread of a run can be wired independently; null disables retention —
/// the default, costing nothing on the fault-free path).
void set_stage_retention(StageSnapshotSink* sink) noexcept;
[[nodiscard]] StageSnapshotSink* stage_retention() noexcept;

}  // namespace slspvr::core
