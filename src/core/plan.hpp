// ExchangePlan: the pure communication structure of a compositing method.
//
// Every method in this system is "a way to chop the screen up and move the
// pieces": per stage, each rank splits its current region into `radix`
// parts, keeps one, ships the others to the stage's partner group, and
// receives its kept part's missing contributions. The plan captures exactly
// that — partner groups, part assignments, tags — with no pixels, codecs or
// counters. One plan object serves two consumers that previously each had a
// hand-written copy of this structure:
//
//  * plan_composite (core/engine.hpp) executes the plan with a
//    PayloadCodec and a RegionTracker;
//  * derive_schedule lowers the same object to a check::CommSchedule, so
//    slspvr-check verifies the very program the engine runs — the static
//    model can no longer drift from the code path.
//
// Plans exist for binary swap (radix-2 pairing, power-of-two P), the k-ary
// group exchange (mixed-radix digit pairing — handles any P natively, the
// Fold wrapper's job done in-band), direct send, the binary tree reduction
// and the ring pipeline.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "check/schedule.hpp"
#include "image/rect.hpp"

namespace slspvr::core {

/// How a stage's parts partition the current region.
enum class SplitRule {
  kBalanced,    ///< rect: ceil slices of the longer side (== centerline at
                ///< radix 2); scalar: interleaved even/odd-style sections
  kContiguous,  ///< scalar only: contiguous index blocks (BSLC ablation)
  kBand,        ///< horizontal bands of the full frame (direct send)
  kGather,      ///< no split: part 0 is the sender's whole current region
  kRing,        ///< pipeline: bands circulate, region never splits
};

/// How the engine decides which incoming contribution is in front.
enum class FrontRule {
  kSwapBit,     ///< stage s pairs on rank bit s: order.incoming_in_front
  kDepthOrder,  ///< composite all contributions in order.front_to_back
};

/// One outgoing message: ship `part` to `peer`.
struct PartSend {
  int peer = -1;
  int part = 0;
};

/// One rank's program for one stage. A default-constructed RankStage
/// (radix 1, no sends/recvs) is a retired rank: it skips the stage.
struct RankStage {
  int radix = 1;  ///< how many parts the current region splits into
  int keep = 0;   ///< index of the part this rank keeps; -1 = retire (tree)
  std::vector<PartSend> sends;  ///< emitted in order, before any receive
  std::vector<int> recv_peers;  ///< receives, in order, after the sends
};

/// A method's complete exchange structure for one rank count.
struct ExchangePlan {
  std::string family;  ///< "binary-swap", "kary", "direct-send", ...
  int ranks = 0;
  bool pairwise = false;  ///< per-stage sends form symmetric pairs
  SplitRule split = SplitRule::kBalanced;
  FrontRule front = FrontRule::kSwapBit;
  std::vector<std::vector<RankStage>> per_rank;  ///< [rank][stage]

  [[nodiscard]] int stages() const noexcept {
    return per_rank.empty() ? 0 : static_cast<int>(per_rank.front().size());
  }
};

/// Classic binary swap: stage s pairs rank r with r XOR 2^s; the lower rank
/// keeps part 0. Throws std::invalid_argument unless `ranks` is a power of
/// two. `split` selects balanced (default) or contiguous scalar halves.
[[nodiscard]] ExchangePlan binary_swap_plan(int ranks,
                                            SplitRule split = SplitRule::kBalanced);

/// Ascending prime factorisation of `ranks` — the stage radices of the
/// k-ary plan (e.g. 12 -> {2, 2, 3}; a prime P -> {P}; 1 -> {}).
[[nodiscard]] std::vector<int> kary_radices(int ranks);

/// k-ary group exchange: mixed-radix generalisation of binary swap that
/// handles ANY rank count natively. Write r in the mixed-radix system of
/// kary_radices(P); at stage s the ranks sharing every digit but digit s
/// form a group of k_s members that split the region k_s ways — the member
/// with digit j keeps part j and ships every other part to its owner. At a
/// power of two this degenerates to binary swap's pairing. Region parts are
/// contiguous, so depth stays correct for monotone front-to-back orders
/// (ascending or descending rank — what make_fold_order produces).
[[nodiscard]] ExchangePlan kary_plan(int ranks, SplitRule split = SplitRule::kBalanced);

/// Direct send: one stage, the frame statically split into `ranks`
/// horizontal bands; every rank ships each other band to its owner and
/// receives P-1 contributions for its own.
[[nodiscard]] ExchangePlan direct_send_plan(int ranks);

/// Binary tree reduction: at stage s the rank whose low bits equal 2^s
/// ships its whole accumulated region to partner r XOR 2^s and retires
/// (keep = -1). Power-of-two ranks only.
[[nodiscard]] ExchangePlan binary_tree_plan(int ranks);

/// Ring pipeline over the identity depth order: P-1 steps, step s sends
/// band ((q - s) mod P) to the successor under tag s+1. The engine does not
/// execute this plan (the pipeline's two-segment payload is not a codec);
/// it exists so the pipeline's schedule is derived, not hand-written.
[[nodiscard]] ExchangePlan ring_plan(int ranks);

/// Wire-format traits of a payload codec: everything derive_schedule needs
/// to turn a plan into symbolic per-message size bounds.
struct WireTraits {
  check::PayloadClass payload = check::PayloadClass::kFullRegion;
  std::int64_t fixed_bytes = 0;      ///< headers independent of region size
  std::int64_t per_pixel_bytes = 16; ///< worst-case wire bytes per pixel
  std::int64_t per_row_bytes = 0;    ///< per-row overhead (span tables)
  bool scalar = false;               ///< regions are pixel counts, not rects
};

/// Lower a plan to the static schedule model: the exact per-rank event
/// sequence the engine emits (per stage: sends in plan order, then
/// receives), with region bounds tracked through the splits. Power-of-two
/// radix-2 plans emit the legacy `halvings` region encoding, so derived
/// schedules for the paper methods are byte-identical to the hand-built
/// ones they replace (Eq. (9) forms included); mixed-radix plans use
/// RegionSpec::radices.
[[nodiscard]] check::CommSchedule derive_schedule(const ExchangePlan& plan,
                                                  const WireTraits& traits,
                                                  std::string_view method);

// ---- mid-frame repair ------------------------------------------------------

/// Slice the longer side of `region` into `radix` ceil-boundary parts — the
/// concrete geometry behind SplitRule::kBalanced (== split_centerline at
/// radix 2). Exposed because the engine (executing plans) and the repair
/// analysis (replaying them) must agree on it byte-for-byte.
[[nodiscard]] std::vector<img::Rect> split_rect_parts(const img::Rect& region, int radix);

/// Cut `bounds` into `bands` horizontal bands with floor-ratio row
/// boundaries; band j is owned by rank j. The geometry behind
/// SplitRule::kBand (direct send's parts), shared with the ring pipeline's
/// circulating bands.
[[nodiscard]] std::vector<img::Rect> band_parts(const img::Rect& bounds, int bands);

/// The protocol state after `completed_stages` stages of a rect plan:
/// `region[r]` is the rectangle rank r owns, and `contributors[r]` (sorted)
/// lists the ranks whose subimages are already composited into r's partial
/// over that rectangle. This is what a dead rank takes with it: losing rank
/// d at epoch e loses exactly the composite of contributors[d]'s subimages
/// restricted to region[d] — everything else still lives on some survivor.
struct EpochState {
  std::vector<img::Rect> region;
  std::vector<std::vector<int>> contributors;
};

/// Replay a kBalanced rect plan for `completed_stages` stages without
/// touching pixels. Throws std::invalid_argument for scalar/band/gather/ring
/// plans (their state is not a per-rank rectangle) or an out-of-range stage
/// count.
[[nodiscard]] EpochState plan_epoch_state(const ExchangePlan& plan, int completed_stages,
                                          const img::Rect& frame);

/// Rebuild the remaining exchange over the survivor set: the repair plan is
/// a k-ary group exchange over |survivors| ranks (any count — no folding
/// needed) run on sparse full-frame inputs assembled by the resume path
/// from epoch-`completed_stages` partials. `survivors` must be a sorted,
/// duplicate-free, non-empty subset of the original ranks. Family "repair".
[[nodiscard]] ExchangePlan repair_plan(const ExchangePlan& plan, int completed_stages,
                                       const std::vector<int>& survivors);

}  // namespace slspvr::core
