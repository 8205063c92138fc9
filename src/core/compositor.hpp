// Compositor interface: the contract every compositing method implements.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "check/schedule.hpp"
#include "core/counters.hpp"
#include "core/order.hpp"
#include "core/plan.hpp"
#include "image/image.hpp"
#include "image/interleave.hpp"
#include "image/pack.hpp"
#include "mp/communicator.hpp"

namespace slspvr::core {

class EngineContext;  // core/worker_pool.hpp

/// What a rank owns when its compositing phase finishes.
struct Ownership {
  enum class Kind {
    kRect,         ///< a contiguous screen rectangle (BS/BSBR/BSBRC/pipeline)
    kInterleaved,  ///< an interleaved pixel progression (BSLC)
    kFullAtRoot,   ///< rank 0 holds the entire image, others nothing (tree)
  };

  Kind kind = Kind::kRect;
  img::Rect rect;                ///< valid when kind == kRect
  img::InterleavedRange range;   ///< valid when kind == kInterleaved

  [[nodiscard]] static Ownership full_rect(const img::Rect& r) {
    return Ownership{Kind::kRect, r, {}};
  }
  [[nodiscard]] static Ownership interleaved(const img::InterleavedRange& r) {
    return Ownership{Kind::kInterleaved, {}, r};
  }
  [[nodiscard]] static Ownership full_at_root() {
    return Ownership{Kind::kFullAtRoot, {}, {}};
  }
};

/// A compositing method. `composite` runs SPMD on every rank: `image` enters
/// as the rank's rendered full-frame subimage and leaves holding the rank's
/// share of the fully composited image, described by the returned Ownership.
///
/// Implementations must:
///  * call comm.set_stage(k) with k = 1..#stages before each exchange so the
///    traffic trace attributes bytes to compositing stages (stage 0 is
///    reserved for out-of-phase traffic, e.g. the final gather);
///  * respect the front/back decisions in `order`;
///  * account every over/encode/scan operation in `counters`;
///  * take every engine knob (worker fan-out, scratch) from `engine` —
///    there is no process-global engine state, so concurrent frames in one
///    process are correct as long as each passes its own context
///    (EngineArena pools per-rank contexts across a session).
class Compositor {
 public:
  virtual ~Compositor() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual Ownership composite(mp::Comm& comm, img::Image& image, const SwapOrder& order,
                              Counters& counters, EngineContext& engine) const = 0;

  /// Convenience overload: run with a one-shot default engine context
  /// (single worker) constructed for this call — the historical
  /// single-thread behaviour, byte-identical by construction.
  Ownership composite(mp::Comm& comm, img::Image& image, const SwapOrder& order,
                      Counters& counters) const;

  /// The method's static communication schedule for `ranks` PEs: the exact
  /// per-rank send/recv/stage program `composite` will execute, with
  /// symbolic worst-case payload bounds. Ring-structured methods (pipeline)
  /// emit the identity depth order; any other order is the same pattern
  /// with ranks relabelled. slspvr-check proves deadlock-freedom, matching
  /// and tag uniqueness on this schedule before any frame is rendered.
  [[nodiscard]] virtual check::CommSchedule schedule(int ranks) const = 0;

  /// The balanced rect ExchangePlan this method executes for `ranks` PEs,
  /// when it has one — the handle mid-frame repair needs to replay the
  /// protocol state (plan_epoch_state) and re-plan the rest over survivors
  /// (repair_plan). Methods without per-rank rectangle state (scalar
  /// interleave, banded direct send, tree, pipeline) return nullopt and
  /// fall back to the legacy degrade-and-restart recovery.
  [[nodiscard]] virtual std::optional<ExchangePlan> resume_plan(int /*ranks*/) const {
    return std::nullopt;
  }
};

/// Assemble the final image at `root` from each rank's owned piece. Traffic
/// is tagged stage 0 (outside the measured compositing phase, matching the
/// paper, which times compositing up to the point the full image exists
/// distributed across PEs). Each rank ships one pack_gather_piece message,
/// which the root places with place_gather_piece.
[[nodiscard]] img::Image gather_final(mp::Comm& comm, const img::Image& local,
                                      const Ownership& ownership, int root = 0);

/// Append one rank's gather message to `buf`: a check::kGatherHeaderBytes
/// header, then a rectangle's row spans (core::wire::pack_row_spans), an
/// interleaved progression's pixels in order, or nothing (kFullAtRoot).
void pack_gather_piece(const img::Image& local, const Ownership& ownership,
                       img::PackBuffer& buf);

/// Place one gather message into the root's frame `out`, which must be zero
/// over the piece (freshly allocated). Throws img::DecodeError, before any
/// pixel is written, when the header's rectangle or interleaved range leaves
/// the frame, its kind is unknown or the payload is short.
void place_gather_piece(std::span<const std::byte> bytes, img::Image& out);

}  // namespace slspvr::core
