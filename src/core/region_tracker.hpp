// RegionTracker: how a rank tracks the bounding rectangle of its non-blank
// pixels across compositing stages.
//
// The sparse methods clip every outgoing part to this rectangle (Sec. 3.2's
// T_bound optimisation). Two maintenance policies exist: the O(1)
// bounding-union update the paper uses (algorithm line 21, core::bsbrc()) and
// the exact-rescan ablation that re-scans the kept region each stage for a
// tight rectangle (core::bsbrc_tight()). Dense codecs use kNone and pay no
// scan at all.
#pragma once

#include "core/counters.hpp"
#include "image/image.hpp"

namespace slspvr::core {

enum class TrackerKind {
  kNone,    ///< no tracking: parts ship whole (BS, dense direct send, BSLC)
  kUnion,   ///< O(1): kept portion U received rectangle (paper's line 21)
  kRescan,  ///< exact: re-scan the kept region every stage (ablation)
};

class RegionTracker {
 public:
  explicit RegionTracker(TrackerKind kind) : kind_(kind) {}

  /// First-stage O(A) scan for the local bounding rectangle (T_bound).
  void init(const img::Image& image, Counters& counters) {
    if (kind_ == TrackerKind::kNone) return;
    rect_ = img::bounding_rect_of(image, image.bounds(), &counters.rect_scanned);
  }

  /// Clip an outgoing part to the tracked rectangle.
  [[nodiscard]] img::Rect clip(const img::Rect& part) const {
    return kind_ == TrackerKind::kNone ? part : img::intersect(rect_, part);
  }

  /// Fold one stage's outcome into the rectangle: the rank now owns `keep`
  /// and has composited contributions covering `received` into it.
  void after_stage(const img::Image& image, const img::Rect& keep, const img::Rect& received,
                   Counters& counters) {
    switch (kind_) {
      case TrackerKind::kNone:
        return;
      case TrackerKind::kUnion:
        rect_ = img::bounding_union(img::intersect(rect_, keep), received);
        return;
      case TrackerKind::kRescan:
        rect_ = img::bounding_rect_of(image, keep, &counters.rect_scanned);
        return;
    }
  }

 private:
  TrackerKind kind_;
  img::Rect rect_ = img::kEmptyRect;
};

}  // namespace slspvr::core
