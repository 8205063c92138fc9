// Non-power-of-two binary swap via folding — the paper's first future-work
// item ("the number of processors must be a power of two" is BS's drawback).
//
// Strategy: partition the volume into P depth-ordered slabs along one axis.
// Let Q be the largest power of two <= P. The P slabs are grouped into Q
// consecutive groups (sizes 1 or 2); in each 2-group the non-leader sends
// its subimage — bounding-rectangle clipped and run-length encoded, i.e.
// BSBRC-style — to the group leader, which composites it locally. The Q
// leaders then run any binary-swap-family compositor on a subgroup
// communicator. Depth ordering stays valid because groups are contiguous
// slabs and leader index order equals slab depth order.
#pragma once

#include <optional>
#include <string>

#include "core/compositor.hpp"

namespace slspvr::core {

/// Fold plan: how P ranks collapse onto Q = 2^floor(log2 P) leaders.
struct FoldPlan {
  int ranks = 0;
  int groups = 0;  ///< Q

  [[nodiscard]] int group_start(int g) const {
    return static_cast<int>(static_cast<std::int64_t>(ranks) * g / groups);
  }
  [[nodiscard]] int group_of(int rank) const {
    // groups <= 64, linear scan is fine.
    for (int g = 0; g < groups; ++g) {
      if (rank >= group_start(g) && rank < group_start(g + 1)) return g;
    }
    return groups - 1;
  }
  [[nodiscard]] int leader_of(int rank) const { return group_start(group_of(rank)); }
  [[nodiscard]] bool is_leader(int rank) const { return leader_of(rank) == rank; }
};

[[nodiscard]] FoldPlan make_fold_plan(int ranks);

/// SwapOrder for a fold run: `front_to_back` covers all `ranks` slabs along
/// `axis`; `levels`/`lower_front_per_bit` describe the folded leader group.
[[nodiscard]] SwapOrder make_fold_order(int ranks, int axis, const float view_dir[3]);

/// Wraps a binary-swap-family compositor so it accepts any rank count.
/// `order` must come from make_fold_order (slab decomposition).
class FoldCompositor final : public Compositor {
 public:
  explicit FoldCompositor(const Compositor& inner)
      : inner_(inner), name_(std::string("Fold+") + std::string(inner.name())) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  using Compositor::composite;
  Ownership composite(mp::Comm& comm, img::Image& image, const SwapOrder& order,
                      Counters& counters, EngineContext& engine) const override;

  [[nodiscard]] check::CommSchedule schedule(int ranks) const override;

 private:
  const Compositor& inner_;
  std::string name_;
};

/// The one fold decision, keyed on the rank count: a frame over `ranks` PEs
/// runs `method` itself at a power of two, and `method` inside the fold
/// extension at any other count — whose order then comes from
/// make_fold_order over slab bricks, as pvr::partition_frame builds it. The
/// wrapper lives here, so keep this alive while get() is in use.
class ResolvedMethod {
 public:
  ResolvedMethod(const Compositor& method, int ranks) : method_(method) {
    if (!vol::is_power_of_two(ranks)) fold_.emplace(method);
  }

  [[nodiscard]] const Compositor& get() const noexcept {
    if (fold_) return *fold_;
    return method_;
  }

 private:
  const Compositor& method_;
  std::optional<FoldCompositor> fold_;
};

}  // namespace slspvr::core
