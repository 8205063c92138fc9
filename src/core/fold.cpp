#include "core/fold.hpp"

#include <stdexcept>

#include "core/codec.hpp"

namespace slspvr::core {

namespace {
constexpr int kFoldTag = 800;
}

FoldPlan make_fold_plan(int ranks) {
  if (ranks <= 0) throw std::invalid_argument("make_fold_plan: ranks must be positive");
  int q = 1;
  while (q * 2 <= ranks) q *= 2;
  return FoldPlan{ranks, q};
}

SwapOrder make_fold_order(int ranks, int axis, const float view_dir[3]) {
  const FoldPlan plan = make_fold_plan(ranks);
  SwapOrder order;
  order.levels = vol::log2_exact(plan.groups);
  const bool ascending_front = view_dir[axis] >= 0.0f;
  order.lower_front_per_bit.assign(static_cast<std::size_t>(order.levels), ascending_front);
  order.front_to_back.resize(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) {
    order.front_to_back[static_cast<std::size_t>(i)] = ascending_front ? i : ranks - 1 - i;
  }
  return order;
}

Ownership FoldCompositor::composite(mp::Comm& comm, img::Image& image,
                                    const SwapOrder& order, Counters& counters,
                                    EngineContext& engine) const {
  const FoldPlan plan = make_fold_plan(comm.size());
  const int rank = comm.rank();
  const bool ascending_front =
      order.front_to_back.empty() || order.front_to_back.front() == 0;

  // The pre-stage ships BSBRC-style: rect header + codes + pixels.
  const PayloadCodec& codec = codec_for(CodecKind::kRleRect);
  comm.set_stage(1);  // fold pre-stage
  if (!plan.is_leader(rank)) {
    const img::Rect rect =
        img::bounding_rect_of(image, image.bounds(), &counters.rect_scanned);
    img::PackBuffer buf;
    codec.encode_rect(image, image.bounds(), rect, buf, counters);
    comm.send(plan.leader_of(rank), kFoldTag, buf.bytes());
    comm.set_stage(0);
    return Ownership::full_rect(img::kEmptyRect);
  }

  const int g = plan.group_of(rank);
  if (plan.group_start(g + 1) - plan.group_start(g) > 1) {
    const int member = rank + 1;  // groups are 1 or 2 consecutive slabs
    const auto bytes = comm.recv(member, kFoldTag);
    img::UnpackBuffer in(bytes);
    // The member is the deeper slab when slab order ascends toward the
    // back, so its pixels are behind exactly when ascending_front.
    DecodeSink sink{image, /*incoming_in_front=*/!ascending_front, counters, engine};
    (void)codec.decode_rect(sink, image.bounds(), in);
  }

  // Leaders run the inner method among themselves.
  std::vector<int> leaders;
  leaders.reserve(static_cast<std::size_t>(plan.groups));
  for (int gg = 0; gg < plan.groups; ++gg) leaders.push_back(plan.group_start(gg));
  mp::Comm sub = comm.subgroup(leaders);

  SwapOrder inner_order;
  inner_order.levels = vol::log2_exact(plan.groups);
  inner_order.lower_front_per_bit.assign(static_cast<std::size_t>(inner_order.levels),
                                         ascending_front);
  inner_order.front_to_back.resize(static_cast<std::size_t>(plan.groups));
  for (int i = 0; i < plan.groups; ++i) {
    inner_order.front_to_back[static_cast<std::size_t>(i)] =
        ascending_front ? i : plan.groups - 1 - i;
  }
  return inner_.composite(sub, image, inner_order, counters, engine);
}


check::CommSchedule FoldCompositor::schedule(int ranks) const {
  const FoldPlan plan = make_fold_plan(ranks);
  return check::fold_schedule(name_, ranks, inner_.schedule(plan.groups));
}

}  // namespace slspvr::core
