#include "core/plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace slspvr::core {

namespace {

[[nodiscard]] bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

[[nodiscard]] int log2_exact(int n) {
  int levels = 0;
  while ((1 << levels) < n) ++levels;
  return levels;
}

void require_positive(int ranks, const char* what) {
  if (ranks <= 0) {
    throw std::invalid_argument(std::string(what) + ": ranks must be positive, got " +
                                std::to_string(ranks));
  }
}

/// Region state a rank's pieces pass through while deriving a schedule.
struct RegionState {
  std::vector<int> radices;  ///< split factors applied so far
  int bands = 1;
  bool retired = false;  ///< tree sender that shipped its region away
};

/// Emit the legacy `halvings` encoding whenever the applied factors are all
/// radix 2 — that keeps the derived power-of-two schedules byte-identical
/// to the hand-built ones they replaced (Eq. (9) forms included).
[[nodiscard]] check::RegionSpec make_spec(const RegionState& state, bool scalar) {
  const bool all_binary = std::all_of(state.radices.begin(), state.radices.end(),
                                      [](int k) { return k == 2; });
  if (all_binary) {
    return check::RegionSpec{static_cast<int>(state.radices.size()), state.bands, scalar, {}};
  }
  return check::RegionSpec{0, state.bands, scalar, state.radices};
}

}  // namespace

ExchangePlan binary_swap_plan(int ranks, SplitRule split) {
  if (!is_power_of_two(ranks)) {
    throw std::invalid_argument(
        "binary-swap plans need a power-of-two rank count, got " + std::to_string(ranks) +
        " (wrap in Fold or use the k-ary plan)");
  }
  const int levels = log2_exact(ranks);
  ExchangePlan plan;
  plan.family = "binary-swap";
  plan.ranks = ranks;
  plan.pairwise = true;
  plan.split = split;
  plan.front = FrontRule::kSwapBit;
  plan.per_rank.assign(static_cast<std::size_t>(ranks),
                       std::vector<RankStage>(static_cast<std::size_t>(levels)));
  for (int r = 0; r < ranks; ++r) {
    for (int s = 0; s < levels; ++s) {
      const int partner = r ^ (1 << s);
      RankStage& stage = plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)];
      stage.radix = 2;
      stage.keep = (r >> s) & 1;
      stage.sends = {{partner, 1 - stage.keep}};
      stage.recv_peers = {partner};
    }
  }
  return plan;
}

std::vector<int> kary_radices(int ranks) {
  require_positive(ranks, "kary_radices");
  std::vector<int> radices;
  int n = ranks;
  for (int f = 2; f * f <= n; ++f) {
    while (n % f == 0) {
      radices.push_back(f);
      n /= f;
    }
  }
  if (n > 1) radices.push_back(n);
  return radices;
}

ExchangePlan kary_plan(int ranks, SplitRule split) {
  require_positive(ranks, "kary_plan");
  const std::vector<int> radices = kary_radices(ranks);
  const int stages = static_cast<int>(radices.size());
  ExchangePlan plan;
  plan.family = "kary";
  plan.ranks = ranks;
  plan.pairwise = true;  // every group pair exchanges symmetrically
  plan.split = split;
  plan.front = FrontRule::kDepthOrder;
  plan.per_rank.assign(static_cast<std::size_t>(ranks),
                       std::vector<RankStage>(static_cast<std::size_t>(stages)));
  for (int r = 0; r < ranks; ++r) {
    int place = 1;
    for (int s = 0; s < stages; ++s) {
      const int k = radices[static_cast<std::size_t>(s)];
      const int digit = (r / place) % k;
      const int base = r - digit * place;
      RankStage& stage = plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)];
      stage.radix = k;
      stage.keep = digit;
      for (int j = 0; j < k; ++j) {
        if (j == digit) continue;
        const int peer = base + j * place;
        stage.sends.push_back({peer, j});
        stage.recv_peers.push_back(peer);
      }
      place *= k;
    }
  }
  return plan;
}

ExchangePlan direct_send_plan(int ranks) {
  require_positive(ranks, "direct_send_plan");
  ExchangePlan plan;
  plan.family = "direct-send";
  plan.ranks = ranks;
  plan.pairwise = false;
  plan.split = SplitRule::kBand;
  plan.front = FrontRule::kDepthOrder;
  plan.per_rank.assign(static_cast<std::size_t>(ranks), std::vector<RankStage>(1));
  for (int r = 0; r < ranks; ++r) {
    RankStage& stage = plan.per_rank[static_cast<std::size_t>(r)].front();
    stage.radix = ranks;
    stage.keep = r;
    for (int peer = 0; peer < ranks; ++peer) {
      if (peer == r) continue;
      stage.sends.push_back({peer, peer});
      stage.recv_peers.push_back(peer);
    }
  }
  return plan;
}

ExchangePlan binary_tree_plan(int ranks) {
  if (!is_power_of_two(ranks)) {
    throw std::invalid_argument("binary-tree plans need a power-of-two rank count, got " +
                                std::to_string(ranks));
  }
  const int levels = log2_exact(ranks);
  ExchangePlan plan;
  plan.family = "binary-tree";
  plan.ranks = ranks;
  plan.pairwise = false;  // tree messages are one-directional
  plan.split = SplitRule::kGather;
  plan.front = FrontRule::kSwapBit;
  plan.per_rank.assign(static_cast<std::size_t>(ranks),
                       std::vector<RankStage>(static_cast<std::size_t>(levels)));
  for (int r = 0; r < ranks; ++r) {
    for (int s = 0; s < levels; ++s) {
      const int low = r & ((1 << (s + 1)) - 1);
      RankStage& stage = plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)];
      if (low == 0) {
        stage.recv_peers = {r | (1 << s)};
      } else if (low == (1 << s)) {
        stage.keep = -1;  // retire after shipping the accumulated region
        stage.sends = {{r ^ (1 << s), 0}};
      }
      // Other ranks already retired: default RankStage, no events.
    }
  }
  return plan;
}

ExchangePlan ring_plan(int ranks) {
  require_positive(ranks, "ring_plan");
  const int steps = ranks > 1 ? ranks - 1 : 0;
  ExchangePlan plan;
  plan.family = "ring";
  plan.ranks = ranks;
  plan.pairwise = false;
  plan.split = SplitRule::kRing;
  plan.front = FrontRule::kDepthOrder;
  plan.per_rank.assign(static_cast<std::size_t>(ranks),
                       std::vector<RankStage>(static_cast<std::size_t>(steps)));
  for (int r = 0; r < ranks; ++r) {
    const int succ = (r + 1) % ranks;
    const int pred = (r - 1 + ranks) % ranks;
    for (int s = 0; s < steps; ++s) {
      RankStage& stage = plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)];
      stage.radix = ranks;
      stage.keep = r;
      stage.sends = {{succ, ((r - s) % ranks + ranks) % ranks}};
      stage.recv_peers = {pred};
    }
  }
  return plan;
}

std::vector<img::Rect> split_rect_parts(const img::Rect& region, int radix) {
  const auto ceil_div = [](int a, int b) { return (a + b - 1) / b; };
  std::vector<img::Rect> parts(static_cast<std::size_t>(radix));
  if (region.width() >= region.height()) {
    const int w = region.width();
    for (int j = 0; j < radix; ++j) {
      parts[static_cast<std::size_t>(j)] =
          img::Rect{region.x0 + ceil_div(w * j, radix), region.y0,
                    region.x0 + ceil_div(w * (j + 1), radix), region.y1};
    }
  } else {
    const int h = region.height();
    for (int j = 0; j < radix; ++j) {
      parts[static_cast<std::size_t>(j)] =
          img::Rect{region.x0, region.y0 + ceil_div(h * j, radix), region.x1,
                    region.y0 + ceil_div(h * (j + 1), radix)};
    }
  }
  return parts;
}

std::vector<img::Rect> band_parts(const img::Rect& bounds, int bands) {
  std::vector<img::Rect> parts(static_cast<std::size_t>(bands));
  const std::int64_t h = bounds.height();
  for (int j = 0; j < bands; ++j) {
    const int y0 = bounds.y0 + static_cast<int>(h * j / bands);
    const int y1 = bounds.y0 + static_cast<int>(h * (j + 1) / bands);
    parts[static_cast<std::size_t>(j)] = img::Rect{bounds.x0, y0, bounds.x1, y1};
  }
  return parts;
}

EpochState plan_epoch_state(const ExchangePlan& plan, int completed_stages,
                            const img::Rect& frame) {
  require_positive(plan.ranks, "plan_epoch_state");
  if (plan.split != SplitRule::kBalanced) {
    throw std::invalid_argument(
        "plan_epoch_state: only balanced rect plans carry per-rank rectangle state");
  }
  if (completed_stages < 0 || completed_stages > plan.stages()) {
    throw std::invalid_argument("plan_epoch_state: completed_stages " +
                                std::to_string(completed_stages) + " out of range [0," +
                                std::to_string(plan.stages()) + "]");
  }
  EpochState state;
  state.region.assign(static_cast<std::size_t>(plan.ranks), frame);
  state.contributors.resize(static_cast<std::size_t>(plan.ranks));
  for (int r = 0; r < plan.ranks; ++r) {
    state.contributors[static_cast<std::size_t>(r)] = {r};
  }
  for (int st = 0; st < completed_stages; ++st) {
    // Contributor closure must read the *pre-stage* sets of every peer, so
    // work against a frozen copy.
    const std::vector<std::vector<int>> before = state.contributors;
    for (int r = 0; r < plan.ranks; ++r) {
      const RankStage& rs =
          plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(st)];
      if (rs.sends.empty() && rs.recv_peers.empty()) continue;  // retired
      auto& mine = state.contributors[static_cast<std::size_t>(r)];
      for (const int peer : rs.recv_peers) {
        const auto& theirs = before[static_cast<std::size_t>(peer)];
        mine.insert(mine.end(), theirs.begin(), theirs.end());
      }
      std::sort(mine.begin(), mine.end());
      mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
      auto& region = state.region[static_cast<std::size_t>(r)];
      region = rs.keep >= 0
                   ? split_rect_parts(region, rs.radix)[static_cast<std::size_t>(rs.keep)]
                   : img::kEmptyRect;
    }
  }
  return state;
}

ExchangePlan repair_plan(const ExchangePlan& plan, int completed_stages,
                         const std::vector<int>& survivors) {
  require_positive(plan.ranks, "repair_plan");
  if (completed_stages < 0 || completed_stages > plan.stages()) {
    throw std::invalid_argument("repair_plan: completed_stages " +
                                std::to_string(completed_stages) + " out of range [0," +
                                std::to_string(plan.stages()) + "]");
  }
  if (survivors.empty()) {
    throw std::invalid_argument("repair_plan: survivor set is empty");
  }
  if (!std::is_sorted(survivors.begin(), survivors.end()) ||
      std::adjacent_find(survivors.begin(), survivors.end()) != survivors.end()) {
    throw std::invalid_argument("repair_plan: survivors must be sorted and duplicate-free");
  }
  if (survivors.front() < 0 || survivors.back() >= plan.ranks) {
    throw std::invalid_argument("repair_plan: survivor rank out of range [0," +
                                std::to_string(plan.ranks) + ")");
  }
  // The repair exchange runs over sparse full-frame inputs, so its shape
  // depends only on how many ranks are left: a k-ary plan over the survivor
  // count (mixed radices absorb any count — no folding round needed).
  ExchangePlan repaired = kary_plan(static_cast<int>(survivors.size()), SplitRule::kBalanced);
  repaired.family = "repair";
  return repaired;
}

check::CommSchedule derive_schedule(const ExchangePlan& plan, const WireTraits& traits,
                                    std::string_view method) {
  require_positive(plan.ranks, "derive_schedule");
  check::CommSchedule s;
  s.method = method;
  s.ranks = plan.ranks;
  s.pairwise = plan.pairwise;
  s.per_rank.resize(static_cast<std::size_t>(plan.ranks));
  s.final_gather.resize(static_cast<std::size_t>(plan.ranks));

  for (int r = 0; r < plan.ranks; ++r) {
    auto& events = s.per_rank[static_cast<std::size_t>(r)];
    RegionState state;
    for (int st = 0; st < plan.stages(); ++st) {
      const RankStage& stage =
          plan.per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(st)];
      const int tag = st + 1;
      if (!stage.sends.empty()) {
        // Symbolic region each outgoing part covers.
        check::RegionSpec spec;
        switch (plan.split) {
          case SplitRule::kBalanced:
          case SplitRule::kContiguous: {
            RegionState after = state;
            if (stage.radix > 1) after.radices.push_back(stage.radix);
            spec = make_spec(after, traits.scalar);
            break;
          }
          case SplitRule::kBand:
            spec = check::RegionSpec{0, state.bands * stage.radix, false, {}};
            break;
          case SplitRule::kGather:
            spec = make_spec(state, traits.scalar);  // ships the whole region
            break;
          case SplitRule::kRing:
            spec = check::RegionSpec{0, plan.ranks, false, {}};
            break;
        }
        const check::SizeBound bound{traits.payload, spec, traits.fixed_bytes,
                                     traits.per_pixel_bytes, traits.per_row_bytes};
        for (const PartSend& send : stage.sends) {
          events.push_back({check::EventKind::kSend, send.peer, tag, tag, bound});
        }
      }
      for (const int peer : stage.recv_peers) {
        events.push_back({check::EventKind::kRecv, peer, tag, tag, {}});
      }
      // Track the region the rank carries into the next stage.
      switch (plan.split) {
        case SplitRule::kBalanced:
        case SplitRule::kContiguous:
          if (stage.radix > 1) state.radices.push_back(stage.radix);
          break;
        case SplitRule::kBand:
          state.bands *= stage.radix;
          break;
        case SplitRule::kGather:
          if (stage.keep < 0) state.retired = true;
          break;
        case SplitRule::kRing:
          break;
      }
    }
    // Final ownership, shipped in the out-of-phase gather: the header, then
    // at worst every pixel of the region plus a rectangle's row-span table
    // (scalar regions have no rows, so the row term vanishes for them).
    const auto piece = [](const check::RegionSpec& spec) {
      return check::SizeBound{check::PayloadClass::kFullRegion, spec, check::kGatherHeaderBytes,
                              16, check::kGatherRowBytes};
    };
    check::SizeBound gather;
    if (plan.split == SplitRule::kGather) {
      gather = state.retired ? check::SizeBound{check::PayloadClass::kNone, check::RegionSpec{},
                                                check::kGatherHeaderBytes, 0}
                             : piece(check::RegionSpec{});
    } else if (plan.split == SplitRule::kRing) {
      gather = piece(check::RegionSpec{0, plan.ranks, false, {}});
    } else {
      gather = piece(make_spec(state, traits.scalar));
    }
    s.final_gather[static_cast<std::size_t>(r)] = gather;
  }
  return s;
}

}  // namespace slspvr::core
