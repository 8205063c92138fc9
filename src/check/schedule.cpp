#include "check/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace slspvr::check {

namespace {

[[nodiscard]] std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Worst rectangle area reachable by `halvings` centerline splits of w x h.
/// split_centerline halves the longer side with ceil rounding; the larger
/// half can exceed the nominal area/2, so enumerate both split choices and
/// keep the maximum — a safe upper bound for every rank's actual region.
[[nodiscard]] std::int64_t max_halved_rect(std::int64_t w, std::int64_t h, int halvings) {
  if (halvings == 0) return w * h;
  const std::int64_t via_w = max_halved_rect(ceil_div(w, 2), h, halvings - 1);
  const std::int64_t via_h = max_halved_rect(w, ceil_div(h, 2), halvings - 1);
  return std::max(via_w, via_h);
}

/// Mixed-radix analogue of max_halved_rect: at every stage the engine
/// slices the longer side into radices[i] parts with ceil boundaries, so
/// a part spans at most ceil(side / radix); enumerate which side each cut
/// lands on and keep the maximum area.
[[nodiscard]] std::int64_t max_sliced_rect(std::int64_t w, std::int64_t h,
                                           const std::vector<int>& radices,
                                           std::size_t from) {
  if (from >= radices.size()) return w * h;
  const std::int64_t k = radices[from];
  const std::int64_t via_w = max_sliced_rect(ceil_div(w, k), h, radices, from + 1);
  const std::int64_t via_h = max_sliced_rect(w, ceil_div(h, k), radices, from + 1);
  return std::max(via_w, via_h);
}

}  // namespace

Rational Rational::of(std::int64_t n, std::int64_t d) {
  if (d == 0) throw std::invalid_argument("Rational: zero denominator");
  if (d < 0) {
    n = -n;
    d = -d;
  }
  const std::int64_t g = std::gcd(n < 0 ? -n : n, d);
  return Rational{g == 0 ? n : n / g, g == 0 ? d : d / g};
}

Rational operator+(Rational a, Rational b) {
  return Rational::of(a.num * b.den + b.num * a.den, a.den * b.den);
}

Rational operator*(Rational a, Rational b) { return Rational::of(a.num * b.num, a.den * b.den); }

bool operator==(const Rational& a, const Rational& b) {
  return a.num * b.den == b.num * a.den;
}

bool Rational::operator<(const Rational& other) const {
  return num * other.den < other.num * den;
}

bool Rational::operator<=(const Rational& other) const {
  return num * other.den <= other.num * den;
}

std::string Rational::str() const {
  if (den == 1) return std::to_string(num);
  return std::to_string(num) + "/" + std::to_string(den);
}

Rational RegionSpec::area_fraction() const {
  std::int64_t parts = std::int64_t{1} << halvings;
  for (const int k : radices) parts *= k;
  return Rational::of(1, parts * bands);
}

std::string_view payload_class_name(PayloadClass c) {
  switch (c) {
    case PayloadClass::kNone: return "none";
    case PayloadClass::kNonBlank: return "non-blank";
    case PayloadClass::kBoundingRect: return "bounding-rect";
    case PayloadClass::kFullRegion: return "full-region";
  }
  return "?";
}

std::int64_t max_region_pixels(const RegionSpec& region, int width, int height) {
  const std::int64_t w = width;
  const std::int64_t h = height;
  if (region.scalar) {
    // Interleaved progressions split pixel *counts*: each stage keeps at
    // most ceil(count / radix) elements, so the stages compose to iterated
    // ceil divisions (halvings are just radix-2 stages).
    std::int64_t count = ceil_div(w * h, std::int64_t{1} << region.halvings);
    for (const int k : region.radices) count = ceil_div(count, k);
    if (region.bands > 1) count = ceil_div(count, region.bands);
    return count;
  }
  std::int64_t area = max_halved_rect(w, h, region.halvings);
  if (!region.radices.empty()) {
    area = max_sliced_rect(w, h, region.radices, 0);
  }
  if (region.bands > 1) {
    // Horizontal bands of the (possibly halved) region: band_parts uses floor
    // ratios, so a band spans at most ceil(h/bands) + 1 rows; stay safe.
    area = (ceil_div(h, region.bands) + 1) * w;
  }
  return area;
}

std::int64_t max_region_rows(const RegionSpec& region, int height) {
  if (region.scalar) return 0;
  if (region.bands > 1) return ceil_div(height, region.bands) + 1;
  // Mixed-radix slices may always cut the width, so the row bound stays H
  // (same as the halvings case).
  return height;
}

std::uint64_t max_message_bytes(const SizeBound& bound, int width, int height) {
  if (bound.payload == PayloadClass::kNone) {
    return static_cast<std::uint64_t>(bound.fixed_bytes);
  }
  const std::int64_t pixels = max_region_pixels(bound.region, width, height);
  const std::int64_t rows = max_region_rows(bound.region, height);
  return static_cast<std::uint64_t>(bound.fixed_bytes + bound.per_pixel_bytes * pixels +
                                    bound.per_row_bytes * rows);
}

CommSchedule fold_schedule(std::string_view method, int ranks, const CommSchedule& inner) {
  if (ranks <= 0) throw std::invalid_argument("fold_schedule: ranks must be positive");
  // Mirror core::make_fold_plan: Q = largest power of two <= P, groups of
  // 1-2 consecutive ranks, the group's first rank leads.
  int groups = 1;
  while (groups * 2 <= ranks) groups *= 2;
  if (inner.ranks != groups) {
    throw std::invalid_argument("fold_schedule: inner schedule has " +
                                std::to_string(inner.ranks) + " ranks, want " +
                                std::to_string(groups));
  }
  const auto group_start = [&](int g) {
    return static_cast<int>(static_cast<std::int64_t>(ranks) * g / groups);
  };

  CommSchedule s;
  s.method = method;
  s.ranks = ranks;
  s.pairwise = false;  // the pre-stage fold messages are one-directional
  s.per_rank.resize(static_cast<std::size_t>(ranks));
  s.final_gather.assign(static_cast<std::size_t>(ranks),
                        SizeBound{PayloadClass::kNone, RegionSpec{}, kGatherHeaderBytes, 0});
  // BSBRC-style whole-frame ship: rect header + RLE codes + non-blank pixels.
  const SizeBound pre_bound{PayloadClass::kNonBlank, RegionSpec{0, 1, false, {}}, 12, 18};

  for (int g = 0; g < groups; ++g) {
    const int leader = group_start(g);
    auto& leader_events = s.per_rank[static_cast<std::size_t>(leader)];
    for (int member = leader + 1; member < group_start(g + 1); ++member) {
      s.per_rank[static_cast<std::size_t>(member)].push_back(
          {EventKind::kSend, leader, kFoldTag, 1, pre_bound});
      leader_events.push_back({EventKind::kRecv, member, kFoldTag, 1, {}});
    }
    // Relabel the inner method's program onto the leader's world rank.
    for (const ScheduleEvent& e : inner.per_rank[static_cast<std::size_t>(g)]) {
      ScheduleEvent world = e;
      if (e.peer >= 0) world.peer = group_start(e.peer);
      leader_events.push_back(world);
    }
    if (!inner.final_gather.empty()) {
      s.final_gather[static_cast<std::size_t>(leader)] =
          inner.final_gather[static_cast<std::size_t>(g)];
    }
  }
  return s;
}

void append_final_gather(CommSchedule& schedule, int root) {
  if (schedule.final_gather.size() != static_cast<std::size_t>(schedule.ranks)) {
    throw std::invalid_argument("append_final_gather: schedule has no final_gather bounds");
  }
  for (int r = 0; r < schedule.ranks; ++r) {
    if (r == root) continue;
    schedule.per_rank[static_cast<std::size_t>(r)].push_back(
        {EventKind::kSend, root, kGatherTag, 0, schedule.final_gather[static_cast<std::size_t>(r)]});
    schedule.per_rank[static_cast<std::size_t>(root)].push_back(
        {EventKind::kRecv, r, kGatherTag, 0, {}});
  }
}

}  // namespace slspvr::check
