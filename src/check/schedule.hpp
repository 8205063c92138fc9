// Static communication-schedule model for slspvr-check.
//
// Every compositing method in this system is a *fixed rendezvous schedule*:
// given the rank count P, the complete per-rank sequence of sends, receives
// and barriers — peers, tags, stage markers and worst-case payload sizes —
// is known without rendering a frame. CommSchedule is that sequence as data,
// emitted by each core::Compositor's schedule(P) method and consumed by the
// verifier (check/verify.hpp) and the dynamic trace checker
// (check/trace_check.hpp).
//
// Payload sizes are symbolic, not numeric: a SizeBound names the screen
// region a message covers (as a fraction of the full A-pixel frame) and the
// *payload class* — whole region, bounding-rectangle clipped, or non-blank
// pixels only. The classes form the dominance chain behind the paper's
// Eq. (9) ordering M_BS >= M_BSBR >= M_BSBRC >= M_BSLC; the verifier proves
// the chain on these bounds with exact rational arithmetic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace slspvr::check {

/// Exact rational number for symbolic size accounting (area fractions are
/// 1/2^k or 1/P — denominators stay tiny, no overflow care needed).
struct Rational {
  std::int64_t num = 0;
  std::int64_t den = 1;

  [[nodiscard]] static Rational of(std::int64_t n, std::int64_t d);
  friend Rational operator+(Rational a, Rational b);
  friend Rational operator*(Rational a, Rational b);
  friend bool operator==(const Rational&, const Rational&);
  [[nodiscard]] bool operator<(const Rational& other) const;
  [[nodiscard]] bool operator<=(const Rational& other) const;
  [[nodiscard]] std::string str() const;
};

/// The screen region a message covers, as a recipe over the full W x H
/// frame: halve `halvings` times (binary-swap stages), or take one of
/// `bands` horizontal bands (direct-send / pipeline). `scalar` regions are
/// pixel-count progressions (BSLC's interleaved ranges) rather than
/// rectangles, which tightens the rounding of repeated halving.
struct RegionSpec {
  int halvings = 0;
  int bands = 1;
  bool scalar = false;
  /// Mixed-radix split factors for k-ary group exchanges: the region is
  /// sliced into radices[0] parts, each part into radices[1] parts, and so
  /// on (ceil rounding per cut, like the centerline split). Empty means
  /// "use `halvings`" — power-of-two schedules keep the legacy encoding so
  /// Eq. (9) payload forms and existing bounds stay byte-identical.
  std::vector<int> radices;

  /// Nominal area as a fraction of the full frame area A.
  [[nodiscard]] Rational area_fraction() const;
};

/// Worst-case payload classes, totally ordered by pointwise dominance:
/// shipping a whole region always costs at least as much as its bounding
/// rectangle, which costs at least as much as its non-blank pixels.
enum class PayloadClass {
  kNone = 0,          ///< header-only message
  kNonBlank = 1,      ///< RLE / span / record encodings (BSLC, BSBRC, BSBRS)
  kBoundingRect = 2,  ///< bounding-rectangle clipped raw pixels (BSBR)
  kFullRegion = 3,    ///< whole region raw pixels (BS, dense direct-send)
};

[[nodiscard]] std::string_view payload_class_name(PayloadClass c);

/// Symbolic worst-case size of one message: fixed header bytes plus
/// per-pixel wire bytes over the covered region, plus per-row bytes for
/// encodings that pay per rectangle row even when the row is blank (BSBRS's
/// span-count table).
struct SizeBound {
  PayloadClass payload = PayloadClass::kNone;
  RegionSpec region;
  std::int64_t fixed_bytes = 0;      ///< headers independent of region size
  std::int64_t per_pixel_bytes = 0;  ///< worst-case wire bytes per region pixel
  std::int64_t per_row_bytes = 0;    ///< worst-case wire bytes per region row
};

/// Largest pixel count the region can reach on a concrete W x H frame
/// (accounts for the ceil rounding of centerline splits and band edges).
[[nodiscard]] std::int64_t max_region_pixels(const RegionSpec& region, int width, int height);

/// Largest row count the region can reach (0 for scalar progressions;
/// centerline splits may always cut the width, so the unbanded bound is H).
[[nodiscard]] std::int64_t max_region_rows(const RegionSpec& region, int height);

/// Evaluate a bound on a concrete frame: the byte count no conforming
/// message may exceed.
[[nodiscard]] std::uint64_t max_message_bytes(const SizeBound& bound, int width, int height);

enum class EventKind { kSend, kRecv, kBarrier };

/// One step of one rank's communication program.
struct ScheduleEvent {
  EventKind kind = EventKind::kSend;
  int peer = -1;  ///< dest (send) / source (recv); -1 for barrier
  int tag = 0;
  int stage = 0;  ///< compositing stage marker the traffic trace will carry
  SizeBound bound;  ///< sends only: symbolic worst-case payload size
};

/// A method's complete communication pattern for one rank count.
struct CommSchedule {
  std::string method;
  int ranks = 0;
  /// Binary-swap-family methods promise per-stage partner symmetry: at every
  /// stage the sends form a perfect matching of mutually exchanging pairs.
  bool pairwise = false;
  std::vector<std::vector<ScheduleEvent>> per_rank;
  /// Per-rank worst-case payload of the final out-of-phase gather (what the
  /// rank owns when compositing ends). Empty when the emitter doesn't model
  /// the gather. PayloadClass::kNone entries send the gather header only.
  std::vector<SizeBound> final_gather;
};

// ---- canonical schedule builders -----------------------------------------
// The per-method swap/tree/direct-send/pipeline builders that used to live
// here are gone: those schedules are now *derived* from the same
// core::ExchangePlan object the compositing engine executes
// (core::derive_schedule in src/core/plan.hpp), so the static model can
// never drift from the code path that runs. Only the fold wrapper — which
// composes another method's schedule — and the gather appender remain
// hand-written.

/// Fold wrapper: each non-leader ships its BSBRC-encoded subimage to its
/// group leader (tag 800, stage 1); `inner` — the wrapped method's schedule
/// for the Q = 2^floor(log2 P) leaders — is then relabelled onto the leader
/// world ranks. Accepts any P >= 1.
[[nodiscard]] CommSchedule fold_schedule(std::string_view method, int ranks,
                                         const CommSchedule& inner);

/// Append the final gather (core::gather_final): every rank but `root`
/// sends its owned piece under tag 900 at stage 0; root receives them in
/// ascending rank order. Requires `schedule.final_gather` to be populated.
void append_final_gather(CommSchedule& schedule, int root = 0);

/// Reserved tags the schedules use; kept in one place so the verifier can
/// cross-check tag uniqueness between phases (fold pre-stage vs the inner
/// binary-swap stages vs the gather).
inline constexpr int kFoldTag = 800;    // matches core/fold.cpp
inline constexpr int kGatherTag = 900;  // matches core/gather.cpp

/// The gather's wire sizes (core/gather.cpp asserts them): every piece
/// starts with a 44-byte header, and a rectangle piece's row-span table
/// (core::wire::pack_row_spans) costs 8 bytes per rectangle row.
inline constexpr std::int64_t kGatherHeaderBytes = 44;
inline constexpr std::int64_t kGatherRowBytes = 8;

}  // namespace slspvr::check
