// The benchmark workloads. Each drives frames through one public pvr
// entry point in a closed loop, checks every frame after its window, and in
// trace mode replays its views layer by layer (layers.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

/// Latency samples an end-to-end window collects at least, whatever its
/// length: two blocks (blocked_percentile). A third would add 100 frames to
/// procs-orbit's window and 100 reference renders to its check, about 20 s
/// a run.
inline constexpr std::size_t kEndToEndSamples = 2 * kBlock;
/// A traced-run window only needs a median, but of enough frames that
/// trace.overhead_ms, a difference of two medians, is not a few frames'.
inline constexpr std::size_t kTraceSamples = kBlock;

/// What one timed window measured.
struct Window {
  std::vector<double> frame_ms;  ///< latency samples (frame periods on procs-orbit)
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      ///< raised, refused, faulted or mismatched
  double frames_per_s = 0.0;
  double cpu_ms = 0.0;           ///< user + system over the window, workers included
  double peak_rss_mb = 0.0;
  double wire_bytes_per_frame = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up repetitions; setup_s is their median.
  [[nodiscard]] virtual int setup_reps() const = 0;
  /// Build what frames need. Called setup_reps() times; the last is kept.
  virtual void setup() = 0;
  /// Closed-loop frames for `seconds` and at least `min_samples` latency
  /// samples; a workload whose window is one call sizes it from
  /// `min_samples` alone. A non-null `spans` selects the traced variant.
  [[nodiscard]] virtual Window run(double seconds, std::size_t min_samples,
                                   SpanLog* spans) = 0;
  /// Check every frame of the last window against its reference.
  virtual void verify(Window& window) = 0;
  /// Trace mode, after both windows: replay each layer in isolation and add
  /// every per-layer metric.
  virtual void layers(SpanLog& spans, Report& report) = 0;
  /// The seed-derived choices, for the report.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
