// Benchmark support: clocks, seeded choices, honest percentiles, frame
// checks, host warm-up, resource usage, an in-memory span log and the
// metric report. Nothing here touches the program under test beyond the
// public image type.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "image/image.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks

/// steady_clock (CLOCK_MONOTONIC: shared by forked workers) in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] inline double ms_between(std::int64_t t0, std::int64_t t1) noexcept {
  return static_cast<double>(t1 - t0) / 1e6;
}

// ---------------------------------------------------------------------------
// Seeded choices (splitmix64): the workload seed only ever picks camera ring
// phases.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, n).
  int below(int n) noexcept;

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Percentiles

/// Samples that must lie above a reported percentile's rank. A tail figure
/// resting on fewer is the maximum of a small sample, not a percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile p in (0, 100) of `samples`: the value of rank
/// ceil(p/100 * n). Empty when fewer than `min_beyond` samples rank above it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double p,
                                               std::size_t min_beyond = kMinBeyond);

/// Median without the tail rule (set-up repetitions, replay medians).
[[nodiscard]] double median(std::vector<double> samples);

/// Time-ordered samples per block for window percentiles: the fewest that
/// keep ten beyond a p90.
inline constexpr std::size_t kBlock = 100;

/// Cut time-ordered `samples` into consecutive blocks of `block` (a shorter
/// tail joins the last block), take each block's percentile and return the
/// median over blocks: a burst of host noise moves one block, not the
/// result. Fewer than 2 * block samples form one block, i.e. the plain
/// percentile. Empty when a block lacks the samples for its percentile.
[[nodiscard]] std::optional<double> blocked_percentile(const std::vector<double>& samples,
                                                       double p, std::size_t block = kBlock);

/// The same cut, for a rate: the median over blocks of block size / block sum.
[[nodiscard]] double blocked_rate(const std::vector<double>& samples,
                                  std::size_t block = kBlock);

// ---------------------------------------------------------------------------
// Frame checks

/// Byte identity: equal dimensions and identical pixel bytes (so -0.0f and
/// 0.0f differ, and a NaN equals itself bit for bit).
[[nodiscard]] bool bytes_equal(const slspvr::img::Image& a, const slspvr::img::Image& b);

/// 128-bit digest of the dimensions and pixel bytes, for frames that cannot
/// all be kept until verification.
struct FrameDigest {
  std::uint64_t lo = 0, hi = 0;
  friend bool operator==(const FrameDigest&, const FrameDigest&) = default;
};
[[nodiscard]] FrameDigest digest(const slspvr::img::Image& image);

// ---------------------------------------------------------------------------
// Host warm-up

/// Spin hardware_concurrency() threads on a register-only loop for
/// `seconds`. Returns the median time of one fixed chunk of iterations over
/// the second half of the spin (host.spin_ms): a drift in it between two
/// sets of runs is the host, not the program.
[[nodiscard]] double warm_host(double seconds);

// ---------------------------------------------------------------------------
// Resource usage

struct Usage {
  double cpu_ms = 0.0;       ///< user + system of this process
  double child_cpu_ms = 0.0; ///< user + system of reaped children
  double rss_mb = 0.0;       ///< peak RSS of this process
  double child_rss_mb = 0.0; ///< peak RSS of the largest reaped child
};
[[nodiscard]] Usage usage();

/// Cumulative time the hypervisor ran something else while this VM's vCPUs
/// wanted to run (/proc/stat steal, summed over vCPUs), in ms; 0 where the
/// kernel does not report it. On a shared host, frame latency rises with it.
[[nodiscard]] double host_steal_ms();

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t id = 0, parent = -1;  ///< parent -1: a root span
  std::int64_t frame = -1;           ///< spans of one frame share it
  int lane = 0;                      ///< rank, brick or client thread
  [[nodiscard]] double ms() const noexcept { return ms_between(start_ns, end_ns); }
};

/// In-memory span store, written out once at exit. Thread-safe.
class SpanLog {
 public:
  [[nodiscard]] std::int64_t next_id();
  void add(const Span& span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON (Perfetto loads it): tid = lane.
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

/// Times one call. With a log it records a span on close(); without one it
/// only reads the clock, so untraced runs pay two clock reads.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t frame, std::int64_t parent, int lane);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return span_.id; }
  /// End the span (idempotent) and return its duration in ms.
  double close();

 private:
  SpanLog* log_;
  Span span_;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind a percentile (0: not a percentile)
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n = 0);
  /// Window percentile (blocked_percentile); too few samples is an error.
  void add_percentile(const std::string& name, const std::vector<double>& samples, double p,
                      const std::string& unit);
  void note(const std::string& line);  ///< human-readable line for stderr
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< every non-frame check passed
  /// Human-readable report on stderr, then the JSON result line on stdout.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
