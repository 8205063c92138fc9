// Per-rank engine context: explicit configuration + worker pool + scratch.
//
// A rank used to be exactly one thread, and the engine's scratch arenas were
// thread_local on the strength of that invariant; the tile-parallel engine
// then kept its knobs in process globals.
// Both break down the moment two frames composite concurrently in one
// process — the frames race on configuration and share scratch. This header
// replaces them with explicit state:
//
//  * EngineConfig — the per-frame engine knobs, plain data, no globals;
//  * EngineContext — one rank's engine instance: the config, a WorkerPool
//    sized to it, and one EngineScratch per worker. plan_composite takes a
//    context and guards it against concurrent use, so two frames sharing a
//    context is a hard error instead of a data race;
//  * EngineArena — a pool of per-rank contexts reused across the frames of
//    one session (scratch capacity survives between frames; trim() bounds
//    the carryover when frame sizes shrink).
//
// workers_per_rank == 1 (the default) spawns no threads and runs every task
// inline, byte- and schedule-identical to the historical single-thread
// engine; larger counts only change who executes which rows, never the
// arithmetic or its order within a pixel.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

#include "image/image.hpp"
#include "image/pack.hpp"
#include "image/pixel.hpp"

namespace slspvr::core {

/// Explicit per-worker scratch, replacing the engine's old thread_local
/// arenas. Worker 0's `pack` and `frame` are the rank-level arenas (the
/// send-buffer arena and the depth-order ping-pong frame); every worker's
/// staging vectors back the strided gather/blend/scatter bands and the
/// misaligned-payload bounce copies of the codecs' decoders.
struct EngineScratch {
  img::PackBuffer pack;                  ///< send-buffer arena (worker 0)
  img::Image frame;                      ///< depth-order scratch frame (worker 0)
  std::vector<img::Pixel> staging;       ///< strided gather/blend staging
  std::vector<img::Pixel> staging2;      ///< second gather operand
  std::vector<img::Pixel> bounce;        ///< misaligned wire-pixel bounce
  std::vector<std::uint16_t> code_bounce;  ///< misaligned wire-code bounce
  std::vector<img::Pixel> soa_a, soa_b;  ///< BSLC SoA progression ping-pong
};

/// Fork/join pool of `workers` lanes. The constructing thread participates
/// as worker 0 in every run() call; `workers - 1` helper threads are spawned
/// up front and parked on a condition variable between tasks, so per-stage
/// fan-out costs a wakeup, not a thread spawn. Exceptions thrown by any
/// worker (e.g. img::DecodeError from a band decode) are captured and the
/// first one rethrown from run() on the caller.
class WorkerPool {
 public:
  explicit WorkerPool(int workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int workers() const noexcept { return static_cast<int>(scratch_.size()); }

  /// Run fn(worker_index) once per worker, in parallel, and join. The
  /// caller executes index 0. Not reentrant (the engine never nests bands).
  void run(const std::function<void(int)>& fn);

  [[nodiscard]] EngineScratch& scratch(int worker) {
    return scratch_[static_cast<std::size_t>(worker)];
  }

 private:
  void worker_loop(int index);

  std::vector<EngineScratch> scratch_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// Per-frame engine knobs, threaded explicitly from the caller down through
/// plan_composite and the codec DecodeSink — never read from process state.
struct EngineConfig {
  /// Intra-rank worker lanes (1 = the historical one-thread-per-rank
  /// engine; values < 1 are clamped to 1 by EngineContext).
  int workers_per_rank = 1;
};

/// One rank's engine instance: a WorkerPool sized to its config, and the
/// per-worker scratch the pool owns. Exactly one frame may use a
/// context at a time — plan_composite acquires the context for the duration
/// of the stage loop and throws if it is already held, so the concurrency
/// bug the old process globals allowed is a deterministic error now.
class EngineContext {
 public:
  explicit EngineContext(const EngineConfig& config = {})
      : pool_(config.workers_per_rank < 1 ? 1 : config.workers_per_rank) {}
  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }
  [[nodiscard]] int workers() const noexcept { return pool_.workers(); }
  [[nodiscard]] EngineScratch& scratch(int worker) { return pool_.scratch(worker); }

  /// The rank's depth-order scratch frame (worker 0's arena): reused when
  /// the dimensions match (blanked with the vectorized fill), reallocated
  /// otherwise. The engine swaps it with the rank's frame at stage end, so
  /// consecutive stages ping-pong two long-lived allocations.
  [[nodiscard]] img::Image& scratch_frame(int width, int height);

  /// Bytes currently held across every worker's scratch buffers (capacity,
  /// not size) — what a session's arena accounting reports.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;

  /// Shrink-or-reset: release any scratch buffer whose capacity exceeds
  /// what a `max_pixels`-pixel frame can need; smaller buffers are kept.
  /// Sessions call this when their frame size shrinks, so a 768² frame's
  /// arenas are not carried (and reported) under a 384² workload.
  void trim(std::int64_t max_pixels);

  /// Scoped exclusive use. Throws std::logic_error if the context is
  /// already held by another frame — the assert-no-concurrent-use guard.
  class UseGuard {
   public:
    explicit UseGuard(EngineContext& ctx);
    ~UseGuard();
    UseGuard(const UseGuard&) = delete;
    UseGuard& operator=(const UseGuard&) = delete;

   private:
    EngineContext& ctx_;
  };

 private:
  WorkerPool pool_;
  std::atomic<bool> in_use_{false};
};

/// A session's pool of per-rank engine contexts, reused frame to frame so
/// scratch capacity amortizes across a frame sequence. Grow with require()
/// on the submitting thread *before* rank threads spawn; rank r then draws
/// context(r) with no synchronization.
class EngineArena {
 public:
  explicit EngineArena(const EngineConfig& config = {}, int ranks = 0) : config_(config) {
    require(ranks);
  }

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(contexts_.size()); }

  /// Ensure at least `ranks` contexts exist (existing ones are kept).
  void require(int ranks) {
    while (static_cast<int>(contexts_.size()) < ranks) {
      contexts_.push_back(std::make_unique<EngineContext>(config_));
    }
  }

  [[nodiscard]] EngineContext& context(int rank) {
    return *contexts_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& ctx : contexts_) total += ctx->scratch_bytes();
    return total;
  }

  void trim(std::int64_t max_pixels) {
    for (const auto& ctx : contexts_) ctx->trim(max_pixels);
  }

 private:
  EngineConfig config_;
  std::vector<std::unique_ptr<EngineContext>> contexts_;
};

/// Ceil-partition [0, n) into `parts` blocks; block j is [first, last).
struct ChunkBounds {
  std::int64_t first = 0;
  std::int64_t last = 0;
  [[nodiscard]] std::int64_t count() const noexcept { return last - first; }
};
[[nodiscard]] ChunkBounds chunk_bounds(std::int64_t n, int parts, int j) noexcept;

}  // namespace slspvr::core
