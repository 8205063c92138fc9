// FrameService: a multi-session frame scheduler over the shared in-process
// rank pool.
//
// N client sessions each describe a (volume, method, image size, ranks,
// engine knobs) quintuple once; frame requests then carry only the per-frame
// state (camera angles + optional fault plan). The service interleaves the
// sessions' frames across a bounded executor:
//
//  * admission is bounded twice — a per-session pending-queue depth and a
//    service-wide in-flight frame cap. On a full queue the overload policy
//    decides: kRejectNew bounces the submission (submit returns nullopt),
//    kShedOldest drops the oldest pending frame of that session (its future
//    resolves with FrameStatus::kShed) and admits the new one;
//  * at most ONE frame of a session is in flight at a time, which is what
//    makes the per-session pooled EngineArena safe: rank r of every frame
//    of session s composites with arena context r, reused frame after frame
//    (scratch stays hot) and trimmed back to the session's own image budget
//    after each frame so no session ever reports another frame size's
//    buffers;
//  * sessions are served round-robin, so a flood from one session cannot
//    starve the others;
//  * each frame executes under the full PR 4/PR 9 recovery ladder
//    (run_compositing_ft): a fault injected into one session's frame is
//    resolved by repair or degraded fold-out inside that frame — other
//    sessions' frames are untouched, byte-identical to a fault-free run.
//
// This is the subsystem the explicit EngineContext refactor unblocks: with
// engine state process-global, two concurrent frames would have raced on
// the worker knob and the per-thread scratch; with per-session arenas they
// compose.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/compositor.hpp"
#include "core/cost_model.hpp"
#include "core/worker_pool.hpp"
#include "mp/fault.hpp"
#include "pvr/experiment.hpp"
#include "render/raycast.hpp"

namespace slspvr::pvr {

/// What a client declares once per session.
struct SessionConfig {
  std::string name = "session";
  vol::DatasetKind dataset = vol::DatasetKind::Cube;
  double volume_scale = 0.25;
  int image_size = 96;
  int ranks = 4;
  core::EngineConfig engine;  ///< per-session engine knobs (workers)
  core::CostModel cost_model = core::CostModel::sp2();
};

/// One frame request: the per-frame state only.
struct FrameRequest {
  float rot_x_deg = 18.0f;
  float rot_y_deg = 24.0f;
  mp::FaultPlan faults;  ///< empty = clean run
};

enum class FrameStatus {
  kDone,  ///< composited (possibly repaired/degraded — see report)
  kShed,  ///< dropped by the kShedOldest overload policy before dispatch
};

struct FrameResult {
  int session = -1;
  std::uint64_t id = 0;  ///< service-wide submission counter
  FrameStatus status = FrameStatus::kDone;
  img::Image image;      ///< gathered frame (empty when shed)
  FaultReport report;    ///< what the recovery ladder did, if anything
  double queue_ms = 0.0;    ///< admission -> dispatch
  double run_ms = 0.0;      ///< dispatch -> completion
  double latency_ms = 0.0;  ///< admission -> completion (the client's view)
};

enum class OverloadPolicy { kRejectNew, kShedOldest };

struct FrameServiceConfig {
  int max_in_flight = 2;        ///< service-wide concurrent frame cap
  std::size_t queue_depth = 8;  ///< per-session pending frames before overload
  OverloadPolicy overload = OverloadPolicy::kRejectNew;
};

/// Aggregate service counters, fixed in size however long the service runs;
/// each frame's queue, run and latency times ride its FrameResult.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;      ///< kShedOldest drops
  std::uint64_t rejected = 0;  ///< kRejectNew bounces
};

class FrameService {
 public:
  explicit FrameService(const FrameServiceConfig& config = {});
  ~FrameService();
  FrameService(const FrameService&) = delete;
  FrameService& operator=(const FrameService&) = delete;

  /// Register a session. `method` must outlive the service. Returns the
  /// session id used by submit(). Not thread-safe against submit().
  int add_session(const SessionConfig& config, const core::Compositor& method);

  /// Submit one frame. Returns the future that resolves when the frame
  /// completes (or is shed); nullopt when the kRejectNew policy bounced it.
  [[nodiscard]] std::optional<std::future<FrameResult>> submit(int session,
                                                               const FrameRequest& request);

  /// Block until every admitted frame has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// Bytes currently held by a session's pooled engine contexts (after the
  /// post-frame trim; the stale-capacity audit reads this).
  [[nodiscard]] std::size_t session_scratch_bytes(int session) const;

 private:
  struct Pending {
    std::uint64_t id = 0;
    FrameRequest request;
    std::promise<FrameResult> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Session {
    int id = -1;
    SessionConfig config;
    const core::Compositor* method = nullptr;
    core::EngineArena arena;
    std::deque<Pending> queue;
    bool in_flight = false;
    /// The session's volume, generated on its first frame. It does not
    /// depend on the camera, so a camera move re-renders from it.
    std::optional<vol::Dataset> dataset;
    /// One prepared renderer per brick of `dataset`, which they reference:
    /// declared after it, so they are destroyed first.
    render::KeptRenderers renderers;
    /// Rendered subimages cache: rebuilt only when the camera moves.
    std::unique_ptr<Experiment> cached;
    float cached_rot_x = 0.0f, cached_rot_y = 0.0f;

    Session(int session_id, const SessionConfig& c, const core::Compositor& m)
        : id(session_id), config(c), method(&m), arena(c.engine, c.ranks) {}
  };

  void executor_loop();
  void execute(Session& session, Pending pending);

  FrameServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< executors: work available / stop
  std::condition_variable drain_cv_;  ///< drain(): everything settled
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> executors_;
  std::size_t next_session_ = 0;  ///< round-robin scan start
  int in_flight_ = 0;
  bool stopping_ = false;
  std::uint64_t next_id_ = 0;
  ServiceStats stats_;
};

}  // namespace slspvr::pvr
