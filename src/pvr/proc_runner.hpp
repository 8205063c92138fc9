// Multi-process compositing: render and composite camera-stepped frames
// with one resident worker process per rank over the socket transport
// backend.
//
// run_compositing_sequence forks one worker per rank under
// mp::Supervisor::run_sequence. Each worker connects back (bounded backoff),
// keeps one SocketTransport for its whole life, and per frame renders its
// own brick and executes the *same* compositing SPMD body the in-process
// runtime uses — every clean frame is byte-identical to the thread
// backend's. Results, traffic records and (on failure) retained stage
// snapshots are shipped to the supervisor as serialized kReport frames. A
// single-frame run is a one-frame sequence.
//
// Failure model: worker deaths here are real — a SIGKILLed, crashed, or
// silently wedged (heartbeat timeout) process is detected by the supervisor,
// broadcast to the survivors as kPeerFailed, and the frame is finished in
// the supervisor process by the shared recover_frame machinery (mid-frame
// plan repair from the shipped snapshots when possible, degraded fold-out
// recomposition otherwise). The dead rank is resurrected at the next frame
// boundary. No FaultInjector is involved.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/compositor.hpp"
#include "mp/envelope.hpp"
#include "mp/supervisor.hpp"
#include "pvr/experiment.hpp"

namespace slspvr::pvr {

/// A real crash planted in a worker process for deterministic chaos tests:
/// when `rank` reaches compositing stage `stage` it dies for real — SIGKILL
/// (instant death, link EOF), SIGSTOP (silence, caught by the supervisor's
/// heartbeat watchdog), SIGSEGV (a "crash" with core-dump semantics, so the
/// provenance string reads "killed by signal 11 (SIGSEGV)"), or a plain
/// nonzero exit() (a worker that bails without dying by signal). This is a
/// process-level raise()/_Exit(), not an injected exception.
struct ProcCrash {
  enum class Kind { kSigkill, kSigstop, kSigsegv, kExit };

  int rank = -1;
  int stage = 0;
  Kind kind = Kind::kSigkill;
  /// Fire only while rendering frame `frame` (-1 = any frame). A respawned
  /// incarnation only sees frames after the crash, so a planted crash never
  /// re-fires on it.
  int frame = -1;
  int exit_code = 7;  ///< kExit: the nonzero status to _Exit() with
};

struct ProcOptions {
  std::string transport = "unix";  ///< "unix" or "tcp" (loopback)
  std::chrono::milliseconds heartbeat_interval{25};
  std::chrono::milliseconds heartbeat_timeout{1000};
  std::chrono::milliseconds accept_deadline{10000};
  std::chrono::milliseconds drain_deadline{5000};
  /// Worker-side connect backoff (attempts × exponential delay, deadline).
  mp::RetryPolicy connect = default_connect_policy();
  /// Bounded worker inbox: a full mailbox blocks the reader thread, pushing
  /// backpressure into the kernel socket buffers (0 = unbounded).
  std::size_t inbox_capacity = 1024;
  /// Tests: listen/connect here instead of the generated address
  /// ("unix:/path" or "tcp:host:port").
  std::optional<std::string> endpoint_override;

  [[nodiscard]] static mp::RetryPolicy default_connect_policy() {
    mp::RetryPolicy policy;
    policy.max_attempts = 60;
    policy.base_delay = std::chrono::milliseconds{2};
    policy.deadline = std::chrono::milliseconds{8000};
    return policy;
  }
};

/// A sequence run (Supervisor::run_sequence): workers stay resident across
/// frames, the camera steps per frame, and a rank that dies mid-frame is
/// resurrected at the next frame boundary.
struct SequenceProcOptions {
  ProcOptions proc;  ///< transport/backoff/heartbeat knobs
  int frames = 1;
  /// Per-frame camera step (degrees), as in examples/rotation_sweep: frame f
  /// renders at (rot_x + f·rot_step_x, rot_y + f·rot_step_y). Every frame's
  /// geometry is a pure function of (volume, partition, camera), which is
  /// what lets a respawned worker re-derive its brick deterministically.
  float rot_step_x = 7.0f;
  float rot_step_y = 11.0f;
  mp::RespawnPolicy respawn;
  /// Frame-qualified planted crashes (each fires at most once; a respawned
  /// incarnation never replays an already-crashed frame).
  std::vector<ProcCrash> crashes;
  /// How long a worker waits for the next kFrameStart before giving up.
  std::chrono::milliseconds frame_deadline{60000};
};

/// Outcome of a sequence run: one FtMethodResult per frame (each clean
/// frame's final_image byte-identical to the in-process render of that
/// view), plus an aggregate FaultReport carrying the resurrection
/// accounting (respawns, per-rank generations, permanently demoted ranks).
struct SequenceRunResult {
  std::vector<FtMethodResult> frames;
  FaultReport report;  ///< aggregate across the whole sequence
};

/// Render + composite `opts.frames` camera-stepped frames of `dataset`
/// (partitioned per `base`) with one resident worker process per rank. Each
/// worker renders only its own brick per frame and composites SPMD exactly
/// as run_compositing would, with an engine context built from
/// `base.engine`, so fault-free frames are byte-identical to the in-process
/// result for the same view (Experiment::run). A frame struck by a real worker
/// death is finished in the parent via the shared recover_frame machinery;
/// the dead rank is respawned under `opts.respawn` and the next frame runs
/// at full strength. Ranks past their respawn budget are demoted for good:
/// later frames are folded out degraded from the survivors' shipped
/// subimages.
[[nodiscard]] SequenceRunResult run_compositing_sequence(const core::Compositor& method,
                                                         const vol::Dataset& dataset,
                                                         const ExperimentConfig& base,
                                                         const SequenceProcOptions& opts);

}  // namespace slspvr::pvr
