// Supervisor: the parent process of a multi-process (socket backend) run.
//
// The supervisor owns the hub of the hub-and-spoke topology. One call to
// Supervisor::run_sequence
//
//  1. listens at the configured endpoint (Unix socket or TCP loopback, with
//     ephemeral-port resolution),
//  2. forks one resident worker process per rank — workers run the
//     caller-provided body, which connects back with bounded backoff, says
//     kHello with its incarnation generation, and runs one compositing SPMD
//     frame over a SocketTransport per kFrameStart,
//  3. routes kData frames rank-to-rank in a single nonblocking poll loop
//     (per-link incremental FrameReaders; outbound queues resume partial
//     writes), preserving per-channel FIFO order, and gates every frame
//     with a kFrameStart roster broadcast and a kFrameDone barrier,
//  4. watches liveness: a worker whose heartbeats go silent past
//     heartbeat_timeout, whose connection resets or EOFs before its
//     kGoodbye, or that a SIGKILL tears down, is promoted to a *real*
//     failure — mid-frame the supervisor broadcasts kPeerFailed so every
//     survivor aborts with the same PeerFailedError the in-process runtime
//     raises (feeding the existing snapshot/repair/degrade machinery),
//  5. resurrects a dead rank at the next frame boundary under the respawn
//     policy (fork with generation+1, jittered backoff, circuit breaker),
//     and refuses any frame that carries a dead incarnation's generation,
//     and
//  6. reaps children with waitpid, mapping exit status onto the failure
//     record (killed-by-signal provenance included), SIGKILLing stragglers
//     past the drain deadline so the parent always terminates.
//
// A single-frame run is a one-frame sequence: no resurrection follows a
// death in the last frame.
//
// The supervisor never interprets report payloads: kReport frames are
// collected verbatim per frame for the pvr layer, which deserializes
// results, snapshots and failure details and finishes each frame from the
// survivors.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mp/socket.hpp"

namespace slspvr::mp {

/// Worker exit codes (the body's return value; the child exits with it).
inline constexpr int kWorkerExitClean = 0;
/// Aborted after another rank's failure (PeerFailedError): a secondary
/// casualty, not a new fault.
inline constexpr int kWorkerExitAborted = 3;
/// Could not reach the supervisor (connect backoff exhausted).
inline constexpr int kWorkerExitConnect = 4;
/// Any other error.
inline constexpr int kWorkerExitError = 5;

/// One observable protocol decision of the supervisor poll loop. The model
/// checker (src/model) replays its counterexample schedules against the real
/// supervisor and asserts these events arrive in a protocol-legal order, so
/// the hand-written model stays pinned to this code; slspvr-model --mutants
/// --replay also needs every kind (its kEventKinds lists them) from some
/// replay.
struct ProtocolEvent {
  enum class Kind {
    kPromoted,           ///< kHello accepted; rank joined the hub
    kFailureRecorded,    ///< a real failure recorded + kPeerFailed broadcast
    kShutdownBroadcast,  ///< kShutdown queued to every open link
    kGoodbye,            ///< kGoodbye received; rank is done
    kRespawned,          ///< a dead rank forked again (count = new generation)
    kDemoted,            ///< circuit breaker opened (count = respawns burned)
    kStaleRejected,      ///< frame from a dead incarnation dropped
                         ///< (count = the stale generation)
    kFrameOpened,        ///< kFrameStart broadcast (rank −1, count = frame)
    kFrameSettled,       ///< every live rank finished a frame (count = frame)
  };
  Kind kind = Kind::kPromoted;
  int rank = -1;       ///< the rank the event is about
  int count = 0;       ///< kind-specific number (see each kind)
  std::string detail;  ///< kFailureRecorded: the provenance string
};

struct SupervisorOptions {
  Endpoint endpoint;  ///< where to listen; tcp port 0 = ephemeral
  int procs = 0;
  std::chrono::milliseconds heartbeat_timeout{1000};
  std::chrono::milliseconds accept_deadline{10000};
  /// After all ranks finished or failed: how long to wait for goodbyes to
  /// drain and children to exit before SIGKILLing stragglers.
  std::chrono::milliseconds drain_deadline{5000};
  /// Optional instrumentation hook, invoked synchronously from the (single
  /// threaded) poll loop. Must not throw and must not call back into the
  /// supervisor.
  std::function<void(const ProtocolEvent&)> observer;
};

/// One real failure the supervisor observed, with transport provenance
/// ("killed by signal 9", "heartbeat timeout: silent for 1042 ms",
/// "connection reset by peer", ...).
struct WorkerFailure {
  int rank = -1;
  int stage = 0;  ///< last stage heard via heartbeat
  std::string what;
};

/// A kReport frame shipped by a worker, verbatim (kind = the frame tag).
struct WorkerReport {
  int rank = -1;
  int kind = 0;
  std::vector<std::byte> payload;
};

/// Respawn knobs. A dead child is forked again at the next frame boundary
/// under capped, jittered exponential backoff (mp::backoff_delay); after
/// `max_respawns_per_rank` resurrections the circuit breaker opens and the
/// rank is permanently demoted — subsequent frames finish degraded over the
/// survivors, the existing bottom rung.
struct RespawnPolicy {
  int max_respawns_per_rank = 2;
  std::chrono::milliseconds base_delay{5};  ///< first backoff step (jittered)
  /// How long a respawned child gets to connect back and say hello before
  /// the attempt counts as a failed resurrection.
  std::chrono::milliseconds rejoin_deadline{3000};
};

struct SequenceOptions {
  int frames = 1;  ///< rendering frames; a frame boundary sits between each
  RespawnPolicy respawn;
};

/// Everything the supervisor observed for one rendering frame: the failures
/// that struck during it, every report shipped during it, and the roster it
/// ran under (per-rank incarnation generations + the demoted set).
struct FrameOutcome {
  int frame = -1;
  std::vector<WorkerFailure> failures;
  /// Failures recorded *between* the previous frame and this one (failed
  /// resurrections, rejoin timeouts). Provenance only — the ranks involved
  /// were live again (or demoted) by the time this frame opened, so these
  /// must not mark the frame itself as faulted.
  std::vector<WorkerFailure> boundary_failures;
  std::vector<WorkerReport> reports;
  std::vector<std::uint32_t> generations;  ///< per rank, as of this frame
  std::vector<int> demoted;                ///< ranks folded out for good
};

struct SequenceOutcome {
  std::vector<FrameOutcome> frames;
  Endpoint endpoint;
  double wall_ms = 0.0;
  int respawns = 0;                        ///< successful resurrections
  std::vector<std::uint32_t> generations;  ///< final per-rank incarnation
  std::vector<int> demoted;                ///< permanently demoted ranks
  std::uint64_t stale_rejects = 0;  ///< dead-incarnation frames refused
  [[nodiscard]] bool clean() const noexcept {
    for (const FrameOutcome& f : frames) {
      if (!f.failures.empty()) return false;
    }
    return true;
  }
};

/// Roster carried by every kFrameStart payload: the per-rank incarnation
/// generations this frame runs under plus the permanently demoted ranks —
/// the failure history a respawned worker missed. Workers reject kData
/// whose envelope generation disagrees with the roster.
struct FrameRoster {
  int frame = -1;
  std::vector<std::uint32_t> generations;
  std::vector<int> demoted;
};

[[nodiscard]] std::vector<std::byte> pack_roster(const FrameRoster& roster);
/// Throws TransportError on a malformed payload.
[[nodiscard]] FrameRoster parse_roster(int frame, std::span<const std::byte> payload);

class Supervisor {
 public:
  /// Runs in the forked child with its rank, its incarnation generation
  /// (its hello and every envelope it emits carry it) and the (resolved)
  /// endpoint to connect back to; returns the worker's exit code. Never
  /// returns to the caller's code path — the child exits with the returned
  /// code.
  using SequenceWorkerBody =
      std::function<int(int rank, std::uint32_t generation, const Endpoint& endpoint)>;

  /// Fork `opts.procs` resident workers and supervise them across
  /// `seq.frames` rendering frames, gated by kFrameStart/kFrameDone
  /// barriers. A worker that dies mid-frame leaves the frame to the
  /// in-frame recovery ladder (the survivors abort and ship evidence); at
  /// the frame boundary the supervisor resurrects the rank under
  /// `seq.respawn` — fork with generation+1, jittered backoff, circuit
  /// breaker — so the next frame runs at full strength again. Throws
  /// TransportError only for supervisor-local setup failures (cannot
  /// listen, fork failed); per-worker trouble is reported in the outcome.
  [[nodiscard]] static SequenceOutcome run_sequence(const SupervisorOptions& opts,
                                                    const SequenceOptions& seq,
                                                    const SequenceWorkerBody& body);
};

}  // namespace slspvr::mp
