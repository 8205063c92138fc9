// Worker-process side of the socket transport backend.
//
// A SocketTransport lives inside one resident worker process and owns that
// worker's single stream link to the supervisor (hub-and-spoke: rank-to-rank
// traffic is routed by the parent, so P workers need P connections, not P²).
// It outlives the rendering frames: each frame binds a fresh CommContext
// between begin_frame() and end_frame(), around the supervisor's
// kFrameStart/kFrameDone barrier. Three concerns run on it:
//
//  * submit() — the Transport interface: pack the stamped Message as a
//    kData frame (SLP1-enveloped, CRC32C-checked) and write it out under
//    the link's write lock;
//  * a reader thread — unframes inbound traffic: kFrameStart rosters wake
//    await_frame_start(); kData frames whose sender generation matches the
//    roster become mailbox deposits for the local rank (the bounded mailbox
//    pushes backpressure down into the kernel socket buffers); kPeerFailed
//    frames poison the frame's context so the compositing thread aborts
//    with the same PeerFailedError the in-process runtime raises; and a
//    supervisor EOF or reset is itself promoted to a failure — a silently
//    dead parent can never wedge the worker;
//  * a heartbeat thread — every heartbeat_interval writes a kHeartbeat
//    frame carrying the rank's current compositing stage, giving the
//    supervisor per-link liveness (a SIGSTOPped or wedged worker goes
//    silent and is promoted to failed after the configured timeout).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mp/communicator.hpp"
#include "mp/socket.hpp"
#include "mp/supervisor.hpp"
#include "mp/transport.hpp"

namespace slspvr::mp {

class SocketTransport final : public Transport {
 public:
  struct Options {
    std::string backend = "unix";  ///< reported by name(): "unix" or "tcp"
    std::chrono::milliseconds heartbeat_interval{25};
    /// This worker's incarnation: stamped into the SLP1 envelope of every
    /// outbound frame so the supervisor can tell this process from its dead
    /// predecessor on the same rank.
    std::uint32_t generation = 0;
  };

  /// `link` is the established connection to the supervisor (kHello
  /// already sent by the caller). Call start() to launch the reader and
  /// heartbeat threads.
  SocketTransport(int rank, Fd link, Options opts);
  ~SocketTransport() override;

  [[nodiscard]] std::string_view name() const noexcept override { return opts_.backend; }
  [[nodiscard]] bool shared_memory() const noexcept override { return false; }
  void submit(int dest, Message msg) override;

  void start();

  /// Record the rank's current compositing stage; the next heartbeat
  /// carries it (wired to CommContext::stage_observer).
  void note_stage(int stage) noexcept { stage_.store(stage, std::memory_order_relaxed); }

  /// Ship a kReport frame (serialized results, snapshots, failure info);
  /// `kind` is the report discriminator echoed in the frame tag. Taken by
  /// value: a caller done with its buffer moves it into the frame.
  void send_report(int kind, std::vector<std::byte> payload);

  /// Announce a *primary* failure of this rank (its own exception, not a
  /// peer's): the supervisor records it and broadcasts kPeerFailed so the
  /// survivors abort, while this worker stays connected to ship its failure
  /// report and snapshots before saying goodbye. Never used for secondary
  /// PeerFailedError aborts — those are consequences of an already-known
  /// failure.
  void announce_failure(int stage, const std::string& reason);

  /// Finish the session: send kGoodbye, then wait (bounded by `drain`) for
  /// the supervisor's kShutdown so the parent never writes into a closed
  /// socket, then stop both threads. Safe to call once; the destructor
  /// force-stops if the caller never did.
  void goodbye_and_wait(std::chrono::milliseconds drain);

  // --- frames ------------------------------------------------------------

  /// Block until the supervisor opens the next rendering frame. Returns the
  /// kFrameStart roster, or nullopt when the sequence is over (kShutdown)
  /// or the link died / `deadline` expired — check link_lost() to tell the
  /// clean case from the broken one.
  [[nodiscard]] std::optional<FrameRoster> await_frame_start(std::chrono::milliseconds deadline);

  /// Bind this frame's CommContext: installs a non-owning view of this
  /// transport as ctx->transport, and inbound kData/kPeerFailed start
  /// landing in it. Between begin_frame and end_frame the reader thread may
  /// hold a reference to `ctx`, so it must stay alive until end_frame
  /// returns.
  void begin_frame(CommContext* ctx);

  /// Close the frame: send kFrameDone (tag = frame, payload[0] = aborted)
  /// and unbind the context. After this returns the reader is guaranteed to
  /// never touch the frame's CommContext again — safe to destroy it.
  void end_frame(int frame, bool aborted);

  /// True once the supervisor link died (EOF, reset, stream damage) — as
  /// opposed to an orderly kShutdown.
  [[nodiscard]] bool link_lost() const noexcept {
    return link_lost_.load(std::memory_order_relaxed);
  }

 private:
  void write_frame(Frame& frame);
  void reader_loop();
  void heartbeat_loop();
  void stop_threads();

  /// Guards ctx_ and roster_: the reader holds it across a delivery,
  /// end_frame takes it to unbind — so a frame's CommContext can never be
  /// destroyed under an in-flight deposit. (A depositor blocked on a full
  /// mailbox cannot wedge end_frame: failure poisoning lifts the mailbox
  /// bound, and a clean frame drained its traffic.)
  std::mutex ctx_mutex_;
  CommContext* ctx_ = nullptr;  ///< the bound frame's context, if any
  FrameRoster roster_;          ///< current frame's roster
  /// Generation-checked kData/kPeerFailed that arrived after kFrameStart but
  /// before begin_frame bound the frame's context (a peer that finished
  /// rendering first); begin_frame replays them in arrival order.
  std::vector<Frame> early_;
  int rank_;
  Fd link_;
  Options opts_;

  std::mutex write_mutex_;  ///< serializes submit/heartbeat/report writes
  std::atomic<int> stage_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> link_lost_{false};

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool shutdown_received_ = false;  ///< supervisor sent kShutdown (or link died)
  std::optional<FrameRoster> pending_roster_;  ///< kFrameStart not yet consumed

  std::thread reader_;
  std::thread heart_;
};

}  // namespace slspvr::mp
