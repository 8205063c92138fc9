#include "model/replay.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "check/trace_check.hpp"
#include "mp/communicator.hpp"
#include "mp/errors.hpp"
#include "mp/fault.hpp"
#include "mp/socket.hpp"
#include "mp/socket_transport.hpp"
#include "mp/trace.hpp"
#include "pvr/serialize.hpp"

namespace slspvr::model {

namespace {

/// kReport discriminator for the replay worker's shipped trace slot (well
/// clear of the pvr runner's 1..4 range; the supervisor forwards verbatim).
constexpr int kReportReplayTrace = 42;

constexpr std::chrono::milliseconds kDrain{3000};

}  // namespace

ReplaySchedule derive_schedule(const SupervisionModel& model, const Counterexample& cex) {
  const Scenario& sc = model.scenario();
  ReplaySchedule out;
  out.scenario = sc.name + (sc.mutant == Mutant::kNone
                                ? std::string()
                                : std::string(" + mutant ") + mutant_name(sc.mutant));
  out.workers = sc.workers;
  out.stages = sc.stages;
  out.mailbox_capacity = static_cast<std::size_t>(sc.mailbox_capacity);
  out.connect_delay_ms.assign(static_cast<std::size_t>(sc.workers), 0);

  // Connect order -> staggered delays: a rank whose connect the trace
  // interleaves after other actors' steps joins late for real, reopening
  // the parking / failure-replay window the trace exercised.
  std::vector<bool> connected(static_cast<std::size_t>(sc.workers), false);
  std::vector<int> ops_done(static_cast<std::size_t>(sc.workers), 0);
  int foreign_steps = 0;  // steps by already-connected actors seen so far
  for (const Action& act : cex.actions) {
    switch (act.kind) {
      case SupervisionModel::aConnect:
        out.connect_delay_ms[static_cast<std::size_t>(act.a)] =
            std::min(600, 150 * foreign_steps);
        connected[static_cast<std::size_t>(act.a)] = true;
        break;
      case SupervisionModel::aSend:
      case SupervisionModel::aRecv:
        ++ops_done[static_cast<std::size_t>(act.a)];
        ++foreign_steps;
        break;
      case SupervisionModel::aCrash:
        out.crash_rank = act.a;
        out.crash_after_ops = ops_done[static_cast<std::size_t>(act.a)];
        out.crash_before_connect = !connected[static_cast<std::size_t>(act.a)];
        ++foreign_steps;
        break;
      case SupervisionModel::aStall:
        out.stall_rank = act.a;
        out.stall_after_ops = ops_done[static_cast<std::size_t>(act.a)];
        ++foreign_steps;
        break;
      case SupervisionModel::aSupReap:
      case SupervisionModel::aWatchdog:
        ++foreign_steps;
        break;
      default:
        break;
    }
  }
  // Ranks the trace never connected joined after everything else happened.
  for (std::size_t w = 0; w < connected.size(); ++w) {
    if (!connected[w] && static_cast<int>(w) != out.crash_rank) {
      out.connect_delay_ms[w] = 600;
    }
  }
  return out;
}

ReplaySchedule derive_schedule(const RetransmitModel& model, const Counterexample& cex) {
  ReplaySchedule out;
  const Scenario& sc = model.scenario();
  out.scenario = sc.name + (sc.mutant == Mutant::kNone
                                ? std::string()
                                : std::string(" + mutant ") + mutant_name(sc.mutant));
  out.workers = 2;
  out.messages = sc.messages;
  for (const Action& act : cex.actions) {
    if (act.kind == RetransmitModel::eDrop) ++out.drops;
    if (act.kind == RetransmitModel::eCorrupt) ++out.corruptions;
  }
  return out;
}

ReplaySchedule derive_schedule(const ResurrectionModel& model, const Counterexample& cex) {
  const Scenario& sc = model.scenario();
  ReplaySchedule out;
  out.scenario = sc.name + (sc.mutant == Mutant::kNone
                                ? std::string()
                                : std::string(" + mutant ") + mutant_name(sc.mutant));
  out.workers = sc.workers;
  out.frames = sc.frames;
  out.respawn_budget = sc.respawn_budget;
  out.connect_delay_ms.assign(static_cast<std::size_t>(sc.workers), 0);

  // Same projection as the supervision schedule, with two sequence twists:
  // only a rank's *first* aConnect sets its startup delay (a respawned
  // incarnation's reconnect is the supervisor's business, not ours), and
  // ring ops accumulate across frames so the crash trap lands in the same
  // frame the trace crashed in. Only the first aCrash is planted — the real
  // runtime's respawn path is exactly what the replay is checking.
  std::vector<bool> connected(static_cast<std::size_t>(sc.workers), false);
  std::vector<int> ops_done(static_cast<std::size_t>(sc.workers), 0);
  int foreign_steps = 0;
  for (const Action& act : cex.actions) {
    switch (act.kind) {
      case ResurrectionModel::aConnect:
        if (!connected[static_cast<std::size_t>(act.a)]) {
          out.connect_delay_ms[static_cast<std::size_t>(act.a)] =
              std::min(600, 150 * foreign_steps);
          connected[static_cast<std::size_t>(act.a)] = true;
        }
        break;
      case ResurrectionModel::aSend:
      case ResurrectionModel::aRecv:
        ++ops_done[static_cast<std::size_t>(act.a)];
        ++foreign_steps;
        break;
      case ResurrectionModel::aCrash:
        if (out.crash_rank < 0) {
          out.crash_rank = act.a;
          out.crash_after_ops = ops_done[static_cast<std::size_t>(act.a)];
          out.crash_before_connect = !connected[static_cast<std::size_t>(act.a)];
        }
        ++foreign_steps;
        break;
      case ResurrectionModel::aSupReap:
      case ResurrectionModel::aRespawn:
      case ResurrectionModel::aFrameOpen:
      case ResurrectionModel::aSettle:
        ++foreign_steps;
        break;
      default:
        break;
    }
  }
  for (std::size_t w = 0; w < connected.size(); ++w) {
    if (!connected[w] && static_cast<int>(w) != out.crash_rank) {
      out.connect_delay_ms[w] = 600;
    }
  }
  return out;
}

std::string ReplayReport::summary() const {
  if (ok) return "replay conformant (" + std::to_string(events.size()) + " events)";
  std::string out = "replay NOT conformant:";
  for (const std::string& p : problems) out += "\n  - " + p;
  return out;
}

namespace {

/// The replay worker: the model's ring program, executed for real over a
/// SocketTransport (mirrors pvr's worker_main shape).
int replay_worker(int rank, const mp::Endpoint& endpoint, const ReplaySchedule& rs) {
  const int W = rs.workers;
  const auto delay = rs.connect_delay_ms[static_cast<std::size_t>(rank)];
  if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  if (rank == rs.crash_rank && rs.crash_before_connect) (void)::raise(SIGKILL);

  mp::Fd link;
  try {
    mp::RetryPolicy policy;
    policy.max_attempts = 60;
    policy.base_delay = std::chrono::milliseconds{2};
    policy.deadline = std::chrono::milliseconds{8000};
    link = mp::connect_with_backoff(endpoint, policy, rank);
  } catch (...) {
    return mp::kWorkerExitConnect;
  }

  try {
    {
      mp::Frame hello;
      hello.kind = mp::FrameKind::kHello;
      hello.source = rank;
      mp::send_all(link.get(), mp::pack_frame(hello));
    }
    mp::CommContext ctx(W);
    ctx.mailboxes[static_cast<std::size_t>(rank)].set_capacity(rs.mailbox_capacity);
    auto transport = std::make_unique<mp::SocketTransport>(
        &ctx, rank, std::move(link), mp::SocketTransport::Options{});
    mp::SocketTransport* sock = transport.get();
    ctx.transport = std::move(transport);
    sock->start();
    mp::Comm comm(&ctx, rank);

    int ops = 0;
    const auto trap = [&] {
      if (rank == rs.crash_rank && !rs.crash_before_connect && ops == rs.crash_after_ops) {
        (void)::raise(SIGKILL);
      }
      if (rank == rs.stall_rank && ops == rs.stall_after_ops) (void)::raise(SIGSTOP);
    };

    const auto ship_trace = [&] {
      pvr::ByteWriter w;
      const auto& sent = ctx.trace.sent(rank);
      w.u32(static_cast<std::uint32_t>(sent.size()));
      for (const mp::MessageRecord& rec : sent) pvr::write_record(w, rec);
      const auto& received = ctx.trace.received(rank);
      w.u32(static_cast<std::uint32_t>(received.size()));
      for (const mp::MessageRecord& rec : received) pvr::write_record(w, rec);
      const auto& clock = ctx.trace.clock(rank);
      w.u32(static_cast<std::uint32_t>(clock.size()));
      for (const std::uint64_t c : clock) w.u64(c);
      sock->send_report(kReportReplayTrace, w.take());
    };

    try {
      for (int round = 0; round < rs.stages; ++round) {
        comm.set_stage(round);
        trap();
        const std::uint32_t token =
            static_cast<std::uint32_t>(round) << 8 | static_cast<std::uint32_t>(rank);
        comm.send_value((rank + 1) % W, round, token);
        ++ops;
        trap();
        const auto got = comm.recv_value<std::uint32_t>((rank - 1 + W) % W, round);
        const std::uint32_t want =
            static_cast<std::uint32_t>(round) << 8 |
            static_cast<std::uint32_t>((rank - 1 + W) % W);
        if (got != want) return mp::kWorkerExitError;  // payload integrity
        ++ops;
        trap();
      }
      ship_trace();
      sock->goodbye_and_wait(kDrain);
      return mp::kWorkerExitClean;
    } catch (const mp::PeerFailedError&) {
      ship_trace();
      sock->goodbye_and_wait(kDrain);
      return mp::kWorkerExitAborted;
    }
  } catch (...) {
    return mp::kWorkerExitError;
  }
}

void verify_events(const ReplaySchedule& rs, const std::vector<mp::ProtocolEvent>& events,
                   std::vector<std::string>& problems) {
  using Kind = mp::ProtocolEvent::Kind;
  const auto W = static_cast<std::size_t>(rs.workers);
  std::vector<int> promotions(W, 0);
  std::vector<int> parked_before_promotion(W, 0);
  std::vector<int> backlog_replayed(W, 0);
  int shutdowns = 0;
  int failures_so_far = 0;
  for (const mp::ProtocolEvent& ev : events) {
    const auto r = static_cast<std::size_t>(std::max(ev.rank, 0));
    switch (ev.kind) {
      case Kind::kPromoted:
        if (++promotions[r] > 1) {
          problems.push_back("rank " + std::to_string(ev.rank) + " promoted twice");
        }
        break;
      case Kind::kParked:
        if (promotions[r] > 0) {
          problems.push_back("frame parked for already-promoted rank " +
                             std::to_string(ev.rank));
        } else {
          ++parked_before_promotion[r];
        }
        break;
      case Kind::kBacklogReplayed:
        backlog_replayed[r] += ev.count;
        if (promotions[r] == 0) {
          problems.push_back("backlog replayed before promotion of rank " +
                             std::to_string(ev.rank));
        }
        break;
      case Kind::kFailureReplayed:
        if (ev.count > failures_so_far) {
          problems.push_back("rank " + std::to_string(ev.rank) + " got " +
                             std::to_string(ev.count) + " replayed failures but only " +
                             std::to_string(failures_so_far) + " were recorded");
        }
        break;
      case Kind::kFailureRecorded:
        ++failures_so_far;
        break;
      case Kind::kShutdownBroadcast:
        ++shutdowns;
        break;
      case Kind::kGoodbye:
        break;
      case Kind::kRespawned:
      case Kind::kDemoted:
      case Kind::kStaleRejected:
      case Kind::kFrameOpened:
      case Kind::kFrameSettled:
        // Sequence-mode machinery must never wake up under Supervisor::run.
        problems.push_back("sequence-mode event in a single-frame run (rank " +
                           std::to_string(ev.rank) + ")");
        break;
    }
  }
  for (std::size_t r = 0; r < W; ++r) {
    if (promotions[r] > 0 && backlog_replayed[r] != parked_before_promotion[r]) {
      problems.push_back("rank " + std::to_string(r) + ": " +
                         std::to_string(parked_before_promotion[r]) +
                         " frames parked but " + std::to_string(backlog_replayed[r]) +
                         " replayed at promotion");
    }
  }
  if (shutdowns != 1) {
    problems.push_back("expected exactly one shutdown broadcast, saw " +
                       std::to_string(shutdowns));
  }
}

/// Non-owning Transport adapter for the sequence replay worker: the
/// SocketTransport outlives each frame's CommContext (same shape as the pvr
/// runner's file-local BorrowedTransport).
class BorrowedSocketTransport final : public mp::Transport {
 public:
  explicit BorrowedSocketTransport(mp::SocketTransport* inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool shared_memory() const noexcept override { return false; }
  void submit(int dest, mp::Message msg) override { inner_->submit(dest, std::move(msg)); }

 private:
  mp::SocketTransport* inner_;
};

/// The sequence replay worker: the ResurrectionModel's per-frame ring
/// program executed for real — connect, hello with the generation, then
/// kFrameStart -> one ring exchange -> kFrameDone per frame (mirrors the
/// pvr sequence_worker_main shape). The planted crash traps only the first
/// incarnation; the respawned one must sail through, which is exactly the
/// recovery behaviour the replay pins down.
int sequence_replay_worker(int rank, std::uint32_t generation, const mp::Endpoint& endpoint,
                           const ReplaySchedule& rs) {
  const int W = rs.workers;
  if (generation == 0) {
    const auto delay = rs.connect_delay_ms[static_cast<std::size_t>(rank)];
    if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    if (rank == rs.crash_rank && rs.crash_before_connect) (void)::raise(SIGKILL);
  }

  mp::Fd link;
  try {
    mp::RetryPolicy policy;
    policy.max_attempts = 60;
    policy.base_delay = std::chrono::milliseconds{2};
    policy.deadline = std::chrono::milliseconds{8000};
    link = mp::connect_with_backoff(endpoint, policy, rank);
  } catch (...) {
    return mp::kWorkerExitConnect;
  }

  try {
    {
      mp::Frame hello;
      hello.kind = mp::FrameKind::kHello;
      hello.source = rank;
      hello.generation = generation;
      mp::send_all(link.get(), mp::pack_frame(hello));
    }
    mp::SocketTransport::Options topts;
    topts.generation = generation;
    topts.sequence = true;
    mp::SocketTransport sock(/*ctx=*/nullptr, rank, std::move(link), std::move(topts));
    sock.start();

    int ops = 0;  // cumulative across frames, like the model's trace ops
    const auto trap = [&] {
      if (generation == 0 && rank == rs.crash_rank && !rs.crash_before_connect &&
          ops == rs.crash_after_ops) {
        (void)::raise(SIGKILL);
      }
    };

    for (;;) {
      const std::optional<mp::FrameRoster> roster =
          sock.await_frame_start(std::chrono::milliseconds{8000});
      if (!roster) break;  // kShutdown, dead link, or frame deadline
      const int frame = roster->frame;

      if (!roster->demoted.empty()) {
        // Degraded roster: no full-strength ring anymore, matching the
        // model's pc-skips-the-exchange degraded frames.
        sock.end_frame(frame, /*aborted=*/false);
        continue;
      }

      mp::CommContext ctx(W);
      ctx.transport = std::make_unique<BorrowedSocketTransport>(&sock);
      sock.begin_frame(&ctx);
      bool aborted = false;
      try {
        mp::Comm comm(&ctx, rank);
        comm.set_stage(0);
        trap();
        const std::uint32_t token = static_cast<std::uint32_t>(frame) << 16 |
                                    generation << 8 | static_cast<std::uint32_t>(rank);
        comm.send_value((rank + 1) % W, frame, token);
        ++ops;
        trap();
        const int src = (rank - 1 + W) % W;
        const auto got = comm.recv_value<std::uint32_t>(src, frame);
        // The expected payload carries the *sender's roster generation*: a
        // stale incarnation's leftover would show up right here.
        const std::uint32_t want =
            static_cast<std::uint32_t>(frame) << 16 |
            roster->generations[static_cast<std::size_t>(src)] << 8 |
            static_cast<std::uint32_t>(src);
        if (got != want) {
          sock.end_frame(frame, /*aborted=*/true);
          return mp::kWorkerExitError;  // payload / incarnation integrity
        }
        ++ops;
        trap();
      } catch (const mp::PeerFailedError&) {
        aborted = true;
      }
      sock.end_frame(frame, aborted);
    }

    if (sock.link_lost()) return mp::kWorkerExitError;
    sock.goodbye_and_wait(kDrain);
    return mp::kWorkerExitClean;
  } catch (...) {
    return mp::kWorkerExitError;
  }
}

/// Protocol-legality checks for the sequence event stream: generations
/// strictly advance, nobody is resurrected alive or past the budget,
/// demotion only strikes the dead, frames open/settle strictly
/// alternating 0..frames-1, stale rejects really are stale.
void verify_sequence_events(const ReplaySchedule& rs,
                            const std::vector<mp::ProtocolEvent>& events,
                            std::vector<std::string>& problems) {
  using Kind = mp::ProtocolEvent::Kind;
  const auto W = static_cast<std::size_t>(rs.workers);
  std::vector<bool> dead(W, false);
  std::vector<bool> demoted(W, false);
  std::vector<int> generation(W, 0);
  std::vector<int> respawns(W, 0);
  std::vector<int> promotions(W, 0);
  std::vector<int> parked(W, 0);
  std::vector<int> replayed(W, 0);
  int open_frame = -1;
  int frames_settled = 0;
  int shutdowns = 0;
  for (const mp::ProtocolEvent& ev : events) {
    const auto r = static_cast<std::size_t>(std::max(ev.rank, 0));
    switch (ev.kind) {
      case Kind::kFailureRecorded:
        if (ev.rank >= 0 && ev.rank < rs.workers) dead[r] = true;
        break;
      case Kind::kRespawned:
        if (!dead[r]) {
          problems.push_back("rank " + std::to_string(ev.rank) +
                             " resurrected while alive (double resurrection)");
        }
        if (demoted[r]) {
          problems.push_back("demoted rank " + std::to_string(ev.rank) + " resurrected");
        }
        if (++respawns[r] > rs.respawn_budget) {
          problems.push_back("rank " + std::to_string(ev.rank) + " respawned " +
                             std::to_string(respawns[r]) + " times, budget " +
                             std::to_string(rs.respawn_budget));
        }
        if (ev.count != generation[r] + 1) {
          problems.push_back("rank " + std::to_string(ev.rank) +
                             " respawned into generation " + std::to_string(ev.count) +
                             " after generation " + std::to_string(generation[r]));
        }
        generation[r] = ev.count;
        dead[r] = false;
        break;
      case Kind::kDemoted:
        if (!dead[r]) {
          problems.push_back("live rank " + std::to_string(ev.rank) + " demoted");
        }
        demoted[r] = true;
        break;
      case Kind::kStaleRejected:
        if (ev.rank >= 0 && ev.rank < rs.workers && ev.count >= generation[r]) {
          problems.push_back("rank " + std::to_string(ev.rank) + " generation " +
                             std::to_string(ev.count) +
                             " rejected as stale but current is " +
                             std::to_string(generation[r]));
        }
        break;
      case Kind::kFrameOpened:
        if (open_frame >= 0) {
          problems.push_back("frame " + std::to_string(ev.count) +
                             " opened while frame " + std::to_string(open_frame) +
                             " is still open");
        }
        if (ev.count != frames_settled) {
          problems.push_back("frame " + std::to_string(ev.count) + " opened out of order");
        }
        open_frame = ev.count;
        break;
      case Kind::kFrameSettled:
        if (ev.count != open_frame) {
          problems.push_back("frame " + std::to_string(ev.count) +
                             " settled but open frame is " + std::to_string(open_frame));
        }
        open_frame = -1;
        ++frames_settled;
        break;
      case Kind::kPromoted:
        // One promotion per incarnation: the initial join plus one per
        // successful respawn.
        if (++promotions[r] > 1 + respawns[r]) {
          problems.push_back("rank " + std::to_string(ev.rank) + " promoted " +
                             std::to_string(promotions[r]) + " times with " +
                             std::to_string(respawns[r]) + " respawns");
        }
        break;
      case Kind::kParked:
        ++parked[r];
        break;
      case Kind::kBacklogReplayed:
        replayed[r] += ev.count;
        break;
      case Kind::kShutdownBroadcast:
        ++shutdowns;
        break;
      case Kind::kFailureReplayed:
      case Kind::kGoodbye:
        break;
    }
  }
  for (std::size_t r = 0; r < W; ++r) {
    if (replayed[r] > parked[r]) {
      problems.push_back("rank " + std::to_string(r) + ": " + std::to_string(replayed[r]) +
                         " frames replayed but only " + std::to_string(parked[r]) +
                         " were parked");
    }
  }
  if (frames_settled != rs.frames) {
    problems.push_back("expected " + std::to_string(rs.frames) + " settled frames, saw " +
                       std::to_string(frames_settled));
  }
  if (shutdowns != 1) {
    problems.push_back("expected exactly one shutdown broadcast, saw " +
                       std::to_string(shutdowns));
  }
}

/// Execute a sequence schedule through the real Supervisor::run_sequence and
/// verify the full recovery ladder: planted crash detected, exactly one
/// resurrection with a generation bump (or a demotion when the budget is
/// zero), post-recovery frames whole again, no collateral failures.
ReplayReport replay_sequence(const ReplaySchedule& rs) {
  ReplayReport rep;

  mp::SupervisorOptions sup;
  static int counter = 0;
  sup.endpoint.kind = mp::Endpoint::Kind::kUnix;
  sup.endpoint.path = "/tmp/slspvr-model-seq-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter++) + ".sock";
  sup.procs = rs.workers;
  sup.heartbeat_timeout = std::chrono::milliseconds{2000};
  sup.accept_deadline = rs.crash_before_connect ? std::chrono::milliseconds{1500}
                                                : std::chrono::milliseconds{8000};
  sup.drain_deadline = kDrain;
  sup.observer = [&rep](const mp::ProtocolEvent& ev) { rep.events.push_back(ev); };

  mp::SequenceOptions seq;
  seq.frames = rs.frames;
  seq.respawn.max_respawns_per_rank = rs.respawn_budget;
  seq.respawn.base_delay = std::chrono::milliseconds{2};
  seq.respawn.rejoin_deadline = std::chrono::milliseconds{4000};

  const mp::SequenceOutcome outcome = mp::Supervisor::run_sequence(
      sup, seq, [&rs](int rank, std::uint32_t generation, const mp::Endpoint& at) {
        return sequence_replay_worker(rank, generation, at, rs);
      });
  (void)::unlink(sup.endpoint.path.c_str());
  for (const mp::FrameOutcome& f : outcome.frames) {
    rep.failures.insert(rep.failures.end(), f.failures.begin(), f.failures.end());
  }

  verify_sequence_events(rs, rep.events, rep.problems);

  if (rs.crash_rank < 0) {
    if (!outcome.clean()) {
      for (const mp::WorkerFailure& f : rep.failures) {
        rep.problems.push_back("unexpected failure of rank " + std::to_string(f.rank) +
                               ": " + f.what);
      }
    }
    if (outcome.respawns != 0) {
      rep.problems.push_back("no fault planted but " + std::to_string(outcome.respawns) +
                             " respawns happened");
    }
    rep.ok = rep.problems.empty();
    return rep;
  }

  // A crash was planted into the first incarnation of crash_rank.
  int faulted_frame = -1;
  for (const mp::FrameOutcome& f : outcome.frames) {
    for (const mp::WorkerFailure& fail : f.failures) {
      if (fail.rank == rs.crash_rank) faulted_frame = std::max(faulted_frame, f.frame);
      if (fail.rank != rs.crash_rank) {
        rep.problems.push_back("collateral failure of rank " + std::to_string(fail.rank) +
                               ": " + fail.what);
      }
    }
  }
  if (faulted_frame < 0) {
    rep.problems.push_back("planted crash of rank " + std::to_string(rs.crash_rank) +
                           " was never detected");
  }
  if (rs.respawn_budget > 0) {
    if (outcome.respawns < 1) {
      rep.problems.push_back("crashed rank was never resurrected");
    }
    if (static_cast<int>(rs.crash_rank) < static_cast<int>(outcome.generations.size()) &&
        outcome.generations[static_cast<std::size_t>(rs.crash_rank)] < 1) {
      rep.problems.push_back("crashed rank finished with generation 0 — no incarnation bump");
    }
    if (!outcome.demoted.empty()) {
      rep.problems.push_back("rank demoted despite an unexhausted respawn budget");
    }
    // The recovery contract: every frame after the faulted one runs whole.
    for (const mp::FrameOutcome& f : outcome.frames) {
      if (f.frame > faulted_frame && !f.failures.empty()) {
        rep.problems.push_back("post-recovery frame " + std::to_string(f.frame) +
                               " faulted again");
      }
    }
  } else {
    if (outcome.respawns != 0) {
      rep.problems.push_back("respawn happened with a zero budget");
    }
    if (std::find(outcome.demoted.begin(), outcome.demoted.end(), rs.crash_rank) ==
        outcome.demoted.end()) {
      rep.problems.push_back("crashed rank was never demoted with a zero budget");
    }
  }

  rep.ok = rep.problems.empty();
  return rep;
}

ReplayReport replay_supervision(const ReplaySchedule& rs) {
  ReplayReport rep;

  mp::SupervisorOptions sup;
  static int counter = 0;
  sup.endpoint.kind = mp::Endpoint::Kind::kUnix;
  sup.endpoint.path = "/tmp/slspvr-model-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter++) + ".sock";
  sup.procs = rs.workers;
  sup.heartbeat_timeout =
      rs.stall_rank >= 0 ? std::chrono::milliseconds{600} : std::chrono::milliseconds{2000};
  sup.accept_deadline = rs.crash_before_connect ? std::chrono::milliseconds{1500}
                                                : std::chrono::milliseconds{8000};
  sup.drain_deadline = kDrain;
  sup.observer = [&rep](const mp::ProtocolEvent& ev) { rep.events.push_back(ev); };

  const mp::SupervisorOutcome outcome =
      mp::Supervisor::run(sup, [&rs](int rank, const mp::Endpoint& at) {
        return replay_worker(rank, at, rs);
      });
  (void)::unlink(sup.endpoint.path.c_str());
  rep.failures = outcome.failures;

  verify_events(rs, rep.events, rep.problems);

  const bool fault_planted = rs.crash_rank >= 0 || rs.stall_rank >= 0;
  if (!fault_planted) {
    if (!outcome.clean()) {
      for (const mp::WorkerFailure& f : outcome.failures) {
        rep.problems.push_back("unexpected failure of rank " + std::to_string(f.rank) +
                               ": " + f.what);
      }
    }
    // Rebuild the shipped per-rank traces and run the PR 2 vector-clock
    // race detector over the real exchange.
    mp::TrafficTrace trace(rs.workers);
    int shipped = 0;
    for (const mp::WorkerReport& r : outcome.reports) {
      if (r.kind != kReportReplayTrace || r.rank < 0 || r.rank >= rs.workers) continue;
      try {
        pvr::ByteReader reader(r.payload);
        std::vector<mp::MessageRecord> sent(reader.u32());
        for (mp::MessageRecord& rec : sent) rec = pvr::read_record(reader);
        std::vector<mp::MessageRecord> received(reader.u32());
        for (mp::MessageRecord& rec : received) rec = pvr::read_record(reader);
        std::vector<std::uint64_t> clock(reader.u32());
        for (std::uint64_t& c : clock) c = reader.u64();
        trace.import_rank(r.rank, std::move(sent), std::move(received), std::move(clock),
                          0, 0, 0, 0);
        ++shipped;
      } catch (const std::out_of_range&) {
        rep.problems.push_back("rank " + std::to_string(r.rank) +
                               " shipped a truncated trace report");
      }
    }
    if (shipped != rs.workers) {
      rep.problems.push_back("expected " + std::to_string(rs.workers) +
                             " trace reports, got " + std::to_string(shipped));
    } else {
      const check::TraceCheckResult hb = check::check_happens_before(trace);
      if (!hb.ok()) rep.problems.push_back("happens-before: " + hb.summary());
    }
  } else {
    if (rs.crash_rank >= 0 &&
        std::none_of(outcome.failures.begin(), outcome.failures.end(),
                     [&](const mp::WorkerFailure& f) { return f.rank == rs.crash_rank; })) {
      rep.problems.push_back("planted crash of rank " + std::to_string(rs.crash_rank) +
                             " was never detected");
    }
    if (rs.stall_rank >= 0 &&
        std::none_of(outcome.failures.begin(), outcome.failures.end(),
                     [&](const mp::WorkerFailure& f) { return f.rank == rs.stall_rank; })) {
      rep.problems.push_back("planted stall of rank " + std::to_string(rs.stall_rank) +
                             " was never detected");
    }
  }

  rep.ok = rep.problems.empty();
  return rep;
}

ReplayReport replay_retransmit(const ReplaySchedule& rs) {
  ReplayReport rep;

  mp::FaultPlan plan;
  if (rs.drops > 0) {
    mp::DropRule rule;
    rule.source = 0;
    rule.dest = 1;
    rule.max_count = rs.drops;
    plan.drops.push_back(rule);
  }
  if (rs.corruptions > 0) {
    mp::CorruptRule rule;
    rule.source = 0;
    rule.dest = 1;
    rule.flip_bytes = 3;
    rule.max_count = rs.corruptions;
    plan.corruptions.push_back(rule);
  }
  plan.retry.max_attempts = 16;
  plan.retry.base_delay = std::chrono::milliseconds{1};
  plan.retry.deadline = std::chrono::milliseconds{4000};
  plan.recv_timeout = std::chrono::milliseconds{4000};

  mp::FaultInjector injector(plan);
  mp::CommContext ctx(2);
  ctx.injector = &injector;
  ctx.retry = plan.retry;
  ctx.recv_timeout = plan.recv_timeout;

  const int k = std::max(1, rs.messages);
  std::vector<std::string> sender_problems;
  std::vector<std::string> receiver_problems;

  std::thread sender([&] {
    try {
      mp::Comm comm(&ctx, 0);
      for (int i = 0; i < k; ++i) {
        const std::uint32_t token = 0xC0DE0000U | static_cast<std::uint32_t>(i);
        comm.send_value(1, i, token);
      }
    } catch (const std::exception& e) {
      sender_problems.push_back(std::string("sender: ") + e.what());
      ctx.fail(0, 0, e.what());
    }
  });
  std::thread receiver([&] {
    try {
      mp::Comm comm(&ctx, 1);
      for (int i = 0; i < k; ++i) {
        const auto got = comm.recv_value<std::uint32_t>(0, i);
        const std::uint32_t want = 0xC0DE0000U | static_cast<std::uint32_t>(i);
        if (got != want) {
          receiver_problems.push_back("message " + std::to_string(i) +
                                      " arrived damaged after healing");
        }
      }
    } catch (const std::exception& e) {
      receiver_problems.push_back(std::string("receiver: ") + e.what());
      ctx.fail(1, 0, e.what());
    }
  });
  sender.join();
  receiver.join();

  rep.problems.insert(rep.problems.end(), sender_problems.begin(), sender_problems.end());
  rep.problems.insert(rep.problems.end(), receiver_problems.begin(),
                      receiver_problems.end());

  const mp::RetryStats stats = ctx.trace.retry_stats();
  if (stats.abandoned > 0) {
    rep.problems.push_back("a channel was abandoned instead of healed");
  }
  if ((rs.drops > 0 || rs.corruptions > 0) && stats.naks == 0) {
    rep.problems.push_back("damage was planted but no NAK was ever raised");
  }
  const check::TraceCheckResult hb = check::check_happens_before(ctx.trace);
  if (!hb.ok()) rep.problems.push_back("happens-before: " + hb.summary());

  rep.ok = rep.problems.empty();
  return rep;
}

}  // namespace

ReplayReport replay_schedule(const ReplaySchedule& schedule) {
  if (schedule.messages > 0) return replay_retransmit(schedule);
  if (schedule.frames > 0) return replay_sequence(schedule);
  return replay_supervision(schedule);
}

}  // namespace slspvr::model
