#include "model/replay.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check/trace_check.hpp"
#include "mp/communicator.hpp"
#include "mp/errors.hpp"
#include "mp/fault.hpp"
#include "mp/socket.hpp"
#include "mp/socket_transport.hpp"
#include "mp/trace.hpp"
#include "pvr/proc_runner.hpp"
#include "pvr/serialize.hpp"

namespace slspvr::model {

namespace {

/// kReport discriminator for the replay worker's shipped trace slot (well
/// clear of the pvr runner's 1..5 range; the supervisor forwards verbatim).
constexpr int kReportReplayTrace = 42;

constexpr std::chrono::milliseconds kDrain{3000};

}  // namespace

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
  out.stages = sc.stages;
  out.mailbox_capacity = static_cast<std::size_t>(sc.mailbox_capacity);
  out.respawn_budget = sc.respawn_budget;
  out.connect_delay_ms.assign(static_cast<std::size_t>(sc.workers), 0);

  // Connect order -> staggered delays: a rank whose first connect the trace
  // interleaves after other actors' steps joins late for real, so the first
  // frame waits for its hello as in the trace (a respawned incarnation's
  // reconnect is the supervisor's business, not ours). Ring ops accumulate
  // across frames so the crash and stall traps land in the frame the trace
  // struck in. Only the first crash and stall are planted — the real
  // runtime's respawn path is exactly what the replay is checking.
  std::vector<bool> connected(static_cast<std::size_t>(sc.workers), false);
  std::vector<int> ops_done(static_cast<std::size_t>(sc.workers), 0);
  int foreign_steps = 0;  // steps by already-connected actors seen so far
  for (const Action& act : cex.actions) {
    const auto w = static_cast<std::size_t>(std::max<int>(act.a, 0));
    switch (act.kind) {
      case ResurrectionModel::aConnect:
        if (!connected[w]) {
          out.connect_delay_ms[w] = std::min(600, 150 * foreign_steps);
          connected[w] = true;
        }
        break;
      case ResurrectionModel::aSend:
      case ResurrectionModel::aRecv:
        ++ops_done[w];
        ++foreign_steps;
        break;
      case ResurrectionModel::aCrash:
        if (out.crash_rank < 0) {
          out.crash_rank = act.a;
          out.crash_after_ops = ops_done[w];
        }
        ++foreign_steps;
        break;
      case ResurrectionModel::aStall:
        if (out.stall_rank < 0) {
          out.stall_rank = act.a;
          out.stall_after_ops = ops_done[w];
        }
        ++foreign_steps;
        break;
      case ResurrectionModel::aSupReap:
      case ResurrectionModel::aWatchdog:
      case ResurrectionModel::aRespawn:
      case ResurrectionModel::aFrameOpen:
      case ResurrectionModel::aSettle:
        ++foreign_steps;
        break;
      default:
        break;
    }
  }
  // Ranks the trace never connected joined after everything else happened.
  for (std::size_t w = 0; w < connected.size(); ++w) {
    if (!connected[w]) out.connect_delay_ms[w] = 600;
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

/// The replay worker: the ResurrectionModel's per-frame ring program
/// executed for real — connect, hello with the generation, then
/// kFrameStart -> `stages` ring rounds -> kFrameDone per frame (mirrors the
/// pvr worker's shape). A clean frame ships the rank's traffic trace. The
/// planted crash and stall trap only the first incarnation; the respawned
/// one must sail through, which is exactly the recovery behaviour the
/// replay pins down.
int replay_worker(int rank, std::uint32_t generation, const mp::Endpoint& endpoint,
                  const ReplaySchedule& rs) {
  const int W = rs.workers;
  if (generation == 0) {
    const auto delay = rs.connect_delay_ms[static_cast<std::size_t>(rank)];
    if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }

  mp::Fd link;
  try {
    link = mp::connect_with_backoff(endpoint, pvr::ProcOptions::default_connect_policy(), rank);
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
    mp::SocketTransport sock(rank, std::move(link), std::move(topts));
    sock.start();

    int ops = 0;  // cumulative across frames, like the model's trace ops
    const auto trap = [&] {
      if (generation != 0) return;
      if (rank == rs.crash_rank && ops == rs.crash_after_ops) (void)::raise(SIGKILL);
      if (rank == rs.stall_rank && ops == rs.stall_after_ops) (void)::raise(SIGSTOP);
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
      ctx.mailboxes[static_cast<std::size_t>(rank)].set_capacity(rs.mailbox_capacity);
      sock.begin_frame(&ctx);
      bool aborted = false;
      try {
        mp::Comm comm(&ctx, rank);
        const int src = (rank - 1 + W) % W;
        // Each payload names its frame, round, sender and sender generation.
        const auto token = [frame](int round, int from, std::uint32_t gen) {
          return static_cast<std::uint32_t>(frame) << 24 |
                 static_cast<std::uint32_t>(round) << 16 | gen << 8 |
                 static_cast<std::uint32_t>(from);
        };
        for (int round = 0; round < rs.stages; ++round) {
          comm.set_stage(round);
          trap();
          comm.send_value((rank + 1) % W, round, token(round, rank, generation));
          ++ops;
          trap();
          const auto got = comm.recv_value<std::uint32_t>(src, round);
          // The expected payload carries the *sender's roster generation*:
          // a stale incarnation's leftover would show up right here.
          if (got != token(round, src, roster->generations[static_cast<std::size_t>(src)])) {
            sock.end_frame(frame, /*aborted=*/true);
            return mp::kWorkerExitError;  // payload / incarnation integrity
          }
          ++ops;
          trap();
        }
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
        sock.send_report(kReportReplayTrace, w.take());
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

/// Rebuild a clean frame's shipped per-rank traces and run the vector-clock
/// race detector over the real exchange.
void check_frame_traces(const ReplaySchedule& rs, const mp::FrameOutcome& frame,
                        std::vector<std::string>& problems) {
  mp::TrafficTrace trace(rs.workers);
  int shipped = 0;
  for (const mp::WorkerReport& r : frame.reports) {
    if (r.kind != kReportReplayTrace || r.rank < 0 || r.rank >= rs.workers) continue;
    try {
      pvr::ByteReader reader(r.payload);
      std::vector<mp::MessageRecord> sent(reader.u32());
      for (mp::MessageRecord& rec : sent) rec = pvr::read_record(reader);
      std::vector<mp::MessageRecord> received(reader.u32());
      for (mp::MessageRecord& rec : received) rec = pvr::read_record(reader);
      std::vector<std::uint64_t> clock(reader.u32());
      for (std::uint64_t& c : clock) c = reader.u64();
      trace.import_rank(r.rank, std::move(sent), std::move(received), std::move(clock), 0, 0,
                        0, 0);
      ++shipped;
    } catch (const std::out_of_range&) {
      problems.push_back("frame " + std::to_string(frame.frame) + ": rank " +
                         std::to_string(r.rank) + " shipped a truncated trace report");
    }
  }
  if (shipped != rs.workers) {
    problems.push_back("frame " + std::to_string(frame.frame) + ": expected " +
                       std::to_string(rs.workers) + " trace reports, got " +
                       std::to_string(shipped));
    return;
  }
  const check::TraceCheckResult hb = check::check_happens_before(trace);
  if (!hb.ok()) {
    problems.push_back("frame " + std::to_string(frame.frame) + " happens-before: " +
                       hb.summary());
  }
}

/// Protocol-legality checks for the sequence event stream: generations
/// strictly advance, nobody is resurrected alive or past the budget,
/// demotion only strikes the dead, frames open/settle strictly
/// alternating 0..frames-1 and open only once every non-demoted rank's
/// current incarnation is promoted, stale rejects really are stale.
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
  // The rank's current incarnation (since the start or its last kRespawned)
  // was promoted: no frame may open before.
  std::vector<bool> promoted(W, false);
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
        promoted[r] = false;
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
        for (std::size_t k = 0; k < W; ++k) {
          if (demoted[k] || promoted[k]) continue;
          problems.push_back("frame " + std::to_string(ev.count) + " opened before rank " +
                             std::to_string(k) + " (generation " +
                             std::to_string(generation[k]) + ") was promoted");
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
        promoted[r] = true;
        break;
      case Kind::kShutdownBroadcast:
        ++shutdowns;
        break;
      case Kind::kGoodbye:
        break;
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

/// Execute a schedule through the real Supervisor::run_sequence and verify
/// the full recovery ladder: the planted crash or stall detected, exactly
/// one resurrection with a generation bump when a later frame follows the
/// death (or a demotion when the budget is zero), none after a death in the
/// last frame, post-recovery frames whole again, no collateral failures.
ReplayReport replay_sequence(const ReplaySchedule& rs) {
  ReplayReport rep;

  mp::SupervisorOptions sup;
  static int counter = 0;
  sup.endpoint.kind = mp::Endpoint::Kind::kUnix;
  sup.endpoint.path = "/tmp/slspvr-model-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter++) + ".sock";
  sup.procs = rs.workers;
  sup.heartbeat_timeout =
      rs.stall_rank >= 0 ? std::chrono::milliseconds{600} : std::chrono::milliseconds{2000};
  sup.accept_deadline = std::chrono::milliseconds{8000};
  sup.drain_deadline = kDrain;
  sup.observer = [&rep](const mp::ProtocolEvent& ev) { rep.events.push_back(ev); };

  mp::SequenceOptions seq;
  seq.frames = rs.frames;
  seq.respawn.max_respawns_per_rank = rs.respawn_budget;
  seq.respawn.base_delay = std::chrono::milliseconds{2};
  seq.respawn.rejoin_deadline = std::chrono::milliseconds{4000};

  const mp::SequenceOutcome outcome = mp::Supervisor::run_sequence(
      sup, seq, [&rs](int rank, std::uint32_t generation, const mp::Endpoint& at) {
        return replay_worker(rank, generation, at, rs);
      });
  (void)::unlink(sup.endpoint.path.c_str());
  for (const mp::FrameOutcome& f : outcome.frames) {
    rep.failures.insert(rep.failures.end(), f.failures.begin(), f.failures.end());
    if (f.failures.empty() && f.demoted.empty()) check_frame_traces(rs, f, rep.problems);
  }

  verify_sequence_events(rs, rep.events, rep.problems);

  // The planted fault: a crash or a stall of one rank's first incarnation.
  const int fault_rank = rs.crash_rank >= 0 ? rs.crash_rank : rs.stall_rank;
  if (fault_rank < 0) {
    for (const mp::WorkerFailure& f : rep.failures) {
      rep.problems.push_back("unexpected failure of rank " + std::to_string(f.rank) + ": " +
                             f.what);
    }
    if (outcome.respawns != 0) {
      rep.problems.push_back("no fault planted but " + std::to_string(outcome.respawns) +
                             " respawns happened");
    }
    rep.ok = rep.problems.empty();
    return rep;
  }

  int faulted_frame = -1;
  for (const mp::FrameOutcome& f : outcome.frames) {
    for (const mp::WorkerFailure& fail : f.failures) {
      if (fail.rank == fault_rank) faulted_frame = std::max(faulted_frame, f.frame);
      if (fail.rank != fault_rank) {
        rep.problems.push_back("collateral failure of rank " + std::to_string(fail.rank) +
                               ": " + fail.what);
      }
    }
  }
  const bool demoted = std::find(outcome.demoted.begin(), outcome.demoted.end(), fault_rank) !=
                       outcome.demoted.end();
  if (faulted_frame < 0) {
    rep.problems.push_back("planted " + std::string(rs.crash_rank >= 0 ? "crash" : "stall") +
                           " of rank " + std::to_string(fault_rank) + " was never detected");
  } else if (faulted_frame + 1 >= rs.frames) {
    // A death in the last frame: nothing is left to resurrect for.
    if (outcome.respawns != 0 || demoted) {
      rep.problems.push_back("a death in the last frame was followed by " +
                             std::string(demoted ? "a demotion" : "a respawn"));
    }
  } else if (rs.respawn_budget > 0) {
    if (outcome.respawns < 1) {
      rep.problems.push_back("failed rank was never resurrected");
    }
    if (fault_rank < static_cast<int>(outcome.generations.size()) &&
        outcome.generations[static_cast<std::size_t>(fault_rank)] < 1) {
      rep.problems.push_back("failed rank finished with generation 0 — no incarnation bump");
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
    if (!demoted) rep.problems.push_back("failed rank was never demoted with a zero budget");
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
  return replay_sequence(schedule);
}

}  // namespace slspvr::model
