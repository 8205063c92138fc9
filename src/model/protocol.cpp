#include "model/protocol.hpp"

#include <algorithm>
#include <cstddef>

namespace slspvr::model {

namespace {

// Resource bitmask layout (Action::touches). Disjoint masks on actions of
// different actors certify independence for the sleep-set reduction, so a
// bit must cover *everything* an action reads (including its enabledness
// condition) or writes.
constexpr std::uint32_t kUp(int w) { return 1U << w; }
constexpr std::uint32_t kDown(int w) { return 1U << (4 + w); }
constexpr std::uint32_t kMbox(int w) { return 1U << (8 + w); }
constexpr std::uint32_t kWrk(int w) { return 1U << (12 + w); }
constexpr std::uint32_t kDownAll = 0xF0U;
constexpr std::uint32_t kSup = 1U << 16;
constexpr std::uint32_t kCrashBudget = 1U << 17;
constexpr std::uint32_t kLimbo(int w) { return 1U << (18 + w); }

// Actor ids: 0..3 worker main threads, 4..7 worker reader threads,
// 8 the supervisor poll loop (single-threaded, hence one actor).
constexpr std::int16_t kReaderActor(int w) {
  return static_cast<std::int16_t>(kMaxWorkers + w);
}
constexpr std::int16_t kSupActor = 2 * kMaxWorkers;

void put8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

}  // namespace

const char* mutant_name(Mutant m) {
  switch (m) {
    case Mutant::kNone: return "none";
    case Mutant::kSkipPoisonBroadcast: return "skip-poison-broadcast";
    case Mutant::kDoublePromotion: return "double-promotion";
    case Mutant::kNoWatchdog: return "no-watchdog";
    case Mutant::kAckBeforeDeposit: return "ack-before-deposit";
    case Mutant::kRenumberRetransmit: return "renumber-retransmit";
    case Mutant::kDropGenerationCheck: return "drop-generation-check";
    case Mutant::kResurrectTwice: return "resurrect-twice";
    case Mutant::kRespawnSameGeneration: return "respawn-same-generation";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ResurrectionModel
// ---------------------------------------------------------------------------

ResurrectionModel::ResurrectionModel(Scenario scenario) : scenario_(std::move(scenario)) {}

bool ResurrectionModel::may_crash(int w) const {
  return scenario_.crash_rank == kMaxWorkers || scenario_.crash_rank == w;
}

ResurrectionModel::State ResurrectionModel::initial() const {
  State s;
  s.crash_budget =
      static_cast<std::int8_t>(scenario_.crash_rank >= 0 ? scenario_.crash_budget : 0);
  return s;
}

/// fail() of a dead (reaped) or silent (watchdog) worker: record it, close
/// the link and, unless the mutant skips it, broadcast kPeerFailed to every
/// live peer.
void ResurrectionModel::fail(State& st, int w) const {
  Sup& sp = st.sup[w];
  sp.dead = true;
  sp.promoted = false;
  sp.frame_done = false;
  st.any_failure = true;
  if (st.frame_active) {
    st.faulted_frames = static_cast<std::uint8_t>(st.faulted_frames | (1U << st.frame));
  }
  // The dying link's unread bytes cannot be retracted: they surface later
  // as limbo traffic the generation check must refuse.
  for (SeqMsg& m : st.up[w]) st.limbo[w].push_back(m);
  st.up[w].clear();
  st.down[w].clear();
  if (scenario_.mutant == Mutant::kSkipPoisonBroadcast) return;
  for (int v = 0; v < scenario_.workers; ++v) {
    if (v == w || st.sup[v].dead || st.sup[v].demoted) continue;
    st.down[v].push_back({SeqMsg::Kind::kPeerFailed, static_cast<std::int8_t>(w), -1, 0, 0});
  }
}

/// Worker-side reader deposit with the generation check of
/// SocketTransport::reader_loop: a kData frame whose generation disagrees
/// with the roster the worker runs under is a dead incarnation's leftover
/// and is refused. The monitor below the check is the invariant itself —
/// with kDropGenerationCheck planted, a stale frame reaches the mailbox and
/// trips kStaleDelivery.
void ResurrectionModel::deposit(State& st, int w, const SeqMsg& msg) const {
  const int src = msg.a;
  if (msg.gen != st.worker[w].roster_gen[static_cast<std::size_t>(src)]) {
    if (scenario_.mutant != Mutant::kDropGenerationCheck) {
      ++st.stale_rejects;
      return;
    }
    st.bad = BadState::kStaleDelivery;
  }
  st.worker[w].mailbox.push_back(msg.b);
  if (++st.delivered[static_cast<std::size_t>(msg.b)] > 1) {
    st.bad = BadState::kDuplicateDelivery;
  }
}

/// Supervisor-side handling of an uplink kData frame from `src` (live link
/// or limbo): the seq-reuse monitor, the roster generation check of
/// handle_frame(), then routing to a promoted destination.
void ResurrectionModel::route(State& st, int src, const SeqMsg& msg) const {
  const int bit = msg.gen * scenario_.frames * scenario_.stages + msg.seq;
  if (bit >= 0 && bit < 16) {
    const auto mask = static_cast<std::uint16_t>(1U << bit);
    if ((st.seen_seq[static_cast<std::size_t>(src)] & mask) != 0) {
      st.bad = BadState::kSeqReuse;
    }
    st.seen_seq[static_cast<std::size_t>(src)] =
        static_cast<std::uint16_t>(st.seen_seq[static_cast<std::size_t>(src)] | mask);
  }
  if (msg.gen != st.sup[static_cast<std::size_t>(src)].gen &&
      scenario_.mutant != Mutant::kDropGenerationCheck) {
    ++st.stale_rejects;
    return;
  }
  const auto dest = static_cast<std::size_t>(msg.a);
  // Dead and demoted ranks are unpromoted too: no link to route to.
  if (!st.sup[dest].promoted) return;
  SeqMsg out = msg;
  out.a = static_cast<std::int8_t>(src);  // down-link kData carries its source
  st.down[dest].push_back(out);
}

void ResurrectionModel::enumerate(const State& s, std::vector<Action>& out) const {
  out.clear();
  const int W = scenario_.workers;
  const int F = scenario_.frames;
  const auto push = [&](std::int16_t actor, std::int16_t kind, int a, int b,
                        std::uint32_t touches) {
    Action act;
    act.actor = actor;
    act.kind = kind;
    act.a = static_cast<std::int16_t>(a);
    act.b = static_cast<std::int16_t>(b);
    act.touches = touches;
    out.push_back(act);
  };

  for (int w = 0; w < W; ++w) {
    const Worker& wk = s.worker[w];
    if (wk.stalled) continue;  // SIGSTOPped: no thread of it runs
    const bool up_space =
        static_cast<int>(s.up[w].size()) < scenario_.uplink_capacity;

    switch (wk.phase) {
      case Phase::kStart:
        if (up_space) push(static_cast<std::int16_t>(w), aConnect, w, -1, kWrk(w) | kUp(w));
        break;
      case Phase::kIdle:
        if (wk.shutdown_seen) push(static_cast<std::int16_t>(w), aExit, w, -1, kWrk(w));
        if (scenario_.mutant == Mutant::kDoublePromotion && !wk.dup_hello_sent && up_space) {
          push(static_cast<std::int16_t>(w), aDupHello, w, -1, kWrk(w) | kUp(w));
        }
        break;
      case Phase::kRun: {
        if (wk.pc < ops()) {
          const int round = wk.pc / 2;
          if (wk.pc % 2 == 0) {
            if (up_space) {
              const int id = frame_id(wk.frame, round, w);
              push(static_cast<std::int16_t>(w), aSend, w, id, kWrk(w) | kUp(w));
            }
          } else {
            const int src = (w - 1 + W) % W;
            const int id = frame_id(wk.frame, round, src);
            const bool present =
                std::find(wk.mailbox.begin(), wk.mailbox.end(),
                          static_cast<std::int8_t>(id)) != wk.mailbox.end();
            if (present) {
              push(static_cast<std::int16_t>(w), aRecv, w, id, kWrk(w) | kMbox(w));
            } else if (wk.poisoned && up_space) {
              push(static_cast<std::int16_t>(w), aAbortFrame, w, wk.frame,
                   kWrk(w) | kUp(w) | kMbox(w));
            }
          }
        } else if (up_space) {
          push(static_cast<std::int16_t>(w), aFrameDone, w, wk.frame,
               kWrk(w) | kUp(w));
        }
        if (may_crash(w) && s.crash_budget > 0) {
          push(static_cast<std::int16_t>(w), aCrash, w, -1, kWrk(w) | kCrashBudget);
        }
        if (w == scenario_.stall_rank) push(static_cast<std::int16_t>(w), aStall, w, -1, kWrk(w));
        break;
      }
      case Phase::kCrashed:
      case Phase::kExited:
        break;
    }

    // Reader thread: pump one frame off the down link. A kFrameStart pump
    // copies the roster from supervisor state, so it carries kSup too. A
    // kData deposit blocks while the mailbox is full; poison lifts the
    // bound, exactly like Mailbox::deposit.
    if ((wk.phase == Phase::kIdle || wk.phase == Phase::kRun) && !s.down[w].empty()) {
      const SeqMsg& head = s.down[w].front();
      const bool blocked = head.kind == SeqMsg::Kind::kData && scenario_.mailbox_capacity > 0 &&
                           static_cast<int>(wk.mailbox.size()) >= scenario_.mailbox_capacity &&
                           !wk.poisoned;
      std::uint32_t touches = kWrk(w) | kDown(w) | kMbox(w);
      if (head.kind == SeqMsg::Kind::kFrameStart) touches |= kSup;
      if (!blocked) push(kReaderActor(w), aPump, w, static_cast<int>(head.kind), touches);
    }
  }

  // Supervisor poll loop (one sequential actor).
  for (int w = 0; w < W; ++w) {
    if (!s.up[w].empty()) {
      push(kSupActor, aSupPump, w, static_cast<int>(s.up[w].front().kind),
           kUp(w) | kSup | kDownAll);
    }
    if (!s.limbo[w].empty()) {
      push(kSupActor, aLimboPump, w, static_cast<int>(s.limbo[w].front().kind),
           kLimbo(w) | kSup | kDownAll);
    }
    const std::uint32_t fail_touches = kWrk(w) | kUp(w) | kDown(w) | kLimbo(w) | kSup | kDownAll;
    if (s.worker[w].phase == Phase::kCrashed && !s.sup[w].dead) {
      push(kSupActor, aSupReap, w, -1, fail_touches);
    }
    if (s.worker[w].stalled && !s.sup[w].dead && scenario_.mutant != Mutant::kNoWatchdog) {
      push(kSupActor, aWatchdog, w, -1, fail_touches);
    }

    // Frame-boundary resolution of a dead rank: resurrect under the budget,
    // demote once it is dry. Only while another frame is still coming — a
    // death in the last frame is left to the shutdown path, like the real
    // boundary loop.
    if (!s.frame_active && s.frames_done < F && !s.sup[w].demoted) {
      if (s.sup[w].dead) {
        if (s.sup[w].respawns < scenario_.respawn_budget) {
          push(kSupActor, aRespawn, w, -1, kWrk(w) | kSup);
        } else {
          push(kSupActor, aDemote, w, -1, kSup);
        }
      } else if (scenario_.mutant == Mutant::kResurrectTwice && s.sup[w].respawns >= 1 &&
                 s.bad == BadState::kNone) {
        // Mutant: the single-respawn-per-death guard is gone — the boundary
        // loop fires a second resurrection at a rank that is alive again.
        push(kSupActor, aRespawn, w, -1, kWrk(w) | kSup);
      }
    }
  }

  if (!s.frame_active && !s.shutdown_sent && s.frames_done < F) {
    bool ready = true;
    for (int w = 0; w < W; ++w) {
      if (!s.sup[w].demoted && !s.sup[w].promoted) ready = false;
    }
    if (ready) push(kSupActor, aFrameOpen, -1, s.frames_done, kSup | kDownAll);
  }
  if (s.frame_active) {
    bool settled = true;
    for (int w = 0; w < W; ++w) {
      if (!s.sup[w].demoted && !s.sup[w].dead && !s.sup[w].frame_done) settled = false;
    }
    if (settled) push(kSupActor, aSettle, -1, s.frame, kSup);
  }
  if (!s.frame_active && !s.shutdown_sent && s.frames_done >= F) {
    push(kSupActor, aShutdown, -1, -1, kSup | kDownAll);
  }
}

ResurrectionModel::State ResurrectionModel::apply(const State& s, const Action& act) const {
  State n = s;
  const int W = scenario_.workers;
  const int w = act.a;

  switch (act.kind) {
    case aConnect:
      n.worker[w].phase = Phase::kIdle;
      n.up[w].push_back(
          {SeqMsg::Kind::kHello, static_cast<std::int8_t>(w), -1, n.worker[w].gen, 0});
      break;
    case aDupHello:
      n.worker[w].dup_hello_sent = true;
      n.up[w].push_back(
          {SeqMsg::Kind::kHello, static_cast<std::int8_t>(w), -1, n.worker[w].gen, 0});
      break;
    case aSend: {
      const int dest = (w + 1) % W;
      n.up[w].push_back({SeqMsg::Kind::kData, static_cast<std::int8_t>(dest),
                         static_cast<std::int8_t>(act.b), n.worker[w].gen,
                         n.worker[w].next_seq});
      ++n.worker[w].next_seq;
      ++n.worker[w].pc;
      break;
    }
    case aRecv: {
      auto& mbox = n.worker[w].mailbox;
      const auto it = std::find(mbox.begin(), mbox.end(), static_cast<std::int8_t>(act.b));
      if (it != mbox.end()) mbox.erase(it);
      ++n.worker[w].pc;
      break;
    }
    case aAbortFrame:
      n.up[w].push_back({SeqMsg::Kind::kFrameDone, 1, static_cast<std::int8_t>(act.b),
                         n.worker[w].gen, 0});
      n.worker[w].phase = Phase::kIdle;
      break;
    case aFrameDone:
      n.up[w].push_back({SeqMsg::Kind::kFrameDone, 0, static_cast<std::int8_t>(act.b),
                         n.worker[w].gen, 0});
      n.worker[w].phase = Phase::kIdle;
      ++n.worker[w].frames_completed;
      break;
    case aExit:
      n.worker[w].phase = Phase::kExited;
      break;
    case aCrash:
      n.worker[w].phase = Phase::kCrashed;
      --n.crash_budget;
      break;
    case aStall:
      n.worker[w].stalled = true;
      break;
    case aPump: {
      const SeqMsg head = n.down[w].front();
      n.down[w].erase(n.down[w].begin());
      switch (head.kind) {
        case SeqMsg::Kind::kFrameStart: {
          Worker& wk = n.worker[w];
          wk.frame = head.b;
          wk.poisoned = false;
          wk.mailbox.clear();  // fresh per-frame CommContext
          bool degraded = false;
          for (int v = 0; v < W; ++v) {
            wk.roster_gen[static_cast<std::size_t>(v)] = n.sup[v].gen;
            if (n.sup[v].demoted) degraded = true;
          }
          wk.roster_degraded = degraded;
          // A degraded frame has no full-strength plan: the worker ships its
          // subimage and reports done without touching the ring.
          wk.pc = static_cast<std::int8_t>(degraded ? ops() : 0);
          wk.phase = Phase::kRun;
          break;
        }
        case SeqMsg::Kind::kData:
          deposit(n, w, head);
          break;
        case SeqMsg::Kind::kPeerFailed:
          n.worker[w].poisoned = true;
          break;
        case SeqMsg::Kind::kShutdown:
          n.worker[w].shutdown_seen = true;
          break;
        default:
          break;
      }
      break;
    }
    case aSupPump: {
      const SeqMsg head = n.up[w].front();
      n.up[w].erase(n.up[w].begin());
      switch (head.kind) {
        case SeqMsg::Kind::kHello: {
          if (head.gen != n.sup[w].gen) {
            ++n.stale_rejects;  // a dead incarnation's hello: refuse + drop
            break;
          }
          if (n.sup[w].promoted) {
            // Real supervisor: "duplicate hello: harmless". The mutant
            // re-runs the whole promotion instead.
            if (scenario_.mutant != Mutant::kDoublePromotion) break;
            n.bad = BadState::kDoublePromotion;
          }
          n.sup[w].promoted = true;
          break;
        }
        case SeqMsg::Kind::kData:
          route(n, w, head);
          break;
        case SeqMsg::Kind::kFrameDone:
          n.sup[w].frame_done = true;
          break;
        default:
          break;
      }
      break;
    }
    case aLimboPump: {
      // Delayed traffic of a dead incarnation, read after its death was
      // processed — possibly after its rank was already resurrected. Only
      // kData matters; a limbo hello or frame-done belongs to a rank whose
      // failure is already recorded.
      const SeqMsg head = n.limbo[w].front();
      n.limbo[w].erase(n.limbo[w].begin());
      if (head.kind == SeqMsg::Kind::kData) {
        route(n, w, head);
      } else if (head.gen != n.sup[w].gen) {
        ++n.stale_rejects;
      }
      break;
    }
    case aSupReap:
      fail(n, w);
      break;
    case aWatchdog:
      fail(n, w);
      n.worker[w].phase = Phase::kCrashed;  // fail() SIGKILLs the silent worker
      break;
    case aRespawn: {
      Sup& sp = n.sup[w];
      if (!sp.dead) {
        // Resurrecting a live rank: the invariant the respawn guard exists
        // to protect (reachable only under kResurrectTwice).
        n.bad = BadState::kDoubleResurrection;
        break;
      }
      ++sp.respawns;
      if (scenario_.mutant != Mutant::kRespawnSameGeneration) {
        sp.gen = static_cast<std::int8_t>(sp.gen + 1);
      }
      sp.dead = false;
      sp.promoted = false;
      sp.frame_done = false;
      Worker fresh;
      fresh.gen = sp.gen;
      n.worker[w] = fresh;
      break;
    }
    case aDemote:
      n.sup[w].demoted = true;
      break;
    case aFrameOpen: {
      n.frame_active = true;
      n.frame = n.frames_done;
      bool degraded = false;
      for (int v = 0; v < W; ++v) {
        n.sup[v].frame_done = false;
        if (n.sup[v].demoted) degraded = true;
      }
      if (degraded) {
        n.degraded_frames = static_cast<std::uint8_t>(n.degraded_frames | (1U << n.frame));
      }
      for (int v = 0; v < W; ++v) {
        if (n.sup[v].dead || n.sup[v].demoted) continue;
        n.down[v].push_back({SeqMsg::Kind::kFrameStart, -1, n.frame, 0, 0});
      }
      break;
    }
    case aSettle:
      n.frame_active = false;
      ++n.frames_done;
      break;
    case aShutdown:
      n.shutdown_sent = true;
      for (int v = 0; v < W; ++v) {
        if (n.sup[v].dead || n.sup[v].demoted) continue;
        n.down[v].push_back({SeqMsg::Kind::kShutdown, -1, -1, 0, 0});
      }
      break;
    default:
      break;
  }
  return n;
}

bool ResurrectionModel::accepting(const State& s) const {
  if (!s.shutdown_sent || s.frames_done < static_cast<std::int8_t>(scenario_.frames)) {
    return false;
  }
  for (int w = 0; w < scenario_.workers; ++w) {
    const Phase p = s.worker[w].phase;
    if (p != Phase::kExited && p != Phase::kCrashed) return false;
  }
  return true;
}

std::optional<check::Diagnostic> ResurrectionModel::violation(const State& s) const {
  const auto diag = [](std::string msg) {
    check::Diagnostic d;
    d.code = check::Diagnostic::Code::kInvariant;
    d.message = std::move(msg);
    return d;
  };
  switch (s.bad) {
    case BadState::kDuplicateDelivery:
      return diag("a frame was deposited twice into the same mailbox");
    case BadState::kDoublePromotion:
      return diag("one incarnation of a rank was promoted twice");
    case BadState::kStaleDelivery:
      return diag("a dead incarnation's frame was deposited under a newer roster");
    case BadState::kDoubleResurrection:
      return diag("a rank was resurrected while an incarnation of it was alive");
    case BadState::kSeqReuse:
      return diag("one (rank, generation, seq) was delivered twice across incarnations");
    default:
      break;
  }
  if (!accepting(s)) return std::nullopt;

  // Final-state invariants. Every frame that was neither faulted mid-flight
  // nor opened degraded must have delivered each of its ring messages
  // exactly once — including frames *after* a resurrection: the respawned
  // rank's rejoin must leave no hole.
  const int W = scenario_.workers;
  for (int f = 0; f < scenario_.frames; ++f) {
    const bool whole = (s.faulted_frames & (1U << f)) == 0 &&
                       (s.degraded_frames & (1U << f)) == 0;
    if (!whole) continue;
    for (int round = 0; round < scenario_.stages; ++round) {
      for (int r = 0; r < W; ++r) {
        const int id = frame_id(f, round, r);
        if (s.delivered[static_cast<std::size_t>(id)] != 1) {
          return diag("frame " + std::to_string(f) + " message #" + std::to_string(id) +
                      " was not delivered exactly once although the frame was whole");
        }
      }
    }
  }
  if (!s.any_failure) {
    for (int w = 0; w < W; ++w) {
      if (s.worker[w].phase != Phase::kExited ||
          s.worker[w].frames_completed != static_cast<std::int8_t>(scenario_.frames)) {
        return diag("worker " + std::to_string(w) +
                    " did not complete every frame although no rank failed");
      }
    }
  }
  return std::nullopt;
}

void ResurrectionModel::encode(const State& s, std::string& out) const {
  out.clear();
  const int W = scenario_.workers;
  const auto put_queue = [&](const std::vector<SeqMsg>& q) {
    put8(out, static_cast<std::uint8_t>(q.size()));
    for (const SeqMsg& m : q) {
      put8(out, static_cast<std::uint8_t>(m.kind));
      put8(out, static_cast<std::uint8_t>(m.a));
      put8(out, static_cast<std::uint8_t>(m.b));
      put8(out, static_cast<std::uint8_t>(m.gen));
      put8(out, static_cast<std::uint8_t>(m.seq));
    }
  };
  for (int w = 0; w < W; ++w) {
    const Worker& wk = s.worker[w];
    put8(out, static_cast<std::uint8_t>(wk.phase));
    put8(out, static_cast<std::uint8_t>(wk.gen));
    put8(out, static_cast<std::uint8_t>(wk.next_seq));
    put8(out, static_cast<std::uint8_t>(wk.pc));
    put8(out, static_cast<std::uint8_t>(wk.frame));
    put8(out, static_cast<std::uint8_t>(wk.frames_completed));
    put8(out, static_cast<std::uint8_t>((wk.poisoned ? 1 : 0) | (wk.shutdown_seen ? 2 : 0) |
                                        (wk.roster_degraded ? 4 : 0) | (wk.stalled ? 8 : 0) |
                                        (wk.dup_hello_sent ? 16 : 0)));
    for (int v = 0; v < W; ++v) {
      put8(out, static_cast<std::uint8_t>(wk.roster_gen[static_cast<std::size_t>(v)]));
    }
    put8(out, static_cast<std::uint8_t>(wk.mailbox.size()));
    for (const std::int8_t id : wk.mailbox) put8(out, static_cast<std::uint8_t>(id));

    const Sup& sp = s.sup[w];
    put8(out, static_cast<std::uint8_t>(sp.gen));
    put8(out, static_cast<std::uint8_t>(sp.respawns));
    put8(out, static_cast<std::uint8_t>((sp.promoted ? 1 : 0) | (sp.dead ? 2 : 0) |
                                        (sp.demoted ? 4 : 0) | (sp.frame_done ? 8 : 0)));
    put_queue(s.up[w]);
    put_queue(s.down[w]);
    put_queue(s.limbo[w]);
    put8(out, static_cast<std::uint8_t>(s.seen_seq[w] & 0xFF));
    put8(out, static_cast<std::uint8_t>(s.seen_seq[w] >> 8));
  }
  for (int id = 0; id < scenario_.frames * scenario_.stages * W; ++id) {
    put8(out, static_cast<std::uint8_t>(s.delivered[static_cast<std::size_t>(id)]));
  }
  put8(out, static_cast<std::uint8_t>(s.frame));
  put8(out, static_cast<std::uint8_t>(s.frames_done));
  put8(out, s.faulted_frames);
  put8(out, s.degraded_frames);
  put8(out, static_cast<std::uint8_t>((s.frame_active ? 1 : 0) |
                                      (s.shutdown_sent ? 2 : 0) |
                                      (s.any_failure ? 4 : 0)));
  put8(out, static_cast<std::uint8_t>(s.stale_rejects));
  put8(out, static_cast<std::uint8_t>(s.crash_budget));
  put8(out, static_cast<std::uint8_t>(s.bad));
}

std::string ResurrectionModel::describe(const Action& act) const {
  const std::string w = "worker " + std::to_string(act.a);
  const auto msg_kind = [&]() -> std::string {
    switch (static_cast<SeqMsg::Kind>(act.b)) {
      case SeqMsg::Kind::kHello: return "hello";
      case SeqMsg::Kind::kData: return "data";
      case SeqMsg::Kind::kFrameStart: return "frame-start";
      case SeqMsg::Kind::kFrameDone: return "frame-done";
      case SeqMsg::Kind::kPeerFailed: return "peer-failed";
      case SeqMsg::Kind::kShutdown: return "shutdown";
    }
    return "?";
  };
  switch (act.kind) {
    case aConnect: return w + ": connect and send hello (with generation)";
    case aDupHello: return w + ": send duplicate hello";
    case aSend:
      return w + ": send frame message #" + std::to_string(act.b) + " to rank " +
             std::to_string((act.a + 1) % scenario_.workers);
    case aRecv: return w + ": receive frame message #" + std::to_string(act.b);
    case aAbortFrame:
      return w + ": poisoned at receive, frame-done(aborted) for frame " +
             std::to_string(act.b);
    case aFrameDone: return w + ": frame " + std::to_string(act.b) + " complete, frame-done";
    case aExit: return w + ": shutdown seen, exit";
    case aCrash: return w + ": crashes (SIGKILL) mid-frame";
    case aStall: return w + ": stalls (SIGSTOP) mid-frame";
    case aPump: return w + " reader: deliver " + msg_kind() + " from the down link";
    case aSupPump:
      return "supervisor: pump " + msg_kind() + " from " + w + "'s uplink";
    case aLimboPump:
      return "supervisor: read delayed " + msg_kind() + " of " + w + "'s dead incarnation";
    case aSupReap: return "supervisor: reap crashed " + w + ", broadcast peer-failed";
    case aWatchdog:
      return "supervisor: heartbeat watchdog fails silent " + w + ", broadcast peer-failed";
    case aRespawn: return "supervisor: boundary respawn of " + w + " (generation + 1)";
    case aDemote: return "supervisor: respawn budget dry, demote " + w + " for good";
    case aFrameOpen:
      return "supervisor: open frame " + std::to_string(act.b) + ", broadcast frame-start";
    case aSettle:
      return "supervisor: frame " + std::to_string(act.b) + " settled on every live rank";
    case aShutdown: return "supervisor: sequence over, broadcast shutdown";
    default: return "?";
  }
}

// ---------------------------------------------------------------------------
// RetransmitModel
// ---------------------------------------------------------------------------

namespace {
// Retransmit-model resources (sender, receiver, adversary actors 0/1/2).
constexpr std::uint32_t kCh = 1;
constexpr std::uint32_t kNakQ = 2;
constexpr std::uint32_t kSnd = 4;
constexpr std::uint32_t kRcv = 8;
constexpr std::uint32_t kDamage = 16;
constexpr std::int16_t kSenderActor = 0;
constexpr std::int16_t kReceiverActor = 1;
constexpr std::int16_t kAdversaryActor = 2;
}  // namespace

RetransmitModel::RetransmitModel(Scenario scenario) : scenario_(std::move(scenario)) {}

RetransmitModel::State RetransmitModel::initial() const {
  State s;
  s.damage_budget = static_cast<std::int8_t>(scenario_.damage_budget);
  s.nak_budget = static_cast<std::int8_t>(2 * scenario_.damage_budget + 4);
  return s;
}

void RetransmitModel::enumerate(const State& s, std::vector<Action>& out) const {
  out.clear();
  const int k = scenario_.messages;
  const int cap = k + 2;
  const auto push = [&](std::int16_t actor, std::int16_t kind, int a, int b,
                        std::uint32_t touches) {
    Action act;
    act.actor = actor;
    act.kind = kind;
    act.a = static_cast<std::int16_t>(a);
    act.b = static_cast<std::int16_t>(b);
    act.touches = touches;
    out.push_back(act);
  };

  if (s.next_send < k && static_cast<int>(s.channel.size()) < cap) {
    push(kSenderActor, sSend, -1, s.next_send, kSnd | kCh);
  }
  if (!s.naks.empty() && static_cast<int>(s.channel.size()) < cap) {
    push(kSenderActor, sRetx, -1, s.naks.front(), kSnd | kNakQ | kCh);
  }
  for (int i = 0; i < static_cast<int>(s.channel.size()); ++i) {
    if (s.damage_budget > 0) {
      push(kAdversaryActor, eDrop, i, s.channel[static_cast<std::size_t>(i)].seq,
           kCh | kDamage);
      if (!s.channel[static_cast<std::size_t>(i)].corrupted) {
        push(kAdversaryActor, eCorrupt, i, s.channel[static_cast<std::size_t>(i)].seq,
             kCh | kDamage);
      }
    }
    push(kReceiverActor, rTake, i, s.channel[static_cast<std::size_t>(i)].seq,
         kRcv | kCh | kNakQ);
  }
  if (s.channel.empty() && s.naks.empty() && s.next_send >= k && s.expected < k &&
      !s.abandoned) {
    push(kReceiverActor, rTimeoutNak, -1, s.expected, kRcv | kCh | kNakQ | kSnd);
  }
}

RetransmitModel::State RetransmitModel::apply(const State& s, const Action& act) const {
  State n = s;
  const int k = scenario_.messages;
  const auto bit = [](int seq) { return static_cast<std::uint8_t>(1U << seq); };
  const auto nak = [&](int seq) {
    if (std::find(n.naks.begin(), n.naks.end(), static_cast<std::int8_t>(seq)) !=
        n.naks.end()) {
      return;  // already queued for retransmission
    }
    if (n.nak_budget <= 0) {
      n.abandoned = true;  // retry exhaustion: RetryExhaustedError territory
      return;
    }
    --n.nak_budget;
    n.naks.push_back(static_cast<std::int8_t>(seq));
  };

  switch (act.kind) {
    case sSend:
      n.channel.push_back({n.next_send, false});
      ++n.next_send;
      break;
    case sRetx: {
      const std::int8_t seq = n.naks.front();
      n.naks.erase(n.naks.begin());
      if (scenario_.mutant == Mutant::kRenumberRetransmit) {
        // Defect: a fresh envelope instead of the stored original.
        n.channel.push_back({n.next_send, false});
        ++n.next_send;
      } else {
        n.channel.push_back({seq, false});
      }
      break;
    }
    case eDrop:
      n.channel.erase(n.channel.begin() + act.a);
      --n.damage_budget;
      break;
    case eCorrupt:
      n.channel[static_cast<std::size_t>(act.a)].corrupted = true;
      --n.damage_budget;
      break;
    case rTake: {
      const Packet p = n.channel[static_cast<std::size_t>(act.a)];
      n.channel.erase(n.channel.begin() + act.a);
      if (p.seq >= static_cast<std::int8_t>(k)) {
        // A sequence number the protocol never issued for this window:
        // only a renumbered retransmit can produce it.
        n.bad = BadState::kRenumberedSeq;
        break;
      }
      if (p.corrupted) {
        if (scenario_.mutant == Mutant::kAckBeforeDeposit && p.seq >= n.expected) {
          // Defect: cursor advanced before the envelope was validated.
          n.expected = static_cast<std::int8_t>(p.seq + 1);
        }
        nak(p.seq);
        break;
      }
      if (p.seq < n.expected) break;  // duplicate: already deposited
      if (p.seq == n.expected) {
        n.delivered = static_cast<std::uint8_t>(n.delivered | bit(p.seq));
        ++n.expected;
        while (n.expected < static_cast<std::int8_t>(k) &&
               (n.stashed & bit(n.expected)) != 0) {
          n.stashed = static_cast<std::uint8_t>(n.stashed & ~bit(n.expected));
          n.delivered = static_cast<std::uint8_t>(n.delivered | bit(n.expected));
          ++n.expected;
        }
        break;
      }
      // Ahead of sequence: stash and NAK the gap head.
      if ((n.stashed & bit(p.seq)) == 0) {
        n.stashed = static_cast<std::uint8_t>(n.stashed | bit(p.seq));
      }
      nak(n.expected);
      break;
    }
    case rTimeoutNak:
      nak(act.b);
      break;
    default:
      break;
  }
  return n;
}

bool RetransmitModel::accepting(const State& s) const {
  const int k = scenario_.messages;
  const auto full = static_cast<std::uint8_t>((1U << k) - 1U);
  return s.expected >= static_cast<std::int8_t>(k) && s.delivered == full &&
         s.next_send >= static_cast<std::int8_t>(k) && s.channel.empty() &&
         s.naks.empty() && !s.abandoned;
}

std::optional<check::Diagnostic> RetransmitModel::violation(const State& s) const {
  const auto diag = [](std::string msg) {
    check::Diagnostic d;
    d.code = check::Diagnostic::Code::kInvariant;
    d.message = std::move(msg);
    return d;
  };
  if (s.bad == BadState::kRenumberedSeq) {
    return diag("retransmit carried a renumbered sequence (not the stored original)");
  }
  // Cursor integrity: every sequence the receive cursor has passed must have
  // been deposited — acknowledging an envelope that never reached the
  // mailbox silently loses its payload.
  const int upto = std::min<int>(s.expected, scenario_.messages);
  for (int seq = 0; seq < upto; ++seq) {
    if ((s.delivered & (1U << seq)) == 0) {
      return diag("receive cursor passed seq " + std::to_string(seq) +
                  " but its payload was never deposited");
    }
  }
  return std::nullopt;
}

void RetransmitModel::encode(const State& s, std::string& out) const {
  out.clear();
  put8(out, static_cast<std::uint8_t>(s.next_send));
  put8(out, static_cast<std::uint8_t>(s.expected));
  put8(out, s.delivered);
  put8(out, s.stashed);
  put8(out, static_cast<std::uint8_t>(s.channel.size()));
  for (const Packet& p : s.channel) {
    put8(out, static_cast<std::uint8_t>(p.seq));
    put8(out, p.corrupted ? 1 : 0);
  }
  put8(out, static_cast<std::uint8_t>(s.naks.size()));
  for (const std::int8_t q : s.naks) put8(out, static_cast<std::uint8_t>(q));
  put8(out, static_cast<std::uint8_t>(s.damage_budget));
  put8(out, static_cast<std::uint8_t>(s.nak_budget));
  put8(out, static_cast<std::uint8_t>((s.abandoned ? 1 : 0)));
  put8(out, static_cast<std::uint8_t>(s.bad));
}

std::string RetransmitModel::describe(const Action& act) const {
  const std::string seq = "seq " + std::to_string(act.b);
  switch (act.kind) {
    case sSend: return "sender: emit envelope " + seq;
    case sRetx: return "sender: retransmit " + seq + " from the in-flight store";
    case eDrop: return "adversary: drop in-flight envelope " + seq;
    case eCorrupt: return "adversary: corrupt in-flight envelope " + seq;
    case rTake: return "receiver: take envelope " + seq + " off the channel";
    case rTimeoutNak: return "receiver: drop-detect timeout, NAK " + seq;
    default: return "?";
  }
}

}  // namespace slspvr::model
