#include "mp/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iterator>
#include <optional>
#include <utility>

namespace slspvr::mp {

namespace {

using steady = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Per-connection state: the link itself, its incremental parser, and the
/// outbound queue with partial-write resume.
struct Link {
  Fd fd;
  FrameReader reader;
  std::deque<std::vector<std::byte>> outbound;
  std::size_t out_off = 0;  ///< bytes of outbound.front() already written
  steady::time_point last_heard{};
  int stage = 0;      ///< last stage heard via heartbeat
  bool done = false;  ///< kGoodbye received
  bool failed = false;
  bool closed = false;
};

/// Drain everything currently readable from a nonblocking link.
/// `on_frame(Frame&&)` per parsed frame; `on_down(reason)` once on EOF,
/// reset or stream damage.
template <typename OnFrame, typename OnDown>
void pump_in(Link& link, OnFrame&& on_frame, OnDown&& on_down) {
  for (;;) {
    std::byte buf[65536];
    const ssize_t n = ::recv(link.fd.get(), buf, sizeof buf, 0);
    if (n > 0) {
      link.reader.feed(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      try {
        while (auto frame = link.reader.next()) on_frame(std::move(*frame));
      } catch (const TransportError& e) {
        on_down(std::string("stream damage: ") + e.what());
        return;
      }
      if (n < static_cast<ssize_t>(sizeof buf)) return;  // socket drained
      continue;
    }
    if (n == 0) {
      on_down("connection closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    on_down(std::string("recv: ") + std::strerror(errno));
    return;
  }
}

/// Write as much queued outbound data as the socket accepts right now.
/// Returns false when the link broke (EPIPE/reset).
bool flush_out(Link& link) {
  while (!link.outbound.empty()) {
    const std::vector<std::byte>& front = link.outbound.front();
    const ssize_t n = ::send(link.fd.get(), front.data() + link.out_off,
                             front.size() - link.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    link.out_off += static_cast<std::size_t>(n);
    if (link.out_off == front.size()) {
      link.outbound.pop_front();
      link.out_off = 0;
    }
  }
  return true;
}

std::string signal_name(int signo) {
  switch (signo) {
    case SIGKILL: return " (SIGKILL)";
    case SIGSEGV: return " (SIGSEGV)";
    case SIGABRT: return " (SIGABRT)";
    case SIGTERM: return " (SIGTERM)";
    default: return "";
  }
}

}  // namespace

std::vector<std::byte> pack_roster(const FrameRoster& roster) {
  std::vector<std::byte> out;
  const auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  };
  put32(static_cast<std::uint32_t>(roster.generations.size()));
  for (const std::uint32_t g : roster.generations) put32(g);
  put32(static_cast<std::uint32_t>(roster.demoted.size()));
  for (const int d : roster.demoted) put32(static_cast<std::uint32_t>(d));
  return out;
}

FrameRoster parse_roster(int frame, std::span<const std::byte> payload) {
  FrameRoster roster;
  roster.frame = frame;
  std::size_t pos = 0;
  const auto get32 = [&]() -> std::uint32_t {
    if (payload.size() - pos < 4) throw TransportError("frame roster truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(payload[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  };
  const std::uint32_t n = get32();
  if (n == 0 || n > 4096) {
    throw TransportError("frame roster: implausible rank count " + std::to_string(n));
  }
  roster.generations.resize(n);
  for (std::uint32_t& g : roster.generations) g = get32();
  const std::uint32_t d = get32();
  if (d > n) throw TransportError("frame roster: more demotions than ranks");
  roster.demoted.resize(d);
  for (int& r : roster.demoted) {
    r = static_cast<int>(get32());
    if (r < 0 || r >= static_cast<int>(n)) {
      throw TransportError("frame roster: demoted rank out of range");
    }
  }
  if (pos != payload.size()) throw TransportError("frame roster: trailing bytes");
  return roster;
}

// The hub-and-spoke router: workers stay resident across `seq.frames`
// rendering frames behind kFrameStart/kFrameDone barriers, and a rank whose
// process dies is resurrected at the next frame boundary — fork with
// generation+1 under jittered backoff — instead of being lost for the rest
// of the run. A single-frame run is a one-frame sequence.
SequenceOutcome Supervisor::run_sequence(const SupervisorOptions& opts,
                                         const SequenceOptions& seq,
                                         const SequenceWorkerBody& body) {
  if (opts.procs <= 0) throw TransportError("Supervisor: procs must be positive");
  if (seq.frames <= 0) throw TransportError("Supervisor: frames must be positive");

  Fd listener = listen_at(opts.endpoint, opts.procs);
  set_nonblocking(listener.get());
  SequenceOutcome out;
  out.endpoint = bound_endpoint(listener, opts.endpoint);

  const int procs = opts.procs;
  const std::size_t np = static_cast<std::size_t>(procs);
  const auto t0 = steady::now();

  std::vector<pid_t> pids(np, -1);
  std::vector<bool> reaped(np, true);  // flips to false at each fork
  out.generations.assign(np, 0);
  std::vector<int> respawns_used(np, 0);
  std::vector<bool> demoted(np, false);
  std::vector<bool> dead(np, false);  // process gone; resurrection candidate
  // Reaped with exit code 0 before its goodbye was read off the socket.
  // kShutdown precedes the goodbyes, so a worker may exit while its
  // farewell still sits in the socket buffer — judgment on those ranks is
  // deferred until the link EOF has drained the buffered frames.
  std::vector<bool> clean_exit(np, false);
  std::vector<std::optional<steady::time_point>> respawn_at(np);
  std::vector<std::optional<steady::time_point>> rejoin_by(np);

  std::vector<Link> ranks(np);
  for (Link& link : ranks) link.last_heard = t0;
  std::vector<Link> pending;

  int frame = -1;  // active frame index; -1 = between frames
  int next_frame = 0;
  bool frame_active = false;
  std::vector<bool> frame_done(np, false);
  std::vector<WorkerFailure> failures_accum;  // drained into each FrameOutcome
  std::vector<WorkerFailure> boundary_accum;  // failures between frames
  std::vector<WorkerFailure> boundary_carry;  // boundary_accum at frame open
  std::vector<WorkerReport> reports_accum;
  // Opening of the grace window for failed-but-alive ranks that still owe
  // kFrameDone; the clock's epoch while no window is open.
  steady::time_point settle_grace{};
  bool initial_window_closed = false;

  const auto rank_link = [&](int r) -> Link& { return ranks[static_cast<std::size_t>(r)]; };

  const auto observe = [&](ProtocolEvent::Kind kind, int r, int count = 0,
                           std::string detail = {}) {
    if (!opts.observer) return;
    ProtocolEvent ev;
    ev.kind = kind;
    ev.rank = r;
    ev.count = count;
    ev.detail = std::move(detail);
    opts.observer(ev);
  };

  // Fork rank r's current incarnation. The child must not inherit any live
  // worker link (a respawn fork happens while siblings are connected; a
  // leaked fd would mask their EOFs), so every link is closed before the
  // body runs.
  const auto fork_child = [&](int r) -> bool {
    const std::size_t i = static_cast<std::size_t>(r);
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      listener.reset();
      for (Link& l : ranks) l.fd.reset();
      for (Link& l : pending) l.fd.reset();
      int code = kWorkerExitError;
      try {
        code = body(r, out.generations[i], out.endpoint);
      } catch (...) {
        code = kWorkerExitError;
      }
      std::_Exit(code);
    }
    pids[i] = pid;
    reaped[i] = false;
    return true;
  };

  for (int r = 0; r < procs; ++r) {
    if (!fork_child(r)) {
      const std::string err = std::strerror(errno);
      for (int k = 0; k < r; ++k) (void)::kill(pids[static_cast<std::size_t>(k)], SIGKILL);
      for (int k = 0; k < r; ++k) (void)::waitpid(pids[static_cast<std::size_t>(k)], nullptr, 0);
      throw TransportError("fork: " + err);
    }
  }

  const auto mark_failed = [&](int r, const std::string& reason) {
    Link& w = rank_link(r);
    if (w.failed || w.done) return;
    w.failed = true;
    // In-frame failures fault the frame; boundary failures (failed
    // resurrections, rejoin timeouts) are provenance for the next frame's
    // outcome but must not mark it faulted — the frame only opens once the
    // rank is live again or demoted.
    (frame_active ? failures_accum : boundary_accum).push_back({r, w.stage, reason});
    observe(ProtocolEvent::Kind::kFailureRecorded, r, 0, reason);
    // Poison the survivors only while a frame is computing; a death between
    // frames reaches everyone through the next roster instead.
    if (!frame_active) return;
    Frame pf;
    pf.kind = FrameKind::kPeerFailed;
    pf.source = r;
    pf.tag = w.stage;
    pf.payload.resize(reason.size());
    std::memcpy(pf.payload.data(), reason.data(), reason.size());
    const std::vector<std::byte> wire = pack_frame(pf);
    for (int o = 0; o < procs; ++o) {
      Link& peer = rank_link(o);
      if (o == r || peer.failed || peer.closed || !peer.fd.valid()) continue;
      peer.outbound.push_back(wire);
    }
  };

  const auto fail = [&](int r, const std::string& reason) {
    const std::size_t i = static_cast<std::size_t>(r);
    Link& w = rank_link(r);
    if (w.done && !w.failed) return;
    mark_failed(r, reason);
    if (!reaped[i]) (void)::kill(pids[i], SIGKILL);
    w.fd.reset();
    w.closed = true;
    w.outbound.clear();
    dead[i] = true;
    rejoin_by[i].reset();
  };

  const auto exit_provenance = [&](int r) -> std::optional<std::string> {
    const std::size_t i = static_cast<std::size_t>(r);
    if (reaped[i]) return std::nullopt;
    for (int spin = 0; spin < 50; ++spin) {
      int status = 0;
      if (::waitpid(pids[i], &status, WNOHANG) == pids[i]) {
        reaped[i] = true;
        if (WIFSIGNALED(status)) {
          return "killed by signal " + std::to_string(WTERMSIG(status)) +
                 signal_name(WTERMSIG(status));
        }
        if (WIFEXITED(status)) {
          const int code = WEXITSTATUS(status);
          if (code != kWorkerExitClean && code != kWorkerExitAborted) {
            return "worker exited with code " + std::to_string(code);
          }
          return std::nullopt;
        }
        return std::nullopt;
      }
      ::usleep(10'000);
    }
    return std::nullopt;
  };

  const auto handle_frame = [&](int r, Frame&& f) {
    const std::size_t i = static_cast<std::size_t>(r);
    Link& w = rank_link(r);
    // Incarnation safety: the link was promoted for exactly one generation;
    // anything else on it is a dead incarnation's leftover (or a confused
    // worker) and must neither deliver nor refresh liveness.
    if (f.generation != out.generations[i]) {
      ++out.stale_rejects;
      observe(ProtocolEvent::Kind::kStaleRejected, r, static_cast<int>(f.generation));
      return;
    }
    w.last_heard = steady::now();
    switch (f.kind) {
      case FrameKind::kData: {
        if (f.dest < 0 || f.dest >= procs) break;
        if (demoted[static_cast<std::size_t>(f.dest)]) break;
        Link& d = rank_link(f.dest);
        // Drop kData for a failed, closed or unpromoted rank: a frame opens
        // only once every live rank is promoted, so nothing waits for a hello.
        if (d.failed || d.closed || !d.fd.valid()) break;
        d.outbound.push_back(pack_frame(f));
        break;
      }
      case FrameKind::kHeartbeat:
        w.stage = f.tag;
        break;
      case FrameKind::kReport:
        reports_accum.push_back({r, f.tag, std::move(f.payload)});
        break;
      case FrameKind::kGoodbye:
        w.done = true;
        observe(ProtocolEvent::Kind::kGoodbye, r);
        break;
      case FrameKind::kFailed:
        w.stage = f.tag;
        mark_failed(r, std::string(reinterpret_cast<const char*>(f.payload.data()),
                                   f.payload.size()));
        break;
      case FrameKind::kFrameDone:
        if (frame_active && f.tag == frame) frame_done[i] = true;
        break;
      case FrameKind::kHello:
        break;  // duplicate hello: harmless
      default:
        fail(r, "protocol violation: unexpected frame kind from worker");
        break;
    }
  };

  const auto link_down = [&](int r, const std::string& reason) {
    const std::size_t i = static_cast<std::size_t>(r);
    Link& w = rank_link(r);
    if (w.done) {
      w.fd.reset();
      w.closed = true;
      return;
    }
    if (clean_exit[i]) {
      // Already reaped with exit code 0, and the drained stream held no
      // goodbye after all: now the protocol violation is certain.
      fail(r, "exited before sending goodbye");
      return;
    }
    const std::optional<std::string> provenance = exit_provenance(r);
    fail(r, provenance ? *provenance : reason);
  };

  bool shutdown_broadcast = false;
  std::optional<steady::time_point> drain_start;

  for (;;) {
    const auto now = steady::now();

    // Reap any child that exited on its own.
    for (int r = 0; r < procs; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (reaped[i]) continue;
      int status = 0;
      if (::waitpid(pids[i], &status, WNOHANG) != pids[i]) continue;
      reaped[i] = true;
      Link& w = rank_link(r);
      if (WIFSIGNALED(status)) {
        fail(r, "killed by signal " + std::to_string(WTERMSIG(status)) +
                    signal_name(WTERMSIG(status)));
      } else if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == kWorkerExitClean) {
          // A clean exit can be reaped before its goodbye is read off the
          // socket (kShutdown precedes the goodbyes).
          // While the link is still live, let the EOF path drain the
          // buffered frames and pass judgment; only a link already gone
          // without a goodbye is a certain violation.
          if (!w.done) {
            if (w.fd.valid() && !w.closed) {
              clean_exit[i] = true;
            } else {
              fail(r, "exited before sending goodbye");
            }
          }
        } else if (code != kWorkerExitAborted) {
          fail(r, "worker exited with code " + std::to_string(code));
        }
      }
    }

    // Generation-0 workers that never connected for the opening roster.
    if (!initial_window_closed && now - t0 > opts.accept_deadline) {
      initial_window_closed = true;
      for (int r = 0; r < procs; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        if (out.generations[i] == 0 && !rank_link(r).fd.valid() && !dead[i] && !demoted[i]) {
          fail(r, "never connected within the accept deadline (" +
                      std::to_string(opts.accept_deadline.count()) + " ms)");
        }
      }
    }

    // A respawned child that never said hello burned its resurrection.
    for (int r = 0; r < procs; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (!rejoin_by[i] || rank_link(r).fd.valid()) continue;
      if (now > *rejoin_by[i]) {
        fail(r, "respawned worker (generation " + std::to_string(out.generations[i]) +
                    ") never rejoined within " +
                    std::to_string(seq.respawn.rejoin_deadline.count()) + " ms");
      }
    }

    // Heartbeat watchdog.
    for (int r = 0; r < procs; ++r) {
      Link& w = rank_link(r);
      if (!w.fd.valid() || w.done || w.failed) continue;
      const auto silent =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - w.last_heard);
      if (silent > opts.heartbeat_timeout) {
        fail(r, "heartbeat timeout: silent for " + std::to_string(silent.count()) + " ms");
      }
    }

    // Frame barrier: the frame settles when every surviving rank has sent
    // its kFrameDone. Ranks that died mid-frame never will; a failed-but-
    // alive rank (kFailed announcement) still owes one — bounded by a grace
    // window so a wedged announcer cannot stall the sequence.
    if (frame_active) {
      bool healthy_pending = false;
      bool failed_pending = false;
      for (int r = 0; r < procs; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        if (demoted[i] || dead[i]) continue;
        Link& w = rank_link(r);
        if (w.closed || frame_done[i]) continue;
        (w.failed ? failed_pending : healthy_pending) = true;
      }
      if (!healthy_pending && failed_pending) {
        if (settle_grace == steady::time_point{}) {
          settle_grace = now;
        } else if (now - settle_grace > opts.drain_deadline) {
          for (int r = 0; r < procs; ++r) {
            const std::size_t i = static_cast<std::size_t>(r);
            if (demoted[i] || dead[i] || frame_done[i] || rank_link(r).closed) continue;
            fail(r, "failed worker never closed frame " + std::to_string(frame));
          }
          failed_pending = false;
        }
      }
      if (!healthy_pending && !failed_pending) {
        observe(ProtocolEvent::Kind::kFrameSettled, -1, frame);
        FrameOutcome fo;
        fo.frame = frame;
        fo.failures = std::move(failures_accum);
        failures_accum.clear();
        fo.boundary_failures = std::move(boundary_carry);
        boundary_carry.clear();
        fo.reports = std::move(reports_accum);
        reports_accum.clear();
        fo.generations = out.generations;
        for (int r = 0; r < procs; ++r) {
          if (demoted[static_cast<std::size_t>(r)]) fo.demoted.push_back(r);
        }
        out.frames.push_back(std::move(fo));
        frame_active = false;
        frame = -1;
        settle_grace = {};
        next_frame = static_cast<int>(out.frames.size());
      }
    }

    // Frame boundary: resurrect the dead (or open the circuit breaker),
    // then open the next frame once the roster is whole again. Past the
    // last frame there is nothing left to resurrect for — go straight to
    // shutdown over whatever links are still live.
    if (!frame_active && !shutdown_broadcast && next_frame >= seq.frames) {
      shutdown_broadcast = true;
      drain_start = now;
      observe(ProtocolEvent::Kind::kShutdownBroadcast, -1);
      Frame sd;
      sd.kind = FrameKind::kShutdown;
      const std::vector<std::byte> wire = pack_frame(sd);
      for (int r = 0; r < procs; ++r) {
        Link& w = rank_link(r);
        if (w.fd.valid() && !w.closed) w.outbound.push_back(wire);
      }
    }
    if (!frame_active && !shutdown_broadcast) {
      for (int r = 0; r < procs; ++r) {
        const std::size_t i = static_cast<std::size_t>(r);
        if (!dead[i] || demoted[i]) continue;
        if (!respawn_at[i]) {
          if (respawns_used[i] >= seq.respawn.max_respawns_per_rank) {
            demoted[i] = true;
            observe(ProtocolEvent::Kind::kDemoted, r, respawns_used[i]);
            continue;
          }
          ++respawns_used[i];
          RetryPolicy backoff;
          backoff.base_delay = seq.respawn.base_delay;
          respawn_at[i] = now + backoff_delay(backoff, respawns_used[i], r);
          continue;
        }
        if (now < *respawn_at[i]) continue;
        // The slot must be truly free before the successor takes it: the
        // predecessor was SIGKILLed in fail(), so this wait is bounded.
        if (!reaped[i]) {
          int status = 0;
          (void)::waitpid(pids[i], &status, 0);
          reaped[i] = true;
        }
        ranks[i] = Link{};
        ranks[i].last_heard = now;
        respawn_at[i].reset();
        clean_exit[i] = false;  // the flag belonged to the dead incarnation
        ++out.generations[i];
        if (fork_child(r)) {
          dead[i] = false;
          rejoin_by[i] = now + seq.respawn.rejoin_deadline;
          observe(ProtocolEvent::Kind::kRespawned, r, static_cast<int>(out.generations[i]));
        }
        // fork failure: dead stays set; the next boundary pass schedules
        // another attempt or demotes once the budget is gone.
      }

      bool ready = true;
      for (int r = 0; r < procs; ++r) {
        if (!demoted[static_cast<std::size_t>(r)] && !rank_link(r).fd.valid()) ready = false;
      }
      if (ready) {
        frame = next_frame;
        frame_active = true;
        std::fill(frame_done.begin(), frame_done.end(), false);
        settle_grace = {};
        boundary_carry = std::move(boundary_accum);
        boundary_accum.clear();
        FrameRoster roster;
        roster.frame = frame;
        roster.generations = out.generations;
        for (int r = 0; r < procs; ++r) {
          if (demoted[static_cast<std::size_t>(r)]) roster.demoted.push_back(r);
        }
        Frame fs;
        fs.kind = FrameKind::kFrameStart;
        fs.tag = frame;
        fs.payload = pack_roster(roster);
        const std::vector<std::byte> wire = pack_frame(fs);
        for (int r = 0; r < procs; ++r) {
          Link& w = rank_link(r);
          if (!w.fd.valid() || w.closed) continue;
          w.failed = false;  // a fresh frame resets per-frame failure state
          w.done = false;
          w.outbound.push_back(wire);
        }
        observe(ProtocolEvent::Kind::kFrameOpened, -1, frame);
      }
    }

    if (shutdown_broadcast) {
      bool all_closed = true;
      for (int r = 0; r < procs; ++r) {
        if (rank_link(r).fd.valid() && !rank_link(r).closed) all_closed = false;
      }
      if (all_closed || now - *drain_start > opts.drain_deadline) break;
    }

    // Poll set: the listener stays registered for the whole sequence —
    // respawned workers reconnect at any boundary, not only at startup.
    std::vector<pollfd> pfds;
    std::vector<int> who;
    if (!shutdown_broadcast) {
      pfds.push_back({listener.get(), POLLIN, 0});
      who.push_back(-1);
    }
    for (std::size_t k = 0; k < pending.size(); ++k) {
      pfds.push_back({pending[k].fd.get(), POLLIN, 0});
      who.push_back(-(2 + static_cast<int>(k)));
    }
    for (int r = 0; r < procs; ++r) {
      Link& w = rank_link(r);
      if (!w.fd.valid() || w.closed) continue;
      const short events =
          static_cast<short>(POLLIN | (w.outbound.empty() ? 0 : POLLOUT));
      pfds.push_back({w.fd.get(), events, 0});
      who.push_back(r);
    }
    if (::poll(pfds.data(), pfds.size(), 20) < 0 && errno != EINTR) {
      throw TransportError(std::string("poll: ") + std::strerror(errno));
    }

    std::vector<std::size_t> dead_pending;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      const int id = who[i];
      if (id == -1) {
        for (;;) {
          Fd conn(::accept(listener.get(), nullptr, nullptr));
          if (!conn.valid()) break;
          set_nonblocking(conn.get());
          Link link;
          link.fd = std::move(conn);
          link.last_heard = now;
          pending.push_back(std::move(link));
        }
        continue;
      }
      if (id <= -2) {
        const std::size_t k = static_cast<std::size_t>(-id - 2);
        Link& p = pending[k];
        int hello_rank = -1;
        bool down = false;
        pump_in(
            p,
            [&](Frame&& f) {
              if (hello_rank < 0) {
                if (f.kind != FrameKind::kHello || f.source < 0 || f.source >= procs ||
                    rank_link(f.source).fd.valid() ||
                    demoted[static_cast<std::size_t>(f.source)]) {
                  down = true;
                  return;
                }
                // A hello from a dead incarnation (its socket lingered past
                // the respawn) must not steal the successor's slot.
                if (f.generation != out.generations[static_cast<std::size_t>(f.source)]) {
                  ++out.stale_rejects;
                  observe(ProtocolEvent::Kind::kStaleRejected, f.source,
                          static_cast<int>(f.generation));
                  down = true;
                  return;
                }
                hello_rank = f.source;
                return;
              }
              handle_frame(hello_rank, std::move(f));
            },
            [&](const std::string&) { down = true; });
        if (down) {
          dead_pending.push_back(k);
        } else if (hello_rank >= 0) {
          const std::size_t hi = static_cast<std::size_t>(hello_rank);
          Link& w = rank_link(hello_rank);
          w.fd = std::move(p.fd);
          w.reader = std::move(p.reader);
          w.last_heard = now;
          observe(ProtocolEvent::Kind::kPromoted, hello_rank);
          // No failure-history replay: a frame opens only once every live
          // rank is promoted, and its kFrameStart roster carries everything
          // a late joiner missed.
          // A pending rejoin deadline marks this promotion as a respawned
          // incarnation arriving (generation-0 first joins never set one).
          if (rejoin_by[hi]) ++out.respawns;
          dead[hi] = false;
          rejoin_by[hi].reset();
          dead_pending.push_back(k);
        }
        continue;
      }
      const int r = id;
      Link& w = rank_link(r);
      if (!w.fd.valid()) continue;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        pump_in(
            w, [&](Frame&& f) { handle_frame(r, std::move(f)); },
            [&](const std::string& reason) { link_down(r, reason); });
      }
      if (w.fd.valid() && !w.closed && (revents & POLLOUT) != 0) {
        if (!flush_out(w)) link_down(r, "connection reset while writing");
      }
    }
    for (auto it = dead_pending.rbegin(); it != dead_pending.rend(); ++it) {
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(*it));
    }

    for (int r = 0; r < procs; ++r) {
      Link& w = rank_link(r);
      if (!w.fd.valid() || w.closed || w.outbound.empty()) continue;
      if (!flush_out(w)) link_down(r, "connection reset while writing");
    }
  }

  for (int r = 0; r < procs; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    if (reaped[i]) continue;
    int status = 0;
    if (::waitpid(pids[i], &status, WNOHANG) == pids[i]) {
      reaped[i] = true;
      continue;
    }
    (void)::kill(pids[i], SIGKILL);
    (void)::waitpid(pids[i], &status, 0);
    reaped[i] = true;
  }

  for (int r = 0; r < procs; ++r) {
    if (demoted[static_cast<std::size_t>(r)]) out.demoted.push_back(r);
  }
  // Failures recorded after the last settle (e.g. a demotion racing the
  // shutdown) still deserve a home in the record.
  if (!boundary_accum.empty() && !out.frames.empty()) {
    FrameOutcome& last = out.frames.back();
    last.boundary_failures.insert(last.boundary_failures.end(),
                                  std::make_move_iterator(boundary_accum.begin()),
                                  std::make_move_iterator(boundary_accum.end()));
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(steady::now() - t0).count();
  return out;
}

}  // namespace slspvr::mp
