// Code-mirroring state machines for the socket supervisor's frame protocol
// and the envelope NAK/retransmit channel, checked exhaustively by
// model::explore (checker.hpp).
//
// ResurrectionModel mirrors, actor by actor, Supervisor::run_sequence and
// the resident worker loop (proc_runner.cpp + socket_transport.cpp):
//   * the supervisor poll loop: per-link pump, kData routing (dropped for a
//     dead, demoted or not-yet-promoted destination), promotion at kHello (a
//     duplicate kHello is ignored), kFrameStart once every live rank is
//     promoted and the kFrameDone barrier, waitpid reap and heartbeat
//     watchdog -> fail() -> kPeerFailed broadcast, boundary respawn under a
//     budget, circuit-breaker demotion, kShutdown once the last frame settled;
//   * the worker: connect -> kHello{generation} -> per frame a ring
//     exchange of `stages` rounds of sends and mailbox receives ->
//     kFrameDone -> ... -> exit on kShutdown, aborting a frame when its
//     context is poisoned;
//   * the worker-side reader thread: kFrameStart installs the roster,
//     generation-checked kData deposits into the local mailbox under
//     capacity backpressure (deposit blocks while the mailbox is full,
//     poison lifts the bound), kPeerFailed poisons.
// Crash (SIGKILL) and stall (SIGSTOP) actions are enabled per scenario. A
// one-frame scenario is the plain single-frame run.
//
// Heartbeats are abstracted: the model does not enqueue kHeartbeat frames
// (they carry no protocol state) — the watchdog is modelled as an action
// enabled once a worker is stalled.
//
// RetransmitModel mirrors envelope.hpp + the Comm retry path: a sender with
// an in-flight store, a lossy/reordering/corrupting channel with a bounded
// damage budget, and a receiver that deposits in-sequence envelopes, stashes
// ahead-of-sequence ones and NAKs gaps/corruption for retransmission.
//
// Mutants re-introduce real (fixed) defects or plant plausible ones; the
// checker must produce a counterexample for every mutant (scenarios.cpp
// pairs each scenario with the mutants it can catch).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/verify.hpp"
#include "model/checker.hpp"

namespace slspvr::model {

inline constexpr int kMaxWorkers = 4;

/// A seeded protocol defect. kNone is the shipped protocol; everything else
/// must be caught by the checker (mutation coverage for the model itself).
/// A new mutant goes into kAllMutants too.
enum class Mutant : std::uint8_t {
  kNone = 0,
  /// Record a failure without broadcasting kPeerFailed: survivors block.
  kSkipPoisonBroadcast,
  /// Re-run promotion on a duplicate kHello (the real supervisor ignores
  /// it): one incarnation is promoted twice.
  kDoublePromotion,
  /// Disable the heartbeat watchdog: a SIGSTOPped worker wedges the run.
  kNoWatchdog,
  /// Retransmit layer: advance the receive cursor before validating the
  /// envelope — a corrupt frame is acknowledged and its payload lost.
  kAckBeforeDeposit,
  /// Retransmit layer: give retransmitted envelopes fresh sequence numbers
  /// instead of the originals from the in-flight store.
  kRenumberRetransmit,
  /// Rejoin: drop the envelope generation check (supervisor and worker
  /// side) — a dead incarnation's delayed frame lands in a later frame.
  kDropGenerationCheck,
  /// Respawn: resurrect a rank that is not dead (the single-respawn-per-
  /// death guard removed) — two incarnations of one rank alive at once.
  kResurrectTwice,
  /// Respawn: fork the replacement without bumping the generation — its
  /// per-link sequence space restarts and collides with its predecessor's.
  kRespawnSameGeneration,
};

/// Every seeded defect, kNone excluded, in enumerator order: slspvr-model
/// --mutants fails when one of them is paired with no scenario.
inline constexpr std::array kAllMutants{
    Mutant::kSkipPoisonBroadcast, Mutant::kDoublePromotion,    Mutant::kNoWatchdog,
    Mutant::kAckBeforeDeposit,    Mutant::kRenumberRetransmit, Mutant::kDropGenerationCheck,
    Mutant::kResurrectTwice,      Mutant::kRespawnSameGeneration,
};
static_assert(static_cast<std::size_t>(kAllMutants.back()) == kAllMutants.size(),
              "kAllMutants lists every enumerator after kNone, in order");

[[nodiscard]] const char* mutant_name(Mutant m);

/// One checkable configuration: which protocol, how many actors, which
/// adversarial actions are armed, and which mutant (if any) is planted.
struct Scenario {
  enum class Kind : std::uint8_t { kResurrection, kRetransmit };

  std::string name;
  Kind kind = Kind::kResurrection;

  // --- supervision parameters ---
  int workers = 2;           ///< 2..kMaxWorkers
  int frames = 1;            ///< rendering frames in the sequence
  int stages = 1;            ///< ring-exchange rounds per worker and frame
  int mailbox_capacity = 0;  ///< 0 = unbounded (Mailbox semantics)
  int uplink_capacity = 3;   ///< worker->supervisor channel bound
  /// -1: crashes disabled; kMaxWorkers: any single worker may crash
  /// (nondeterministic choice); else: only this rank may crash.
  int crash_rank = -1;
  int crash_budget = 1;    ///< total mid-frame crashes the adversary gets
  int stall_rank = -1;     ///< -1: stalls disabled (SIGSTOP model)
  int respawn_budget = 1;  ///< RespawnPolicy::max_respawns_per_rank

  // --- retransmit parameters ---
  int messages = 3;       ///< envelopes to deliver on the channel
  int damage_budget = 2;  ///< total drops + corruptions the adversary gets

  Mutant mutant = Mutant::kNone;
};

/// Internal invariant codes carried in a state until violation() reports
/// them (states hold no strings so encoding stays canonical).
enum class BadState : std::uint8_t {
  kNone = 0,
  kDuplicateDelivery,   ///< a frame deposited twice into a mailbox
  kDoublePromotion,     ///< one incarnation promoted twice
  kRenumberedSeq,       ///< retransmit carried a never-issued seq number
  kAckedButLost,        ///< receiver cursor passed an undeposited payload
  kStaleDelivery,       ///< a dead incarnation's frame deposited in a mailbox
  kDoubleResurrection,  ///< a rank respawned while an incarnation was alive
  kSeqReuse,            ///< one (rank, generation, seq) delivered twice
};

// ---------------------------------------------------------------------------
// Supervisor frame protocol model
// ---------------------------------------------------------------------------

/// Mirrors Supervisor::run_sequence + the resident worker loop: rendering
/// frames gated by kFrameStart/kFrameDone barriers, a ring exchange of
/// `stages` rounds per frame, a mid-frame crash adversary, a SIGSTOP stall
/// caught by the heartbeat watchdog, bounded-mailbox backpressure, boundary
/// resurrection with generation bumps, the circuit-breaker demotion when
/// the respawn budget runs dry, and generation-checked delivery on both the
/// supervisor and worker edges. A death in the last frame is followed by no
/// resurrection.
///
/// Rank identity is (rank, generation). A crashed incarnation's unread
/// uplink traffic moves to a per-rank `limbo` channel the supervisor may
/// pump at any later point — the model's abstraction of in-flight bytes
/// from a dying connection that the transport cannot retract. The shipped
/// protocol rejects limbo frames whose generation disagrees with the
/// roster; the kDropGenerationCheck mutant routes them and trips
/// BadState::kStaleDelivery when one lands in a later frame's mailbox.
///
/// A frame opens only once every non-demoted rank's current incarnation is
/// promoted, as in the real loop, so no kData ever waits for a kHello: the
/// supervisor drops kData for an unpromoted destination, as for a dead one.
///
/// Invariants (beyond deadlock/livelock-freedom):
///  * no stale-generation delivery: every deposited frame carries the
///    roster generation of its source (kStaleDelivery);
///  * no double promotion: one incarnation is promoted once
///    (kDoublePromotion);
///  * no double resurrection: a respawn only ever targets a dead rank
///    (kDoubleResurrection);
///  * no seq reuse across generations: the supervisor never sees one
///    (rank, generation, seq) triple twice (kSeqReuse);
///  * every frame that was neither faulted nor degraded delivers each of
///    its messages exactly once — post-recovery frames are whole again.
class ResurrectionModel {
 public:
  /// In-model message. Up: kHello{gen} / kData{dest,id,gen,seq} /
  /// kFrameDone{aborted,frame}. Down: kData{src,id,gen} / kFrameStart{frame}
  /// / kPeerFailed{rank} / kShutdown.
  struct SeqMsg {
    enum class Kind : std::uint8_t {
      kHello = 1,
      kData,
      kFrameStart,
      kFrameDone,
      kPeerFailed,
      kShutdown,
    };
    Kind kind = Kind::kHello;
    std::int8_t a = -1;   ///< kData up: dest; down: src. kFrameDone: aborted.
    std::int8_t b = -1;   ///< kData: frame id; kFrameStart/kFrameDone: frame
    std::int8_t gen = 0;  ///< sender incarnation
    std::int8_t seq = 0;  ///< kData up: per-incarnation channel sequence
  };

  /// Worker lifecycle phases, mirroring sequence_worker_main: connect ->
  /// idle between frames -> run a frame -> idle -> ... -> exit on shutdown.
  enum class Phase : std::uint8_t { kStart = 0, kIdle, kRun, kCrashed, kExited };

  struct Worker {
    Phase phase = Phase::kStart;
    std::int8_t gen = 0;
    std::int8_t next_seq = 0;  ///< per-incarnation channel sequence counter
    /// Next ring op: even = send, odd = recv of round pc / 2; ops() =
    /// frame-done pending.
    std::int8_t pc = 0;
    std::int8_t frame = -1;    ///< the frame this worker is running
    std::int8_t frames_completed = 0;
    bool poisoned = false;
    bool shutdown_seen = false;
    bool stalled = false;         ///< SIGSTOPped: no thread of it runs
    bool dup_hello_sent = false;  ///< kDoublePromotion mutant only
    /// The roster the last kFrameStart carried: per-source generations the
    /// worker-side reader checks kData against, and whether the frame runs
    /// degraded (any rank folded out).
    std::array<std::int8_t, kMaxWorkers> roster_gen{};
    bool roster_degraded = false;
    std::vector<std::int8_t> mailbox;  ///< deposited frame ids, FIFO
  };

  struct Sup {
    std::int8_t gen = 0;  ///< roster generation for this rank
    std::int8_t respawns = 0;
    bool promoted = false;  ///< current incarnation's kHello processed
    bool dead = false;      ///< crashed and reaped, not yet resurrected
    bool demoted = false;   ///< circuit breaker open: folded out for good
    bool frame_done = false;
  };

  struct State {
    std::array<Worker, kMaxWorkers> worker;
    std::array<Sup, kMaxWorkers> sup;
    std::array<std::vector<SeqMsg>, kMaxWorkers> up;     ///< live uplink
    std::array<std::vector<SeqMsg>, kMaxWorkers> down;   ///< supervisor -> worker
    std::array<std::vector<SeqMsg>, kMaxWorkers> limbo;  ///< dead-incarnation leftovers
    /// Delivery count per message id (frame_id), all frames.
    std::array<std::int8_t, kMaxWorkers * 8> delivered{};
    /// (gen * frames * stages + seq) bitmask of uplink kData the supervisor
    /// has seen, per source rank — the no-seq-reuse-across-generations
    /// monitor.
    std::array<std::uint16_t, kMaxWorkers> seen_seq{};
    std::int8_t frame = -1;        ///< open frame (valid while frame_active)
    std::int8_t frames_done = 0;
    std::uint8_t faulted_frames = 0;   ///< bitmask: a failure struck mid-frame
    std::uint8_t degraded_frames = 0;  ///< bitmask: opened with a demoted rank
    bool frame_active = false;
    bool shutdown_sent = false;
    bool any_failure = false;
    std::int8_t stale_rejects = 0;  ///< generation-checked drops (both edges)
    std::int8_t crash_budget = 0;
    BadState bad = BadState::kNone;
  };

  /// Action kinds (Action::kind); Action::a = rank where relevant.
  enum Kind : std::int16_t {
    aConnect = 1,  ///< connect + kHello{generation}
    aDupHello,     ///< second kHello (kDoublePromotion mutant only)
    aSend,         ///< ring op: kData to the next rank
    aRecv,         ///< ring op: matching mailbox receive
    aAbortFrame,   ///< poisoned at a blocked receive: kFrameDone{aborted}
    aFrameDone,    ///< frame complete: kFrameDone
    aExit,         ///< kShutdown seen: process exits
    aCrash,        ///< SIGKILL mid-frame
    aStall,        ///< SIGSTOP mid-frame (the worker stops taking any action)
    aPump,         ///< reader thread: pop one down-link frame
    aSupPump,      ///< supervisor: pop one live up-link frame
    aLimboPump,    ///< supervisor: pop one dead-incarnation leftover frame
    aSupReap,      ///< supervisor: waitpid on a crashed worker, fail + poison
    aWatchdog,     ///< heartbeat timeout: fail + SIGKILL a stalled worker
    aRespawn,      ///< frame boundary: fork the rank again, generation + 1
    aDemote,       ///< frame boundary: respawn budget dry, fold the rank out
    aFrameOpen,    ///< every live rank promoted: broadcast kFrameStart
    aSettle,       ///< every live rank finished the frame
    aShutdown,     ///< sequence over: broadcast kShutdown
  };

  explicit ResurrectionModel(Scenario scenario);

  [[nodiscard]] State initial() const;
  void enumerate(const State& s, std::vector<Action>& out) const;
  [[nodiscard]] State apply(const State& s, const Action& act) const;
  [[nodiscard]] std::optional<check::Diagnostic> violation(const State& s) const;
  [[nodiscard]] bool accepting(const State& s) const;
  void encode(const State& s, std::string& out) const;
  [[nodiscard]] std::string describe(const Action& act) const;

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  /// Ring ops per frame (2 per round: send, recv).
  [[nodiscard]] int ops() const { return 2 * scenario_.stages; }
  /// Message id sent by `rank` in `round` of `frame`; its receiver is
  /// (rank+1) % workers.
  [[nodiscard]] int frame_id(int frame, int round, int rank) const {
    return (frame * scenario_.stages + round) * scenario_.workers + rank;
  }

 private:
  [[nodiscard]] bool may_crash(int w) const;
  void fail(State& st, int w) const;
  void deposit(State& st, int w, const SeqMsg& msg) const;
  void route(State& st, int src, const SeqMsg& msg) const;
  Scenario scenario_;
};

// ---------------------------------------------------------------------------
// Envelope NAK/retransmit model
// ---------------------------------------------------------------------------

class RetransmitModel {
 public:
  struct Packet {
    std::int8_t seq = 0;
    bool corrupted = false;
  };

  struct State {
    std::int8_t next_send = 0;  ///< sender cursor (also: fresh-seq counter)
    std::int8_t expected = 0;   ///< receiver cursor
    std::uint8_t delivered = 0;  ///< bitmask of deposited payload seqs
    std::uint8_t stashed = 0;    ///< bitmask of ahead-of-sequence seqs held
    std::vector<Packet> channel;  ///< in flight; delivery from any index
    std::vector<std::int8_t> naks;  ///< receiver -> sender retransmit queue
    std::int8_t damage_budget = 0;
    std::int8_t nak_budget = 0;
    bool abandoned = false;  ///< a needed NAK was out of budget
    BadState bad = BadState::kNone;
  };

  enum Kind : std::int16_t {
    sSend = 1,    ///< sender: emit the next fresh envelope
    sRetx,        ///< sender: serve one NAK from the in-flight store
    eDrop,        ///< adversary: drop channel[a]
    eCorrupt,     ///< adversary: flip bits in channel[a]
    rTake,        ///< receiver: take channel[a] (any index = reordering)
    rTimeoutNak,  ///< receiver: drop-detect timeout NAK for `expected`
  };

  explicit RetransmitModel(Scenario scenario);

  [[nodiscard]] State initial() const;
  void enumerate(const State& s, std::vector<Action>& out) const;
  [[nodiscard]] State apply(const State& s, const Action& act) const;
  [[nodiscard]] std::optional<check::Diagnostic> violation(const State& s) const;
  [[nodiscard]] bool accepting(const State& s) const;
  void encode(const State& s, std::string& out) const;
  [[nodiscard]] std::string describe(const Action& act) const;

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

 private:
  Scenario scenario_;
};

}  // namespace slspvr::model
