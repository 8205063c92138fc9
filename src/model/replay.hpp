// Conformance replay: pin the model to the code.
//
// A counterexample found by the checker is only interesting if its schedule
// means something for the real runtime. derive_schedule() projects a
// counterexample trace onto the knobs the real system exposes — per-rank
// connect delays (who joins late), a planted crash/stall point, ring rounds,
// mailbox capacity, frames and respawn budget — and replay_schedule()
// executes that schedule against the real mp::Supervisor::run_sequence +
// SocketTransport (supervisor scenarios) or the real Comm retry path under a
// seeded FaultInjector (retransmit scenarios).
//
// Because the shipped code *fixed* the races the mutants re-introduce, a
// mutant counterexample replayed against the real runtime must come out
// clean: frames delivered, clean frames' traces happens-before consistent,
// supervisor protocol events in a legal order, failure provenance and the
// resurrection ladder as modelled. A replay that does NOT come out clean
// means the model found a real defect.
#pragma once

#include <string>
#include <vector>

#include "mp/supervisor.hpp"
#include "model/protocol.hpp"

namespace slspvr::model {

/// A counterexample projected onto real-runtime knobs.
struct ReplaySchedule {
  std::string scenario;  ///< the scenario the trace came from
  int workers = 2;
  int frames = 1;  ///< rendering frames of the Supervisor::run_sequence run
  int stages = 1;  ///< ring-exchange rounds per frame
  std::size_t mailbox_capacity = 0;  ///< 0 = unbounded
  int respawn_budget = 1;            ///< RespawnPolicy::max_respawns_per_rank
  /// Per-rank delay before connecting, derived from the trace's connect
  /// order: ranks whose kHello the trace interleaves after other traffic
  /// connect late, so the first frame waits for them as in the trace.
  std::vector<int> connect_delay_ms;
  /// The first incarnation of crash_rank raises SIGKILL after
  /// `crash_after_ops` ring ops, counted across frames.
  int crash_rank = -1;
  int crash_after_ops = 0;
  /// The first incarnation of stall_rank raises SIGSTOP after
  /// `stall_after_ops` ring ops, counted across frames.
  int stall_rank = -1;
  int stall_after_ops = 0;
  // Retransmit scenarios: adversarial damage to re-inflict for real.
  int messages = 0;  ///< 0: supervisor schedule
  int drops = 0;
  int corruptions = 0;
};

/// Project a supervisor counterexample (or any explored trace) onto a
/// replayable schedule. Works for mutant counterexamples: the schedule
/// reproduces the *interleaving*, the shipped code supplies the (fixed)
/// protocol. Connect delays come from a rank's first connect; the first
/// crash and stall are planted into the first incarnation of their rank.
[[nodiscard]] ReplaySchedule derive_schedule(const ResurrectionModel& model,
                                             const Counterexample& cex);

/// Same, for retransmit counterexamples (damage counts + message count).
[[nodiscard]] ReplaySchedule derive_schedule(const RetransmitModel& model,
                                             const Counterexample& cex);

struct ReplayReport {
  bool ok = false;
  std::vector<std::string> problems;  ///< empty iff ok
  std::vector<mp::ProtocolEvent> events;
  std::vector<mp::WorkerFailure> failures;
  [[nodiscard]] std::string summary() const;
};

/// Execute the schedule against the real runtime and verify conformance:
/// protocol events legal (one promotion per incarnation, frames opening only
/// once every live rank is promoted and settling in order), vector-clock
/// happens-before clean on every clean frame, the planted crash or stall
/// detected with no collateral failure, and the rank resurrected exactly
/// when a later frame follows its death.
[[nodiscard]] ReplayReport replay_schedule(const ReplaySchedule& schedule);

}  // namespace slspvr::model
