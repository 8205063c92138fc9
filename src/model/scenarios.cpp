#include "model/scenarios.hpp"

#include <algorithm>

namespace slspvr::model {

namespace {

/// A one-frame run (the plain single-frame render) of `workers` ranks.
Scenario one_frame(std::string name, int workers, int stages) {
  Scenario s;
  s.name = std::move(name);
  s.workers = workers;
  s.stages = stages;
  return s;
}

/// A two-frame sequence with one mid-frame crash and one respawn per rank.
Scenario resurrection(std::string name, int workers, int crash_rank) {
  Scenario s;
  s.name = std::move(name);
  s.workers = workers;
  s.crash_rank = crash_rank;
  s.frames = 2;
  s.respawn_budget = 1;
  s.crash_budget = 1;
  return s;
}

}  // namespace

std::vector<Scenario> all_scenarios(int max_workers) {
  const int top = std::clamp(max_workers, 2, kMaxWorkers);
  std::vector<Scenario> out;

  // One-frame runs: a death in the only frame is followed by no
  // resurrection, so these check the in-frame protocol on its own.

  // hello: the startup path — connects in any order, promotion, the first
  // frame opening once every rank is promoted, shutdown drain. Exhaustive
  // up to `top`.
  for (int w = 2; w <= top; ++w) {
    out.push_back(one_frame("hello-w" + std::to_string(w), w, 1));
  }

  // drain: two exchange rounds so late frames overlap the frame-done path.
  out.push_back(one_frame("drain-w" + std::to_string(std::min(3, top)), std::min(3, top), 2));

  // crash: one nondeterministic SIGKILL (any rank, any point of the frame) —
  // poison propagation and reap ordering.
  for (int w = 2; w <= std::min(3, top); ++w) {
    Scenario s = one_frame("crash-w" + std::to_string(w), w, 1);
    s.crash_rank = kMaxWorkers;  // any single rank may crash
    out.push_back(s);
  }
  if (top >= 4) {
    Scenario s = one_frame("crash-w4", 4, 1);
    s.crash_rank = 0;  // fixed rank keeps the exhaustive run tractable
    out.push_back(s);
  }

  // heartbeat: a SIGSTOPped rank must be promoted to failed by the watchdog.
  {
    Scenario s = one_frame("heartbeat-w" + std::to_string(std::min(3, top)), std::min(3, top), 1);
    s.stall_rank = 1;
    out.push_back(s);
  }

  // backpressure: capacity-1 mailboxes, two rounds, a possible crash — the
  // deposit-blocked/poison-wakes interplay of Mailbox::set_capacity.
  {
    Scenario s = one_frame("backpressure-w2", 2, 2);
    s.mailbox_capacity = 1;
    s.crash_rank = kMaxWorkers;
    out.push_back(s);
  }

  // respawn: two rendering frames, one nondeterministic mid-frame SIGKILL,
  // boundary resurrection with a generation bump. Checks the rejoin window
  // (the next frame waits for the respawned rank's promotion),
  // stale-generation rejection of the dead incarnation's delayed traffic,
  // and that the post-recovery frame is whole again.
  for (int w = 2; w <= std::min(3, top); ++w) {
    out.push_back(resurrection("respawn-w" + std::to_string(w), w, kMaxWorkers));
  }
  if (top >= 4) {
    // Fixed crash rank keeps the 4-worker exhaustive run tractable.
    out.push_back(resurrection("respawn-w4", 4, 0));
  }

  // demote: the respawn budget is zero, so the circuit breaker opens at the
  // first boundary and the second frame must fold out degraded.
  {
    Scenario s = resurrection("demote-w2", 2, kMaxWorkers);
    s.respawn_budget = 0;
    out.push_back(s);
  }

  // respawn-deep: the resurrected incarnation may itself be killed — the
  // crash budget covers the same rank dying twice (or two ranks once each).
  {
    Scenario s = resurrection("respawn-deep-w2", 2, kMaxWorkers);
    s.crash_budget = 2;
    s.respawn_budget = 2;
    out.push_back(s);
  }

  // retransmit: the envelope NAK channel under drops, corruption and
  // reordering (receiver may take any in-flight envelope).
  {
    Scenario s;
    s.name = "retransmit-k3";
    s.kind = Scenario::Kind::kRetransmit;
    s.messages = 3;
    s.damage_budget = 2;
    out.push_back(s);
  }

  return out;
}

std::vector<Mutant> mutants_for(const Scenario& scenario) {
  if (scenario.kind == Scenario::Kind::kRetransmit) {
    return {Mutant::kAckBeforeDeposit, Mutant::kRenumberRetransmit};
  }
  if (scenario.frames > 1) {
    // Demotion path: no rejoin, but the crash must still poison the survivor.
    if (scenario.respawn_budget <= 0) return {Mutant::kSkipPoisonBroadcast};
    return {Mutant::kDropGenerationCheck, Mutant::kResurrectTwice,
            Mutant::kRespawnSameGeneration};
  }
  std::vector<Mutant> out;
  // The duplicate hello needs the plain startup path to surface.
  if (scenario.crash_rank < 0 && scenario.stall_rank < 0) {
    out.push_back(Mutant::kDoublePromotion);
  }
  if (scenario.crash_rank >= 0) out.push_back(Mutant::kSkipPoisonBroadcast);
  if (scenario.stall_rank >= 0) out.push_back(Mutant::kNoWatchdog);
  return out;
}

CheckResult run_scenario(const Scenario& scenario, const Limits& limits) {
  if (scenario.kind == Scenario::Kind::kRetransmit) {
    return explore(RetransmitModel(scenario), limits);
  }
  return explore(ResurrectionModel(scenario), limits);
}

}  // namespace slspvr::model
