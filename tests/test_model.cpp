// Tests for the explicit-state protocol model checker (src/model): the DFS
// core's verdicts on toy models, exhaustive cleanliness of every shipped
// scenario, the mutation-coverage gate, POR soundness (same verdict and the
// same reachable-state count with and without the sleep-set reduction), and
// conformance replay of a mutant counterexample against the real runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "check/verify.hpp"
#include "model/checker.hpp"
#include "model/replay.hpp"
#include "model/scenarios.hpp"

namespace slspvr::model {
namespace {

Limits test_limits() {
  Limits lim;
  lim.max_states = 500000;
  lim.max_seconds = 60.0;
  return lim;
}

// ---- checker core on toy models --------------------------------------------

// Two actors ping-pong a token forever without progress=true steps: the
// checker must flag the non-progress cycle as a livelock, not loop or
// report the tiny state space as clean.
struct LivelockToy {
  using State = int;
  static State initial() { return 0; }
  static void enumerate(const State& s, std::vector<Action>& out) {
    Action a;
    a.actor = static_cast<std::int16_t>(s % 2);
    a.kind = 1;
    a.touches = 1;  // both touch the token: dependent, no sleep-set pruning
    a.progress = false;
    out.push_back(a);
  }
  static State apply(const State& s, const Action&) { return s == 0 ? 1 : 0; }
  static std::optional<check::Diagnostic> violation(const State&) { return std::nullopt; }
  static bool accepting(const State&) { return false; }
  static void encode(const State& s, std::string& out) {
    out.push_back(static_cast<char>(s));
  }
  static std::string describe(const Action& a) {
    return a.actor == 0 ? "actor 0: pass token" : "actor 1: pass token";
  }
};

TEST(ModelChecker, DetectsNonProgressCycleAsLivelock) {
  const CheckResult res = explore(LivelockToy{}, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  EXPECT_EQ(res.counterexample->diagnostic.code, check::Diagnostic::Code::kLivelock);
  EXPECT_FALSE(res.ok());
}

// Same shape but the steps count as progress (a heartbeat-style benign
// cycle): no livelock, and with no accepting state the terminal... there is
// no terminal state, so the exploration is simply exhaustive and clean
// except that no accepting state exists — which is not itself a violation.
struct ProgressCycleToy : LivelockToy {
  static void enumerate(const State& s, std::vector<Action>& out) {
    LivelockToy::enumerate(s, out);
    out.back().progress = true;
  }
};

TEST(ModelChecker, ProgressCycleIsNotALivelock) {
  const CheckResult res = explore(ProgressCycleToy{}, test_limits());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.states, 2u);
}

// A state with no enabled actions that is not accepting must be reported as
// a deadlock with the path that reached it.
struct DeadlockToy {
  using State = int;
  static State initial() { return 0; }
  static void enumerate(const State& s, std::vector<Action>& out) {
    if (s >= 2) return;  // stuck before the accepting value of 3
    Action a;
    a.actor = 0;
    a.kind = 1;
    a.touches = 1;
    out.push_back(a);
  }
  static State apply(const State& s, const Action&) { return s + 1; }
  static std::optional<check::Diagnostic> violation(const State&) { return std::nullopt; }
  static bool accepting(const State& s) { return s == 3; }
  static void encode(const State& s, std::string& out) {
    out.push_back(static_cast<char>(s));
  }
  static std::string describe(const Action&) { return "step"; }
};

TEST(ModelChecker, ReportsTerminalNonAcceptingStateAsDeadlock) {
  const CheckResult res = explore(DeadlockToy{}, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  EXPECT_EQ(res.counterexample->diagnostic.code, check::Diagnostic::Code::kDeadlock);
  EXPECT_EQ(res.counterexample->steps.size(), 2u);
  // The formatted trace is the user-facing artifact: numbered steps then the
  // diagnostic.
  const std::string text = res.counterexample->format();
  EXPECT_NE(text.find("1. step"), std::string::npos) << text;
  EXPECT_NE(text.find("=>"), std::string::npos) << text;
}

// ---- shipped scenarios ------------------------------------------------------

TEST(ModelScenarios, AllScenariosVerifyExhaustively) {
  for (const Scenario& sc : all_scenarios(3)) {
    const CheckResult res = run_scenario(sc, test_limits());
    EXPECT_TRUE(res.complete) << sc.name << ": " << res.summary();
    EXPECT_TRUE(res.ok()) << sc.name << ": "
                          << (res.counterexample ? res.counterexample->format()
                                                 : res.summary());
  }
}

TEST(ModelScenarios, EveryMutantYieldsACounterexample) {
  for (const Scenario& sc : all_scenarios(3)) {
    for (const Mutant m : mutants_for(sc)) {
      Scenario mutated = sc;
      mutated.mutant = m;
      const CheckResult res = run_scenario(mutated, test_limits());
      EXPECT_TRUE(res.complete) << sc.name << "+" << mutant_name(m);
      EXPECT_TRUE(res.counterexample.has_value())
          << sc.name << "+" << mutant_name(m) << " not detected: " << res.summary();
    }
  }
}

// The sleep-set reduction may only prune redundant interleavings: with and
// without it the verdict must match, and because the checker also dedups
// visited states, the reachable-state count must match exactly.
TEST(ModelScenarios, PartialOrderReductionPreservesVerdictAndStateCount) {
  for (const Scenario& sc : all_scenarios(2)) {
    Limits with = test_limits();
    Limits without = test_limits();
    without.por = false;
    const CheckResult a = run_scenario(sc, with);
    const CheckResult b = run_scenario(sc, without);
    EXPECT_EQ(a.ok(), b.ok()) << sc.name;
    EXPECT_EQ(a.states, b.states) << sc.name;
    // Transition counts are only comparable where sleep-set bookkeeping does
    // not re-apply actions on visited-state revisits: the supervisor model's
    // frame-open and boundary actions revisit heavily, so POR can
    // legitimately take *more* transitions there while still agreeing on
    // every state.
    if (sc.kind == Scenario::Kind::kRetransmit) {
      EXPECT_LE(a.transitions, b.transitions) << sc.name;
    }
  }
}

// ---- conformance replay -----------------------------------------------------

// A mutant counterexample's schedule, replayed against the real (fixed)
// supervisor over real sockets, must come out clean: the model's adversarial
// interleaving corresponds to a real execution the shipped code handles.
TEST(ModelReplay, StartupCounterexampleReplaysCleanly) {
  Scenario sc;
  for (const Scenario& s : all_scenarios(2)) {
    if (s.name == "hello-w2") sc = s;
  }
  ASSERT_EQ(sc.name, "hello-w2");
  sc.mutant = Mutant::kDoublePromotion;
  const CheckResult res = run_scenario(sc, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  const ReplaySchedule schedule =
      derive_schedule(ResurrectionModel(sc), *res.counterexample);
  EXPECT_EQ(schedule.frames, 1);
  const ReplayReport rep = replay_schedule(schedule);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_TRUE(rep.failures.empty()) << rep.summary();
}

// Same for the retransmit channel: the damage the model's adversary inflicted
// is re-inflicted through the real FaultInjector and the real NAK/retransmit
// path must still deliver every message exactly once.
TEST(ModelReplay, RetransmitCounterexampleReplaysCleanly) {
  Scenario sc;
  for (const Scenario& s : all_scenarios(2)) {
    if (s.kind == Scenario::Kind::kRetransmit) sc = s;
  }
  ASSERT_EQ(sc.kind, Scenario::Kind::kRetransmit);
  sc.mutant = Mutant::kAckBeforeDeposit;
  const CheckResult res = run_scenario(sc, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  const ReplaySchedule schedule =
      derive_schedule(RetransmitModel(sc), *res.counterexample);
  EXPECT_GT(schedule.messages, 0);
  const ReplayReport rep = replay_schedule(schedule);
  EXPECT_TRUE(rep.ok) << rep.summary();
}

// The resurrection ladder: a counterexample from the dropped-generation-check
// mutant (a dead incarnation's delayed frame lands in the next frame's
// mailbox) projects onto a crash-then-respawn schedule; the real
// Supervisor::run_sequence must detect the crash, resurrect the rank into
// generation 1, and run every post-recovery frame whole.
TEST(ModelReplay, ResurrectionCounterexampleReplaysCleanly) {
  Scenario sc;
  for (const Scenario& s : all_scenarios(2)) {
    if (s.name == "respawn-w2") sc = s;
  }
  ASSERT_EQ(sc.name, "respawn-w2");
  sc.mutant = Mutant::kDropGenerationCheck;
  const CheckResult res = run_scenario(sc, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  const ReplaySchedule schedule =
      derive_schedule(ResurrectionModel(sc), *res.counterexample);
  EXPECT_GT(schedule.frames, 0);
  EXPECT_GE(schedule.crash_rank, 0);
  const ReplayReport rep = replay_schedule(schedule);
  EXPECT_TRUE(rep.ok) << rep.summary();
}

// The circuit breaker: with a zero respawn budget, the skipped-poison
// mutant's crash schedule must drive the real supervisor to demote the dead
// rank exactly once and still settle every frame.
TEST(ModelReplay, DemotionCounterexampleReplaysCleanly) {
  Scenario sc;
  for (const Scenario& s : all_scenarios(2)) {
    if (s.name == "demote-w2") sc = s;
  }
  ASSERT_EQ(sc.name, "demote-w2");
  sc.mutant = Mutant::kSkipPoisonBroadcast;
  const CheckResult res = run_scenario(sc, test_limits());
  ASSERT_TRUE(res.counterexample.has_value());
  const ReplaySchedule schedule =
      derive_schedule(ResurrectionModel(sc), *res.counterexample);
  EXPECT_EQ(schedule.respawn_budget, 0);
  EXPECT_GE(schedule.crash_rank, 0);
  const ReplayReport rep = replay_schedule(schedule);
  EXPECT_TRUE(rep.ok) << rep.summary();
  const auto demotions = std::count_if(
      rep.events.begin(), rep.events.end(),
      [](const mp::ProtocolEvent& ev) { return ev.kind == mp::ProtocolEvent::Kind::kDemoted; });
  EXPECT_EQ(demotions, 1) << rep.summary();
}

}  // namespace
}  // namespace slspvr::model
