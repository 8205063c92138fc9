// Explicit-state model checker: exhaustive DFS over action interleavings
// with sleep-set partial-order reduction and a state-hash visited set.
//
// slspvr-check proves the *compositing schedules* deadlock-free; this layer
// does the same for the *runtime protocols underneath them* — supervisor
// hub, worker lifecycle, heartbeat watchdog, promotion, frame barriers,
// resurrection, mailbox backpressure and the envelope NAK/retransmit
// channel — by exhaustively exploring every interleaving of a small
// code-mirroring model (protocol.hpp) and checking safety invariants plus
// liveness-via-progress on each reachable state.
//
// The checker is generic over a Model type providing:
//   using State = ...;                 // value type, copyable
//   State initial() const;
//   void enumerate(const State&, std::vector<Action>&) const;  // stable order
//   State apply(const State&, const Action&) const;            // deterministic
//   std::optional<check::Diagnostic> violation(const State&) const;
//   bool accepting(const State&) const;   // valid terminal state
//   void encode(const State&, std::string&) const;  // canonical bytes
//   std::string describe(const Action&) const;      // human-readable label
//
// Soundness notes on the reduction:
//  * two actions are treated as independent only when they belong to
//    different actors AND their declared resource masks are disjoint — a
//    conservative static approximation of "commute and cannot enable or
//    disable one another";
//  * sleep sets are combined with state caching the standard way
//    (Godefroid): each visited state records the intersection of every
//    sleep set it was entered with; re-arrival is pruned only when the new
//    sleep set is a superset of that record, otherwise the state is
//    re-explored and the record shrunk. Disabling the reduction (Limits::
//    por = false) degenerates to plain exhaustive DFS; tests assert both
//    modes reach identical verdicts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/verify.hpp"

namespace slspvr::model {

/// One enabled transition of the model. `actor` scopes the same-actor
/// dependence rule (every pair of actions of one actor is dependent);
/// `touches` is a resource bitmask — actions of different actors are
/// independent iff their masks are disjoint. `progress` marks actions that
/// advance the protocol (used by the non-progress-cycle check).
struct Action {
  std::int16_t actor = -1;
  std::int16_t kind = 0;
  std::int16_t a = -1;
  std::int16_t b = -1;
  std::uint32_t touches = 0;
  bool progress = true;

  /// Stable identity for sleep-set membership (structural, state-free).
  [[nodiscard]] std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(actor)) << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(kind)) << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a)) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint16_t>(b));
  }
};

[[nodiscard]] inline bool independent(const Action& x, const Action& y) noexcept {
  return x.actor != y.actor && (x.touches & y.touches) == 0;
}

struct Limits {
  std::uint64_t max_states = 2'000'000;  ///< visited-set budget
  double max_seconds = 120.0;            ///< wall-clock budget
  std::size_t max_depth = 4096;          ///< DFS depth cap (trace length)
  bool por = true;                       ///< sleep-set reduction on/off
};

/// One step of a counterexample trace.
struct Step {
  std::int16_t actor = -1;
  std::string label;
};

struct Counterexample {
  check::Diagnostic diagnostic;
  std::vector<Step> steps;
  /// The same trace as raw actions (parallel to `steps`) — replay-schedule
  /// derivation reads these instead of re-parsing labels.
  std::vector<Action> actions;

  /// Readable event trace: one numbered line per step, then the violation.
  [[nodiscard]] std::string format() const;
};

struct CheckResult {
  std::uint64_t states = 0;       ///< distinct states visited
  std::uint64_t transitions = 0;  ///< actions applied (incl. pruned arrivals)
  std::uint64_t revisits = 0;     ///< sleep-set-forced re-explorations
  std::size_t peak_depth = 0;
  bool complete = true;  ///< false: a Limits budget was exhausted
  std::optional<Counterexample> counterexample;

  /// Exhaustive and clean: the whole (reduced) state space was explored and
  /// no invariant, deadlock or livelock counterexample exists.
  [[nodiscard]] bool ok() const { return complete && !counterexample; }
  [[nodiscard]] std::string summary() const;
};

template <typename M>
CheckResult explore(const M& model, const Limits& limits) {
  using State = typename M::State;

  struct FrameRec {
    State state;
    std::string bytes;
    std::vector<Action> acts;   ///< enabled minus the sleep set, stable order
    std::size_t next = 0;       ///< index of the next action to explore
    std::vector<Action> sleep;  ///< actions covered by sibling branches
  };

  CheckResult result;
  const auto t0 = std::chrono::steady_clock::now();
  // visited state -> intersection of the sleep-set keys it was entered with
  // (sorted). Prune a re-arrival only when its sleep set covers the record.
  std::unordered_map<std::string, std::vector<std::uint64_t>> visited;
  std::unordered_map<std::string, std::size_t> on_stack;  // bytes -> depth
  std::vector<FrameRec> stack;

  const auto sleep_keys = [](const std::vector<Action>& sleep) {
    std::vector<std::uint64_t> keys;
    keys.reserve(sleep.size());
    for (const Action& a : sleep) keys.push_back(a.key());
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  const auto make_counterexample = [&](const check::Diagnostic& diag,
                                       const std::optional<Action>& last) {
    Counterexample cex;
    cex.diagnostic = diag;
    for (std::size_t i = 0; i + 1 < stack.size(); ++i) {
      const FrameRec& f = stack[i];
      const Action& a = f.acts[f.next - 1];
      cex.steps.push_back({a.actor, model.describe(a)});
      cex.actions.push_back(a);
    }
    if (last) {
      cex.steps.push_back({last->actor, model.describe(*last)});
      cex.actions.push_back(*last);
    }
    result.counterexample = std::move(cex);
  };

  // Enter a state: check invariants, enumerate actions, detect terminal
  // deadlocks. Returns false when exploration must stop (violation found).
  const auto enter = [&](State&& s, std::string&& bytes, std::vector<Action>&& sleep,
                         const std::optional<Action>& via) -> bool {
    if (const auto diag = model.violation(s)) {
      make_counterexample(*diag, via);
      return false;
    }
    FrameRec frame;
    frame.state = std::move(s);
    frame.bytes = std::move(bytes);
    frame.sleep = std::move(sleep);
    model.enumerate(frame.state, frame.acts);
    if (limits.por && !frame.sleep.empty()) {
      std::erase_if(frame.acts, [&](const Action& a) {
        const std::uint64_t k = a.key();
        return std::any_of(frame.sleep.begin(), frame.sleep.end(),
                           [&](const Action& z) { return z.key() == k; });
      });
    }
    if (frame.acts.empty() && frame.sleep.empty() && !model.accepting(frame.state)) {
      check::Diagnostic diag;
      diag.code = check::Diagnostic::Code::kDeadlock;
      diag.message = "terminal state is not accepting: no action is enabled "
                     "but the protocol has not completed";
      make_counterexample(diag, via);
      return false;
    }
    on_stack.emplace(frame.bytes, stack.size());
    stack.push_back(std::move(frame));
    result.peak_depth = std::max(result.peak_depth, stack.size());
    return true;
  };

  {
    State s0 = model.initial();
    std::string bytes;
    model.encode(s0, bytes);
    visited.emplace(bytes, std::vector<std::uint64_t>{});
    result.states = 1;
    if (!enter(std::move(s0), std::move(bytes), {}, std::nullopt)) return result;
  }

  while (!stack.empty()) {
    if ((result.transitions & 0xFFF) == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (elapsed > limits.max_seconds || result.states > limits.max_states) {
        result.complete = false;
        return result;
      }
    }
    FrameRec& top = stack.back();
    if (top.next >= top.acts.size()) {
      on_stack.erase(top.bytes);
      stack.pop_back();
      continue;
    }
    const Action action = top.acts[top.next];
    ++top.next;
    ++result.transitions;

    State succ = model.apply(top.state, action);
    std::string bytes;
    model.encode(succ, bytes);

    // Non-progress-cycle (livelock) check: a successor already on the DFS
    // path closes a cycle; if no action along it progresses, the protocol
    // can spin forever without advancing.
    if (const auto it = on_stack.find(bytes); it != on_stack.end()) {
      bool progresses = action.progress;
      for (std::size_t i = it->second; !progresses && i + 1 < stack.size(); ++i) {
        const FrameRec& f = stack[i];
        if (f.acts[f.next - 1].progress) progresses = true;
      }
      if (!progresses) {
        check::Diagnostic diag;
        diag.code = check::Diagnostic::Code::kLivelock;
        diag.message = "cycle of non-progressing actions (protocol can spin forever)";
        make_counterexample(diag, action);
        return result;
      }
    }

    // Child sleep set: previously explored siblings (and inherited entries)
    // that are independent of the action just taken.
    std::vector<Action> child_sleep;
    if (limits.por) {
      for (const Action& z : top.sleep) {
        if (independent(z, action)) child_sleep.push_back(z);
      }
      for (std::size_t i = 0; i + 1 < top.next; ++i) {
        if (independent(top.acts[i], action)) child_sleep.push_back(top.acts[i]);
      }
    }
    std::vector<std::uint64_t> child_keys = sleep_keys(child_sleep);

    if (auto it = visited.find(bytes); it != visited.end()) {
      // Prune only when this arrival's sleep set covers everything the
      // recorded visits already skipped; otherwise re-explore and shrink
      // the record to the intersection.
      if (std::includes(child_keys.begin(), child_keys.end(), it->second.begin(),
                        it->second.end())) {
        continue;
      }
      std::vector<std::uint64_t> merged;
      std::set_intersection(child_keys.begin(), child_keys.end(), it->second.begin(),
                            it->second.end(), std::back_inserter(merged));
      it->second = std::move(merged);
      ++result.revisits;
    } else {
      visited.emplace(bytes, child_keys);
      ++result.states;
    }

    if (stack.size() >= limits.max_depth) {
      result.complete = false;
      return result;
    }
    if (!enter(std::move(succ), std::move(bytes), std::move(child_sleep), action)) {
      return result;
    }
  }
  return result;
}

}  // namespace slspvr::model
