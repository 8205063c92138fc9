// slspvr-model: explicit-state model checking of the supervisor's frame
// protocol (startup, supervision and resurrection) and the transport's
// retransmit channel.
//
//   slspvr-model --all-scenarios --max-workers 4     # exhaustive verification
//   slspvr-model --scenario crash-w3 -v              # one scenario, verbose
//   slspvr-model --mutants                           # mutation coverage gate
//   slspvr-model --all-scenarios --replay            # + replay counterexample
//                                                    #   schedules for real
//
// Exit codes: 0 all checks passed, 1 a verification failed (invariant
// violation, deadlock, livelock, budget exhausted, undetected mutant, a
// mutant paired with no scenario, a replay nonconformance, or a supervisor
// event kind that no replay of a full --mutants --replay run emitted), 2
// usage error.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli_parse.hpp"
#include "model/replay.hpp"
#include "model/scenarios.hpp"

namespace {

using namespace slspvr;

using EventKind = mp::ProtocolEvent::Kind;

/// Every supervisor event kind, in enumerator order, with its name. A full
/// --mutants --replay run needs each from some replay, so the model checks
/// no supervisor path that the runtime never takes.
constexpr std::array<std::pair<EventKind, const char*>, 9> kEventKinds{{
    {EventKind::kPromoted, "kPromoted"},
    {EventKind::kFailureRecorded, "kFailureRecorded"},
    {EventKind::kShutdownBroadcast, "kShutdownBroadcast"},
    {EventKind::kGoodbye, "kGoodbye"},
    {EventKind::kRespawned, "kRespawned"},
    {EventKind::kDemoted, "kDemoted"},
    {EventKind::kStaleRejected, "kStaleRejected"},
    {EventKind::kFrameOpened, "kFrameOpened"},
    {EventKind::kFrameSettled, "kFrameSettled"},
}};

/// The one kind exempt from that gate. Every stale reject the model makes
/// comes from pumping its `limbo` channel (a dead incarnation's unread
/// bytes), but the real fail() resets a failed link's fd and never reads
/// that link again, so no replay can drive one.
constexpr EventKind kUnreplayedEventKind = EventKind::kStaleRejected;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--all-scenarios] [--scenario NAME] [--mutants] [--max-workers N]\n"
      "          [--max-states N] [--max-seconds S] [--no-por] [--replay]\n"
      "          [--trace-dir DIR] [-v]\n"
      "\n"
      "  --all-scenarios   verify every shipped scenario (default)\n"
      "  --scenario NAME   verify one scenario by name\n"
      "  --mutants         seed every protocol mutant and require that the\n"
      "                    checker finds a counterexample for each (and that\n"
      "                    every mutant is paired with some scenario); with\n"
      "                    --replay over all scenarios, every supervisor event\n"
      "                    kind but kStaleRejected must come from some replay\n"
      "  --max-workers N   scenario worker-count ceiling, 2..4 (default 4)\n"
      "  --max-states N    visited-state budget per run, 1000..1000000000\n"
      "                    (default 2000000)\n"
      "  --max-seconds S   wall-clock budget per run, 1..86400 (default 120)\n"
      "  --no-por          disable the sleep-set reduction (debugging aid)\n"
      "  --replay          replay derived schedules against the real runtime\n"
      "  --trace-dir DIR   write counterexample traces to DIR/<name>.trace\n"
      "  -v                per-scenario state counts\n",
      argv0);
}

struct Cli {
  bool all = true;
  std::string scenario;
  bool mutants = false;
  int max_workers = 4;
  model::Limits limits;
  bool replay = false;
  std::string trace_dir;
  bool verbose = false;
};

/// A numeric flag's value: cli_parse.hpp's strict whole-token integer, then
/// the flag's range.
int parse_in_range(const std::string& token, const std::string& flag, int min, int max) {
  const int value = tools::parse_positive_int(token, flag);
  if (value < min || value > max) {
    throw tools::ParseError(flag + ": '" + token + "' is not in " + std::to_string(min) + ".." +
                            std::to_string(max));
  }
  return value;
}

void write_trace(const Cli& cli, const std::string& name,
                 const model::Counterexample& cex) {
  if (cli.trace_dir.empty()) return;
  const std::string path = cli.trace_dir + "/" + name + ".trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("  (could not write %s)\n", path.c_str());
    return;
  }
  const std::string text = cex.format();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("  trace written to %s\n", path.c_str());
}

/// Replay a counterexample's schedule against the real runtime. For mutants
/// the shipped code has the fix, so the replay must come out clean; returns
/// false (a real defect!) when it does not. Counts the supervisor events the
/// replay emitted into `events`.
bool replay_counterexample(const model::Scenario& sc, const model::Counterexample& cex,
                           std::map<EventKind, int>& events) {
  const model::ReplaySchedule schedule =
      sc.kind == model::Scenario::Kind::kRetransmit
          ? model::derive_schedule(model::RetransmitModel(sc), cex)
          : model::derive_schedule(model::ResurrectionModel(sc), cex);
  const model::ReplayReport rep = model::replay_schedule(schedule);
  std::printf("  replay [%s]: %s\n", schedule.scenario.c_str(), rep.summary().c_str());
  for (const mp::ProtocolEvent& ev : rep.events) ++events[ev.kind];
  return rep.ok;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto int_flag = [&](int min, int max) {
      try {
        return parse_in_range(next(), arg, min, max);
      } catch (const tools::ParseError& e) {
        std::fprintf(stderr, "slspvr-model: %s\n", e.what());
        std::exit(2);
      }
    };
    if (std::strcmp(arg, "--all-scenarios") == 0) {
      cli.all = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      cli.scenario = next();
      cli.all = false;
    } else if (std::strcmp(arg, "--mutants") == 0) {
      cli.mutants = true;
    } else if (std::strcmp(arg, "--max-workers") == 0) {
      cli.max_workers = int_flag(2, model::kMaxWorkers);
    } else if (std::strcmp(arg, "--max-states") == 0) {
      cli.limits.max_states = static_cast<std::uint64_t>(int_flag(1000, 1000000000));
    } else if (std::strcmp(arg, "--max-seconds") == 0) {
      cli.limits.max_seconds = int_flag(1, 86400);
    } else if (std::strcmp(arg, "--no-por") == 0) {
      cli.limits.por = false;
    } else if (std::strcmp(arg, "--replay") == 0) {
      cli.replay = true;
    } else if (std::strcmp(arg, "--trace-dir") == 0) {
      cli.trace_dir = next();
    } else if (std::strcmp(arg, "-v") == 0) {
      cli.verbose = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }

  const std::vector<model::Scenario> scenarios = model::all_scenarios(cli.max_workers);
  int verified = 0;
  int failed = 0;
  std::map<EventKind, int> events;  // supervisor events the replays emitted

  // Mutation coverage of the registry itself: a mutant that no scenario is
  // paired with would pass the gate unseen.
  if (cli.mutants) {
    for (const model::Mutant m : model::kAllMutants) {
      bool paired = false;
      for (const model::Scenario& sc : scenarios) {
        const std::vector<model::Mutant> ms = model::mutants_for(sc);
        paired = paired || std::find(ms.begin(), ms.end(), m) != ms.end();
      }
      if (!paired) {
        ++failed;
        std::printf("FAIL %-34s paired with no scenario\n", model::mutant_name(m));
      }
    }
  }

  for (const model::Scenario& sc : scenarios) {
    if (!cli.all && sc.name != cli.scenario) continue;

    if (!cli.mutants) {
      const model::CheckResult res = model::run_scenario(sc, cli.limits);
      if (res.ok()) {
        ++verified;
        if (cli.verbose) {
          std::printf("ok   %-18s %s\n", sc.name.c_str(), res.summary().c_str());
        } else {
          std::printf("ok   %-18s %llu states\n", sc.name.c_str(),
                      static_cast<unsigned long long>(res.states));
        }
      } else {
        ++failed;
        std::printf("FAIL %-18s %s\n", sc.name.c_str(), res.summary().c_str());
        if (res.counterexample) {
          write_trace(cli, sc.name, *res.counterexample);
          if (cli.replay && !replay_counterexample(sc, *res.counterexample, events)) {
            std::printf("  (the counterexample also reproduces against the real "
                        "runtime)\n");
          }
        }
      }
      continue;
    }

    // Mutation coverage: every seeded defect must yield a counterexample.
    for (const model::Mutant m : model::mutants_for(sc)) {
      model::Scenario mutated = sc;
      mutated.mutant = m;
      const std::string label = sc.name + "+" + model::mutant_name(m);
      const model::CheckResult res = model::run_scenario(mutated, cli.limits);
      if (!res.complete) {
        ++failed;
        std::printf("FAIL %-34s budget exhausted before a verdict\n", label.c_str());
        continue;
      }
      if (!res.counterexample) {
        ++failed;
        std::printf("FAIL %-34s mutant NOT detected (%s)\n", label.c_str(),
                    res.summary().c_str());
        continue;
      }
      bool ok = true;
      if (cli.replay) {
        // The real runtime has the fix: the mutant's adversarial schedule
        // must replay cleanly, pinning the model to the code.
        ok = replay_counterexample(mutated, *res.counterexample, events);
      }
      if (ok) {
        ++verified;
        std::printf("ok   %-34s caught: %s (%llu states)\n", label.c_str(),
                    check::diagnostic_code_name(res.counterexample->diagnostic.code).data(),
                    static_cast<unsigned long long>(res.states));
        if (cli.verbose) std::printf("%s", res.counterexample->format().c_str());
      } else {
        ++failed;
        std::printf("FAIL %-34s counterexample does not replay cleanly\n", label.c_str());
        write_trace(cli, label, *res.counterexample);
      }
    }
  }

  if (verified + failed == 0) {
    std::fprintf(stderr, "no scenario matched %s\n", cli.scenario.c_str());
    return 2;
  }
  if (cli.mutants && cli.replay && cli.all) {
    const char* sep = "replayed events: ";
    for (const auto& [kind, name] : kEventKinds) {
      std::printf("%s%s %d", sep, name, events[kind]);
      sep = ", ";
    }
    std::printf("\n");
    for (const auto& [kind, name] : kEventKinds) {
      if (kind == kUnreplayedEventKind || events[kind] > 0) continue;
      ++failed;
      std::printf("FAIL %-34s emitted by no replay\n", name);
    }
  }
  std::printf("%d verified, %d failed\n", verified, failed);
  return failed == 0 ? 0 : 1;
}
