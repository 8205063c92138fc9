// Strict parsing/validation for slspvr_render's multi-process flags and its
// numeric flags (--ranks, --sessions, --image, --retry-max, --retry-base-ms,
// --recv-timeout: parse_positive_int; --scale, --rotx, --roty:
// parse_finite_float; --fault-seed: parse_u64; --fault-kill:
// parse_rank_stage; --fault-drop, --fault-corrupt, --fault-delay:
// parse_int_list; --tf: parse_float_list).
//
// The token parsers live in cli_parse.hpp. Like them, the helpers here throw
// ParseError (never exit), so the test suite covers the flag grammar and the
// contradiction rules directly; the tool catches ParseError and exits 2.
//
// The multi-process flag family:
//   --procs <n>                run the compositing phase with n real worker
//                              processes over the socket backend
//   --transport <unix|tcp>     socket flavour (default unix)
//   --heartbeat-ms <n>         worker heartbeat interval
//   --heartbeat-timeout-ms <n> supervisor silence threshold before a worker
//                              is declared failed
//   --frames <n>               frames in the sequence (default 1): workers
//                              stay resident, the camera steps per frame,
//                              dead ranks are resurrected at frame
//                              boundaries under the respawn policy
//   --respawn-max <n>          resurrections per rank before the circuit
//                              breaker demotes it for good (default 2;
//                              0 = demote on first death)
//   --proc-kill <r,s[@f]>      worker r raises SIGKILL on itself at stage s
//                              (a real crash; the supervisor detects EOF)
//   --proc-stall <r,s[@f]>     worker r raises SIGSTOP at stage s (goes
//                              silent; caught by the heartbeat watchdog)
//   --proc-segv <r,s[@f]>      worker r raises SIGSEGV at stage s (crash
//                              with core-dump semantics)
//   --proc-exit <r,s[@f]>      worker r _Exit(7)s at stage s (bails without
//                              dying by signal)
// The optional @f qualifier restricts a planted crash to frame f of the
// sequence. Crash flags may repeat (one planted crash per frame tells the
// resurrection story).
//
// Every --procs run is a sequence of --frames frames; a one-frame run is the
// plain single-frame render and keeps its output file and summary.
//
// Contradiction rules (each violation is a ParseError):
//  * --procs excludes every in-process fault-injection flag (--fault-*,
//    --retry-*, --recv-timeout): the FaultInjector lives in the thread
//    backend and cannot reach into worker processes — real crashes are
//    planted with the --proc-* crash flags instead;
//  * every other proc-family flag requires --procs;
//  * every crash rank must be < --procs and every @frame < --frames.
#pragma once

#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "pvr/proc_runner.hpp"

namespace slspvr::tools {

/// Strict --workers-per-rank parse: a whole-token positive integer (same
/// grammar as parse_positive_int) with a sanity cap — a three-digit-plus
/// worker fan-out per rank is always a typo, and the pool would happily
/// spawn it.
inline constexpr int kMaxWorkersPerRank = 256;

[[nodiscard]] inline int parse_workers_per_rank(const std::string& token) {
  const int value = parse_positive_int(token, "--workers-per-rank");
  if (value > kMaxWorkersPerRank) {
    throw ParseError("--workers-per-rank: '" + token + "' exceeds the sanity cap of " +
                     std::to_string(kMaxWorkersPerRank));
  }
  return value;
}

/// Strict "rank,stage" parse: two comma-separated non-negative integers with
/// nothing else in the token.
struct RankStage {
  int rank = -1;
  int stage = 0;
};

[[nodiscard]] inline RankStage parse_rank_stage(const std::string& token,
                                                const std::string& what) {
  if (token.find('-') != std::string::npos) {
    throw ParseError(what + ": '" + token + "' is not rank,stage");
  }
  const std::vector<int> values = parse_int_list(token, what, 2, 2);
  return RankStage{values[0], values[1]};
}

/// Strict "rank,stage[@frame]" parse for the planted-crash flags: the base
/// rank,stage grammar plus an optional @frame qualifier restricting the
/// crash to one sequence frame. `kind` fills the ProcCrash; frame stays -1
/// (every frame) when the qualifier is absent.
[[nodiscard]] inline pvr::ProcCrash parse_crash_spec(const std::string& token,
                                                     const std::string& what,
                                                     pvr::ProcCrash::Kind kind) {
  std::string base = token;
  int frame = -1;
  const std::size_t at = token.find('@');
  if (at != std::string::npos) {
    if (token.find('@', at + 1) != std::string::npos) {
      throw ParseError(what + ": '" + token + "' is not rank,stage[@frame]");
    }
    base = token.substr(0, at);
    try {
      frame = parse_non_negative_int(token.substr(at + 1), what);
    } catch (const ParseError&) {
      throw ParseError(what + ": '" + token + "' is not rank,stage[@frame]");
    }
  }
  RankStage rs;
  try {
    rs = parse_rank_stage(base, what);
  } catch (const ParseError&) {
    throw ParseError(what + ": '" + token + "' is not rank,stage[@frame]");
  }
  pvr::ProcCrash crash{rs.rank, rs.stage, kind};
  crash.frame = frame;
  return crash;
}

/// The proc-family flags as parsed (before validation).
struct ProcCli {
  int procs = 0;  ///< 0 = in-process (thread) backend
  std::string transport = "unix";
  int heartbeat_ms = 25;
  int heartbeat_timeout_ms = 1000;
  int frames = 1;          ///< frames in the sequence
  int respawn_max = 2;     ///< resurrections per rank before demotion
  std::vector<pvr::ProcCrash> crashes;  ///< planted crashes in flag order
  bool family_flag_seen = false;  ///< any proc flag other than --procs

  [[nodiscard]] bool active() const noexcept { return procs > 0; }
  /// More than one frame: one output file per frame and the sequence
  /// summary instead of the single-frame ones.
  [[nodiscard]] bool sequence() const noexcept { return frames > 1; }
};

/// Consume `arg` if it belongs to the proc-flag family; `next` yields the
/// flag's value (and may itself throw ParseError when argv runs out).
/// Returns false when the flag is not ours.
template <typename NextFn>
[[nodiscard]] bool try_parse_proc_flag(ProcCli& cli, const std::string& arg, NextFn&& next) {
  const auto add_crash = [&](pvr::ProcCrash::Kind kind, const std::string& what) {
    cli.crashes.push_back(parse_crash_spec(next(), what, kind));
    cli.family_flag_seen = true;
  };
  if (arg == "--procs") {
    cli.procs = parse_positive_int(next(), "--procs");
    return true;
  }
  if (arg == "--frames") {
    cli.frames = parse_positive_int(next(), "--frames");
    cli.family_flag_seen = true;
    return true;
  }
  if (arg == "--respawn-max") {
    cli.respawn_max = parse_non_negative_int(next(), "--respawn-max");
    cli.family_flag_seen = true;
    return true;
  }
  if (arg == "--transport") {
    cli.transport = next();
    if (cli.transport != "unix" && cli.transport != "tcp") {
      throw ParseError("--transport: '" + cli.transport + "' is not unix or tcp");
    }
    cli.family_flag_seen = true;
    return true;
  }
  if (arg == "--heartbeat-ms") {
    cli.heartbeat_ms = parse_positive_int(next(), "--heartbeat-ms");
    cli.family_flag_seen = true;
    return true;
  }
  if (arg == "--heartbeat-timeout-ms") {
    cli.heartbeat_timeout_ms = parse_positive_int(next(), "--heartbeat-timeout-ms");
    cli.family_flag_seen = true;
    return true;
  }
  if (arg == "--proc-kill") {
    add_crash(pvr::ProcCrash::Kind::kSigkill, "--proc-kill");
    return true;
  }
  if (arg == "--proc-stall") {
    add_crash(pvr::ProcCrash::Kind::kSigstop, "--proc-stall");
    return true;
  }
  if (arg == "--proc-segv") {
    add_crash(pvr::ProcCrash::Kind::kSigsegv, "--proc-segv");
    return true;
  }
  if (arg == "--proc-exit") {
    add_crash(pvr::ProcCrash::Kind::kExit, "--proc-exit");
    return true;
  }
  return false;
}

/// Cross-flag validation; `fault_flags_present` = any --fault-*, --retry-*
/// or --recv-timeout was given. Throws ParseError on every contradiction.
inline void validate_proc_cli(const ProcCli& cli, bool fault_flags_present) {
  if (!cli.active()) {
    if (cli.family_flag_seen) {
      throw ParseError(
          "--transport/--heartbeat-ms/--heartbeat-timeout-ms/--frames/--respawn-max/"
          "--proc-kill/--proc-stall/--proc-segv/--proc-exit "
          "require --procs (they configure the multi-process backend)");
    }
    return;
  }
  if (fault_flags_present) {
    throw ParseError(
        "--procs cannot be combined with in-process fault injection "
        "(--fault-*, --retry-*, --recv-timeout): the injector lives in the "
        "thread backend; plant real crashes with --proc-kill or --proc-stall");
  }
  if (cli.heartbeat_timeout_ms <= cli.heartbeat_ms) {
    throw ParseError("--heartbeat-timeout-ms must exceed --heartbeat-ms");
  }
  for (const pvr::ProcCrash& crash : cli.crashes) {
    if (crash.rank >= cli.procs) {
      throw ParseError("--proc-kill/--proc-stall/--proc-segv/--proc-exit rank " +
                       std::to_string(crash.rank) + " out of range for --procs " +
                       std::to_string(cli.procs));
    }
    if (crash.frame >= cli.frames) {
      throw ParseError("planted crash frame " + std::to_string(crash.frame) +
                       " out of range for --frames " + std::to_string(cli.frames));
    }
  }
}

/// Lower the validated flags onto the sequence runner's options.
[[nodiscard]] inline pvr::SequenceProcOptions to_sequence_options(const ProcCli& cli) {
  pvr::SequenceProcOptions seq;
  seq.proc.transport = cli.transport;
  seq.proc.heartbeat_interval = std::chrono::milliseconds(cli.heartbeat_ms);
  seq.proc.heartbeat_timeout = std::chrono::milliseconds(cli.heartbeat_timeout_ms);
  seq.frames = cli.frames;
  seq.respawn.max_respawns_per_rank = cli.respawn_max;
  seq.crashes = cli.crashes;
  return seq;
}

}  // namespace slspvr::tools
