// Strict-parse tests for slspvr-render's multi-process flag family: the
// grammar helpers and the contradiction rules are pure functions (they throw
// ParseError, never exit), so the whole surface is testable without spawning
// the tool.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "tools/render_cli.hpp"

namespace tools = slspvr::tools;
namespace pvr = slspvr::pvr;

namespace {

/// Parse a whole flag vector the way the tool's argv loop does.
tools::ProcCli parse_flags(const std::vector<std::string>& argv) {
  tools::ProcCli cli;
  std::deque<std::string> rest(argv.begin(), argv.end());
  while (!rest.empty()) {
    const std::string arg = rest.front();
    rest.pop_front();
    const auto next = [&]() -> std::string {
      if (rest.empty()) throw tools::ParseError(arg + ": missing value");
      std::string v = rest.front();
      rest.pop_front();
      return v;
    };
    if (!tools::try_parse_proc_flag(cli, arg, next)) {
      throw tools::ParseError("unknown flag: " + arg);
    }
  }
  return cli;
}

}  // namespace

TEST(RenderCli, ParsePositiveIntIsStrict) {
  EXPECT_EQ(tools::parse_positive_int("4", "--procs"), 4);
  EXPECT_EQ(tools::parse_positive_int("128", "--procs"), 128);
  EXPECT_THROW((void)tools::parse_positive_int("", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("0", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("-3", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("4x", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int(" 4", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("+4", "--procs"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("99999999999", "--procs"), tools::ParseError);
}

TEST(RenderCli, RenderFlagValuesAreStrict) {
  // slspvr-render reads --ranks, --sessions, --image, --retry-max,
  // --retry-base-ms and --recv-timeout, and slspvr-check reads --max-p, with
  // parse_positive_int; slspvr-render reads --scale, --rotx and --roty with
  // parse_finite_float and --fault-seed with parse_u64. A failure exits 2.
  // atoi/atof/strtoull used to render "384px" at 384, "abc" at 0, "1e40" as
  // an infinite angle, run --recv-timeout "50ms" as 50 and seed "abc" as 0.
  struct Case {
    const char* token;
    bool is_int;    ///< parse_positive_int accepts it
    bool is_float;  ///< parse_finite_float accepts it
    double value;
    bool is_u64;    ///< parse_u64 accepts it
    std::uint64_t u64;
  };
  const Case cases[] = {
      {"384", true, true, 384.0, true, 384},
      {"1", true, true, 1.0, true, 1},
      {"0.5", false, true, 0.5, false, 0},
      {"-30", false, true, -30.0, false, 0},
      {"1e-3", false, true, 1e-3, false, 0},
      {"0", false, true, 0.0, true, 0},
      {".25", false, true, 0.25, false, 0},
      {"+24", false, true, 24.0, false, 0},
      {"384px", false, false, 0, false, 0},
      {"abc", false, false, 0, false, 0},
      {"", false, false, 0, false, 0},
      {" 4", false, false, 0, false, 0},
      {"4 ", false, false, 0, false, 0},
      {"1e40", false, false, 0, false, 0},
      {"-1e40", false, false, 0, false, 0},
      {"1e400", false, false, 0, false, 0},
      {"inf", false, false, 0, false, 0},
      {"-inf", false, false, 0, false, 0},
      {"nan", false, false, 0, false, 0},
      {"0.5.1", false, false, 0, false, 0},
      {"1,5", false, false, 0, false, 0},
      {"99999999999", false, true, 99999999999.0, true, 99999999999},
      {"50ms", false, false, 0, false, 0},
      {"3x", false, false, 0, false, 0},
      {"8abc", false, false, 0, false, 0},
      {"-1", false, true, -1.0, false, 0},
      // Seeds keep strtoull's base-0 forms: 0x hexadecimal (the CI chaos
      // soak's) and 0-prefixed octal.
      {"0x51", false, true, 81.0, true, 0x51},
      {"0xBEEF", false, true, 48879.0, true, 0xBEEF},
      {"0x", false, false, 0, false, 0},
      {"010", true, true, 10.0, true, 8},
      {"18446744073709551615", false, true, 18446744073709551615.0, true, UINT64_MAX},
      {"18446744073709551616", false, true, 18446744073709551616.0, false, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("token '") + c.token + "'");
    for (const char* flag : {"--ranks", "--sessions", "--image", "--retry-max", "--retry-base-ms",
                             "--recv-timeout", "--max-p"}) {
      if (c.is_int) {
        EXPECT_EQ(tools::parse_positive_int(c.token, flag), static_cast<int>(c.value));
      } else {
        EXPECT_THROW((void)tools::parse_positive_int(c.token, flag), tools::ParseError);
      }
    }
    for (const char* flag : {"--scale", "--rotx", "--roty"}) {
      if (c.is_float) {
        EXPECT_EQ(tools::parse_finite_float(c.token, flag), c.value);
      } else {
        EXPECT_THROW((void)tools::parse_finite_float(c.token, flag), tools::ParseError);
      }
    }
    if (c.is_u64) {
      EXPECT_EQ(tools::parse_u64(c.token, "--fault-seed"), c.u64);
    } else {
      EXPECT_THROW((void)tools::parse_u64(c.token, "--fault-seed"), tools::ParseError);
    }
  }
}

TEST(RenderCli, FaultAndTfSpecsAreStrict) {
  // slspvr-render reads --fault-kill with parse_rank_stage, --fault-drop
  // (source,dest[,tag]), --fault-corrupt and --fault-delay (source,dest,n)
  // with parse_int_list, and --tf (lo,hi,opacity) with parse_float_list. A
  // failure exits 2. sscanf used to accept "1,1x" as a kill at rank 1,
  // stage 1 and "0.1,0.9,0.5junk" as a transfer function.
  enum class Flag { kKill, kDrop, kTriple, kTf };
  struct Case {
    Flag flag;
    const char* token;
    bool ok;
  };
  const Case cases[] = {
      {Flag::kKill, "1,1", true},
      {Flag::kKill, "0,12", true},
      {Flag::kKill, "1,1x", false},
      {Flag::kKill, "1", false},
      {Flag::kKill, "-1,1", false},
      {Flag::kKill, "1,1,1", false},
      {Flag::kKill, "1, 1", false},
      {Flag::kDrop, "1,0", true},
      {Flag::kDrop, "-1,-1", true},
      {Flag::kDrop, "1,-1,-1", true},
      {Flag::kDrop, "1,0,-1002", true},
      {Flag::kDrop, "1,0,5x", false},
      {Flag::kDrop, "1", false},
      {Flag::kDrop, "1,0,1,1", false},
      {Flag::kDrop, "1,,0", false},
      {Flag::kDrop, "1,0,", false},
      {Flag::kDrop, "a,b", false},
      {Flag::kDrop, "1, 0", false},
      {Flag::kDrop, "+1,0", false},
      {Flag::kDrop, "--1,0", false},
      {Flag::kDrop, "-,0", false},
      {Flag::kDrop, "1,99999999999", false},
      {Flag::kTriple, "3,-1,5", true},
      {Flag::kTriple, "-1,-1,1", true},
      {Flag::kTriple, "3,-1", false},
      {Flag::kTriple, "3,-1,5ms", false},
      {Flag::kTriple, "3,-1,5,5", false},
      {Flag::kTriple, "", false},
      {Flag::kTf, "60,140,0.45", true},
      {Flag::kTf, "0.1,0.9,0.5", true},
      {Flag::kTf, "0.1,0.9,0.5junk", false},
      {Flag::kTf, "0.1,0.9", false},
      {Flag::kTf, "0.1,0.9,0.5,1", false},
      {Flag::kTf, "a,b,c", false},
      {Flag::kTf, "0.1,,0.5", false},
      {Flag::kTf, "1e40,0,0", false},
      {Flag::kTf, "0.1,nan,0.5", false},
      {Flag::kTf, "0.1, 0.9,0.5", false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("token '") + c.token + "'");
    const auto parse = [&] {
      switch (c.flag) {
        case Flag::kKill: (void)tools::parse_rank_stage(c.token, "--fault-kill"); break;
        case Flag::kDrop: (void)tools::parse_int_list(c.token, "--fault-drop", 2, 3); break;
        case Flag::kTriple: (void)tools::parse_int_list(c.token, "--fault-corrupt", 3, 3); break;
        case Flag::kTf: (void)tools::parse_float_list(c.token, "--tf", 3); break;
      }
    };
    if (c.ok) {
      EXPECT_NO_THROW(parse());
    } else {
      EXPECT_THROW(parse(), tools::ParseError);
    }
  }
  EXPECT_EQ(tools::parse_int_list("1,-1,-1002", "--fault-drop", 2, 3),
            (std::vector<int>{1, -1, -1002}));
  EXPECT_EQ(tools::parse_float_list("60,140,0.45", "--tf", 3),
            (std::vector<double>{60.0, 140.0, 0.45}));
}

TEST(RenderCli, ParseWorkersPerRankIsStrict) {
  EXPECT_EQ(tools::parse_workers_per_rank("1"), 1);
  EXPECT_EQ(tools::parse_workers_per_rank("4"), 4);
  EXPECT_EQ(tools::parse_workers_per_rank("256"), 256);
  // Whole-token grammar: no signs, spaces, suffixes or empty values.
  EXPECT_THROW((void)tools::parse_workers_per_rank(""), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("0"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("-2"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("+2"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank(" 2"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("2 "), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("2x"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("4,4"), tools::ParseError);
  // Sanity cap: pool sizes past kMaxWorkersPerRank are rejected, not spawned.
  EXPECT_THROW((void)tools::parse_workers_per_rank("257"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_workers_per_rank("99999999999"), tools::ParseError);
}

TEST(RenderCli, ParseRankStageIsStrict) {
  const tools::RankStage rs = tools::parse_rank_stage("2,1", "--proc-kill");
  EXPECT_EQ(rs.rank, 2);
  EXPECT_EQ(rs.stage, 1);
  EXPECT_EQ(tools::parse_rank_stage("0,0", "--proc-kill").rank, 0);
  EXPECT_THROW((void)tools::parse_rank_stage("2", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("2,1,0", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("2,", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage(",1", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("-1,1", "--proc-kill"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_rank_stage("a,b", "--proc-kill"), tools::ParseError);
}

TEST(RenderCli, ProcFamilyFlagsParse) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--transport", "tcp",
                                          "--heartbeat-ms", "10",
                                          "--heartbeat-timeout-ms", "500",
                                          "--proc-kill", "2,1"});
  EXPECT_TRUE(cli.active());
  EXPECT_EQ(cli.procs, 4);
  EXPECT_EQ(cli.transport, "tcp");
  EXPECT_EQ(cli.heartbeat_ms, 10);
  EXPECT_EQ(cli.heartbeat_timeout_ms, 500);
  ASSERT_EQ(cli.crashes.size(), 1u);
  EXPECT_EQ(cli.crashes.front().rank, 2);
  EXPECT_EQ(cli.crashes.front().stage, 1);
  EXPECT_EQ(cli.crashes.front().kind, pvr::ProcCrash::Kind::kSigkill);
  EXPECT_EQ(cli.crashes.front().frame, -1);  // no @frame qualifier
  EXPECT_NO_THROW(tools::validate_proc_cli(cli, /*fault_flags_present=*/false));
}

TEST(RenderCli, UnknownTransportRejected) {
  EXPECT_THROW((void)parse_flags({"--procs", "4", "--transport", "smoke-signal"}),
               tools::ParseError);
}

TEST(RenderCli, OneFrameRunsAcceptSeveralPlantedCrashes) {
  // A one-frame run is a one-frame sequence: several planted crashes all
  // fire in frame 0, with or without an explicit --frames 1.
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"--procs", "4", "--proc-kill", "1,1", "--proc-stall", "2,1"},
           {"--procs", "4", "--frames", "1", "--proc-kill", "1,1", "--proc-kill", "2,1"}}) {
    const tools::ProcCli cli = parse_flags(argv);
    EXPECT_NO_THROW(tools::validate_proc_cli(cli, false));
    EXPECT_FALSE(cli.sequence());
    const pvr::SequenceProcOptions seq = tools::to_sequence_options(cli);
    EXPECT_EQ(seq.frames, 1);
    EXPECT_EQ(seq.crashes.size(), 2u);
  }
  const tools::ProcCli seq = parse_flags({"--procs", "4", "--frames", "5",
                                          "--proc-kill", "1,1@1",
                                          "--proc-kill", "2,1@3"});
  EXPECT_NO_THROW(tools::validate_proc_cli(seq, false));
  EXPECT_EQ(seq.crashes.size(), 2u);
}

TEST(RenderCli, ProcStallParsesAsSigstop) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--proc-stall", "3,2"});
  ASSERT_EQ(cli.crashes.size(), 1u);
  EXPECT_EQ(cli.crashes.front().kind, pvr::ProcCrash::Kind::kSigstop);
}

TEST(RenderCli, ProcSegvAndExitParseAsTheirKinds) {
  const tools::ProcCli cli = parse_flags(
      {"--procs", "4", "--frames", "3", "--proc-segv", "0,1@0", "--proc-exit", "2,0@2"});
  ASSERT_EQ(cli.crashes.size(), 2u);
  EXPECT_EQ(cli.crashes[0].kind, pvr::ProcCrash::Kind::kSigsegv);
  EXPECT_EQ(cli.crashes[0].frame, 0);
  EXPECT_EQ(cli.crashes[1].kind, pvr::ProcCrash::Kind::kExit);
  EXPECT_EQ(cli.crashes[1].rank, 2);
  EXPECT_EQ(cli.crashes[1].frame, 2);
  EXPECT_NO_THROW(tools::validate_proc_cli(cli, false));
}

TEST(RenderCli, CrashSpecGrammarIsStrict) {
  using K = pvr::ProcCrash::Kind;
  const pvr::ProcCrash plain = tools::parse_crash_spec("2,1", "--proc-kill", K::kSigkill);
  EXPECT_EQ(plain.rank, 2);
  EXPECT_EQ(plain.stage, 1);
  EXPECT_EQ(plain.frame, -1);
  const pvr::ProcCrash framed = tools::parse_crash_spec("0,3@7", "--proc-kill", K::kSigkill);
  EXPECT_EQ(framed.frame, 7);
  for (const char* bad : {"2,1@", "2,1@x", "2,1@-1", "2,1@2@3", "2@1", "@2", "2,1,3@1"}) {
    SCOPED_TRACE(bad);
    try {
      (void)tools::parse_crash_spec(bad, "--proc-kill", K::kSigkill);
      FAIL() << "must reject";
    } catch (const tools::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("rank,stage[@frame]"), std::string::npos);
    }
  }
}

TEST(RenderCli, NonFamilyFlagsAreLeftAlone) {
  tools::ProcCli cli;
  const auto next = []() -> std::string { return ""; };
  EXPECT_FALSE(tools::try_parse_proc_flag(cli, "--ranks", next));
  EXPECT_FALSE(tools::try_parse_proc_flag(cli, "--fault-kill", next));
  EXPECT_FALSE(cli.active());
}

// --- Contradiction rules -----------------------------------------------------

TEST(RenderCli, ProcsExcludesInProcessFaultInjection) {
  const tools::ProcCli cli = parse_flags({"--procs", "4"});
  try {
    tools::validate_proc_cli(cli, /*fault_flags_present=*/true);
    FAIL() << "--procs with --fault-* must be rejected";
  } catch (const tools::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--procs cannot be combined"), std::string::npos);
    EXPECT_NE(what.find("--proc-kill"), std::string::npos)
        << "the message must point at the real-crash alternative";
  }
}

TEST(RenderCli, FamilyFlagsWithoutProcsAreRejected) {
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"--transport", "tcp"},
           {"--heartbeat-ms", "10"},
           {"--heartbeat-timeout-ms", "500"},
           {"--proc-kill", "1,1"},
           {"--proc-stall", "1,1"},
           {"--frames", "4"},
           {"--respawn-max", "1"}}) {
    SCOPED_TRACE(argv.front());
    const tools::ProcCli cli = parse_flags(argv);
    EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
  }
}

TEST(RenderCli, HeartbeatTimeoutMustExceedInterval) {
  const tools::ProcCli cli = parse_flags(
      {"--procs", "4", "--heartbeat-ms", "100", "--heartbeat-timeout-ms", "100"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, PlantedCrashRankMustBeInRange) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--proc-kill", "4,0"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, SequenceFlagsAreAcceptedAtOneFrame) {
  // --respawn-max and the @0 qualifier are legal in a one-frame sequence (no
  // resurrection follows its only frame); @1 is past its end.
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"--procs", "4", "--respawn-max", "1"},
           {"--procs", "4", "--frames", "1", "--respawn-max", "0"},
           {"--procs", "4", "--proc-kill", "1,1@0"},
           {"--procs", "4", "--frames", "1", "--proc-exit", "2,0@0", "--respawn-max", "3"}}) {
    const tools::ProcCli cli = parse_flags(argv);
    EXPECT_NO_THROW(tools::validate_proc_cli(cli, false));
  }
  const tools::ProcCli respawn = parse_flags({"--procs", "4", "--respawn-max", "1"});
  EXPECT_EQ(tools::to_sequence_options(respawn).respawn.max_respawns_per_rank, 1);
  const tools::ProcCli framed = parse_flags({"--procs", "4", "--proc-kill", "1,1@0"});
  EXPECT_EQ(tools::to_sequence_options(framed).crashes.front().frame, 0);
  const tools::ProcCli past = parse_flags({"--procs", "4", "--proc-kill", "1,1@1"});
  EXPECT_THROW(tools::validate_proc_cli(past, false), tools::ParseError);
}

TEST(RenderCli, CrashFrameMustBeWithinSequence) {
  const tools::ProcCli cli =
      parse_flags({"--procs", "4", "--frames", "3", "--proc-kill", "1,1@3"});
  EXPECT_THROW(tools::validate_proc_cli(cli, false), tools::ParseError);
}

TEST(RenderCli, SequenceFlagsLowerOntoSequenceOptions) {
  const tools::ProcCli cli = parse_flags({"--procs", "4", "--transport", "tcp",
                                          "--frames", "10", "--respawn-max", "0",
                                          "--proc-segv", "1,1@2"});
  tools::validate_proc_cli(cli, false);
  EXPECT_TRUE(cli.sequence());
  const pvr::SequenceProcOptions seq = tools::to_sequence_options(cli);
  EXPECT_EQ(seq.frames, 10);
  EXPECT_EQ(seq.proc.transport, "tcp");
  EXPECT_EQ(seq.respawn.max_respawns_per_rank, 0);
  ASSERT_EQ(seq.crashes.size(), 1u);
  EXPECT_EQ(seq.crashes.front().kind, pvr::ProcCrash::Kind::kSigsegv);
  EXPECT_EQ(seq.crashes.front().frame, 2);
}

TEST(RenderCli, ValidatedFlagsLowerOntoProcOptions) {
  const tools::ProcCli cli = parse_flags({"--procs", "2", "--transport", "tcp",
                                          "--heartbeat-ms", "15",
                                          "--heartbeat-timeout-ms", "450",
                                          "--proc-stall", "1,2"});
  tools::validate_proc_cli(cli, false);
  // Every --procs run is a sequence: a one-frame run lowers onto the
  // sequence options, its planted crash included.
  const pvr::SequenceProcOptions seq = tools::to_sequence_options(cli);
  EXPECT_EQ(seq.frames, 1);
  EXPECT_EQ(seq.proc.transport, "tcp");
  EXPECT_EQ(seq.proc.heartbeat_interval.count(), 15);
  EXPECT_EQ(seq.proc.heartbeat_timeout.count(), 450);
  ASSERT_EQ(seq.crashes.size(), 1u);
  EXPECT_EQ(seq.crashes.front().rank, 1);
  EXPECT_EQ(seq.crashes.front().stage, 2);
  EXPECT_EQ(seq.crashes.front().kind, pvr::ProcCrash::Kind::kSigstop);
}
