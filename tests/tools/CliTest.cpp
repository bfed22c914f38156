//===- tests/tools/CliTest.cpp - CLI driver integration tests ---------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

#ifndef PSOPT_CLI_PATH
#error "PSOPT_CLI_PATH must be defined by the build"
#endif

struct CliResult {
  int ExitCode;
  std::string Output;
};

CliResult runCli(const std::string &Args) {
  std::string Cmd = std::string(PSOPT_CLI_PATH) + " " + Args + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  std::array<char, 512> Buf;
  while (fgets(Buf.data(), Buf.size(), Pipe))
    Out += Buf.data();
  int Status = pclose(Pipe);
  return CliResult{WEXITSTATUS(Status), Out};
}

std::string writeTemp(const char *Name, const char *Contents) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream F(Path);
  F << Contents;
  return Path;
}

const char *MpProgram = R"(
var data;
var flag atomic;
func producer { block 0: data.na := 42; flag.rel := 1; ret; }
func consumer { block 0: r := flag.acq; be r == 1, 1, 2;
                block 1: v := data.na; print(v); ret;
                block 2: print(-1); ret; }
thread producer; thread consumer;
)";

const char *RacyProgram = R"(
var x;
func t1 { block 0: x.na := 1; ret; }
func t2 { block 0: x.na := 2; ret; }
thread t1; thread t2;
)";

TEST(CliTest, NoArgsShowsUsage) {
  CliResult R = runCli("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(CliTest, ExploreListsBehaviors) {
  std::string P = writeTemp("cli_mp.psopt", MpProgram);
  CliResult R = runCli("explore " + P);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("[42] done"), std::string::npos);
  EXPECT_NE(R.Output.find("[-1] done"), std::string::npos);
  EXPECT_NE(R.Output.find("(exhaustive)"), std::string::npos);
}

TEST(CliTest, ExploreNonPreemptive) {
  std::string P = writeTemp("cli_mp2.psopt", MpProgram);
  CliResult R = runCli("explore --np " + P);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("[42] done"), std::string::npos);
}

TEST(CliTest, RaceVerdicts) {
  std::string Clean = writeTemp("cli_clean.psopt", MpProgram);
  CliResult R1 = runCli("race " + Clean);
  EXPECT_EQ(R1.ExitCode, 0);
  EXPECT_NE(R1.Output.find("ww-race-free"), std::string::npos);

  std::string Racy = writeTemp("cli_racy.psopt", RacyProgram);
  CliResult R2 = runCli("race " + Racy);
  EXPECT_EQ(R2.ExitCode, 1);
  EXPECT_NE(R2.Output.find("ww-race-FOUND"), std::string::npos);
  EXPECT_NE(R2.Output.find("witness:"), std::string::npos);
}

TEST(CliTest, RaceRejectsRwOnNonPreemptiveMachine) {
  // rw races are checked on the interleaving machine only; --np must not
  // be dropped silently.
  std::string P = writeTemp("cli_race_rw_np.psopt", MpProgram);
  CliResult R = runCli("race --rw --np " + P);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("--np"), std::string::npos);
  EXPECT_EQ(R.Output.find("rw-race-"), std::string::npos);
  CliResult Rw = runCli("race --rw " + P);
  EXPECT_EQ(Rw.ExitCode, 0);
  EXPECT_NE(Rw.Output.find("rw-race-free"), std::string::npos);
}

TEST(CliTest, LintCleanProgramExitsZero) {
  std::string P = writeTemp("cli_lint_clean.psopt", MpProgram);
  CliResult R = runCli("lint " + P);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("sync-order: flag flag"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("summary: 0 race candidates"), std::string::npos)
      << R.Output;
}

TEST(CliTest, LintRacyProgramExitsOne) {
  std::string P = writeTemp("cli_lint_racy.psopt", RacyProgram);
  CliResult R = runCli("lint " + P);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("race-candidate[ww]: x"), std::string::npos)
      << R.Output;
}

TEST(CliTest, LintJsonFormat) {
  std::string P = writeTemp("cli_lint_json.psopt", RacyProgram);
  CliResult R = runCli("lint --format=json " + P);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("\"race_candidates\": ["), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"kind\": \"ww\""), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("race-candidate["), std::string::npos)
      << "text rendering leaked into JSON mode:\n"
      << R.Output;
}

TEST(CliTest, ExploreReduceSettingsAgree) {
  std::string P = writeTemp("cli_reduce.psopt", MpProgram);
  CliResult On = runCli("explore --reduce=on " + P);
  CliResult Off = runCli("explore --reduce=off " + P);
  EXPECT_EQ(On.ExitCode, 0);
  EXPECT_EQ(Off.ExitCode, 0);
  for (const CliResult *R : {&On, &Off}) {
    EXPECT_NE(R->Output.find("[42] done"), std::string::npos) << R->Output;
    EXPECT_NE(R->Output.find("[-1] done"), std::string::npos) << R->Output;
  }
  // The pre-analysis reducer is retired; its flag value is an error now.
  EXPECT_NE(runCli("explore --reduce=legacy " + P).ExitCode, 0);
}

TEST(CliTest, OptimizeRunsPasses) {
  std::string P = writeTemp("cli_opt.psopt", R"(
    var x;
    func f { block 0: r := 2 + 3; x.na := 9; x.na := r; print(r); ret; }
    thread f;
  )");
  CliResult R = runCli("optimize --passes=constprop,dce,simplifycfg " + P);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("x.na := 5"), std::string::npos)
      << R.Output; // constprop folded, dce killed x.na := 9
  EXPECT_EQ(R.Output.find("x.na := 9"), std::string::npos) << R.Output;
}

TEST(CliTest, RefineDetectsViolation) {
  std::string Src = writeTemp("cli_src.psopt", R"(
    func f { block 0: print(1); ret; } thread f;)");
  std::string TgtGood = writeTemp("cli_tgood.psopt", R"(
    func f { block 0: print(1); ret; } thread f;)");
  std::string TgtBad = writeTemp("cli_tbad.psopt", R"(
    func f { block 0: print(2); ret; } thread f;)");
  EXPECT_EQ(runCli("refine " + TgtGood + " " + Src).ExitCode, 0);
  CliResult R = runCli("refine " + TgtBad + " " + Src);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("FAILS"), std::string::npos);
}

TEST(CliTest, EquivReportsVerdict) {
  std::string P = writeTemp("cli_eq.psopt", MpProgram);
  CliResult R = runCli("equiv " + P);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("HOLDS"), std::string::npos);
}

TEST(CliTest, WitnessReconstructsExecution) {
  std::string P = writeTemp("cli_wit.psopt", MpProgram);
  CliResult R = runCli("witness " + P + " --trace=42 --end=done");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("W(rel,flag,1)"), std::string::npos);
  EXPECT_NE(R.Output.find("out(42)"), std::string::npos);
  CliResult R2 = runCli("witness " + P + " --trace=0 --end=done");
  EXPECT_EQ(R2.ExitCode, 1);
  EXPECT_NE(R2.Output.find("no execution"), std::string::npos);
}

TEST(CliTest, WitnessReportsNodeBound) {
  // A search cut by --max-nodes is not a proof that no execution exists:
  // the 8-step [42] witness needs more than three nodes.
  std::string P = writeTemp("cli_wit_bound.psopt", MpProgram);
  CliResult R = runCli("witness " + P + " --trace=42 --end=done --max-nodes=3");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("--max-nodes=3"), std::string::npos);
  EXPECT_NE(R.Output.find("bounded"), std::string::npos);
  EXPECT_EQ(R.Output.find("no execution with that behavior"),
            std::string::npos);
  CliResult Full = runCli("witness " + P + " --trace=42 --end=done");
  EXPECT_EQ(Full.ExitCode, 0);
  EXPECT_NE(Full.Output.find("out(42)"), std::string::npos);
}

TEST(CliTest, WitnessRejectsMalformedTrace) {
  std::string P = writeTemp("cli_wit_bad.psopt", MpProgram);
  for (const char *Bad : {"abc", "1,,2", "1,", "99999999999999999999",
                          "2147483648", "-2147483649", "4x"}) {
    SCOPED_TRACE(Bad);
    CliResult R = runCli("witness " + P + " --trace=" + Bad);
    EXPECT_EQ(R.ExitCode, 2);
    EXPECT_NE(R.Output.find("invalid value for --trace="), std::string::npos);
  }
  // Negative values are well-formed: the consumer prints -1 when it
  // misses the flag.
  CliResult R = runCli("witness " + P + " --trace=-1 --end=done");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("out(-1)"), std::string::npos);
  // The decimal parser behind --trace= rejects overflow for the other
  // numeric flags too, instead of wrapping.
  CliResult Big = runCli("witness " + P + " --max-nodes=18446744073709551616");
  EXPECT_EQ(Big.ExitCode, 2);
  EXPECT_NE(Big.Output.find("invalid value for --max-nodes="),
            std::string::npos);
}

TEST(CliTest, LitmusRegistry) {
  CliResult List = runCli("litmus");
  EXPECT_EQ(List.ExitCode, 0);
  EXPECT_NE(List.Output.find("sb"), std::string::npos);

  CliResult Run = runCli("litmus sb");
  EXPECT_EQ(Run.ExitCode, 0);
  EXPECT_NE(Run.Output.find("expectations: MET"), std::string::npos);

  EXPECT_EQ(runCli("litmus nonexistent").ExitCode, 2);
}

TEST(CliTest, ParseErrorsAreReported) {
  std::string P = writeTemp("cli_bad.psopt", "func f { oops");
  CliResult R = runCli("explore " + P);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("parse error"), std::string::npos);
}

TEST(CliTest, FuzzVerifiedPassesReportCleanCampaign) {
  CliResult R = runCli("fuzz --runs=5 --seed=7 --no-shrink");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("runs=5"), std::string::npos);
  EXPECT_NE(R.Output.find("failures=0"), std::string::npos);
  EXPECT_NE(R.Output.find("seed=7"), std::string::npos);
}

TEST(CliTest, FuzzCatchesUnsafePassAndPrintsSeedAndPipeline) {
  CliResult R = runCli("fuzz --runs=1 --seed=11 --passes=unsafe-dce "
                       "--no-shrink --no-differential");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("FAILURE[refinement]"), std::string::npos);
  EXPECT_NE(R.Output.find("seed=11"), std::string::npos);
  EXPECT_NE(R.Output.find("pipeline=unsafe-dce"), std::string::npos);
}

std::string slurp(const std::string &Path) {
  std::ifstream F(Path);
  std::string Out((std::istreambuf_iterator<char>(F)),
                  std::istreambuf_iterator<char>());
  return Out;
}

TEST(CliTest, TraceOutAndProgressRoundTrip) {
  std::string P = writeTemp("cli_trace_mp.psopt", MpProgram);
  std::string TracePath = std::string(::testing::TempDir()) + "cli_trace.json";
  CliResult R = runCli("explore --jobs=2 --trace-out=" + TracePath +
                       " --progress=1 " + P);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // explore's summary reports wall-clock and throughput.
  EXPECT_NE(R.Output.find("wall="), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("nodes/s)"), std::string::npos) << R.Output;
  // The heartbeat always fires at least once (the final sample).
  EXPECT_NE(R.Output.find("[psopt] final"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("cache-hit="), std::string::npos) << R.Output;

  std::string Trace = slurp(TracePath);
  ASSERT_FALSE(Trace.empty());
  // A Chrome trace-event file with per-worker spans and the heartbeat's
  // counter series.
  EXPECT_EQ(Trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(Trace.find("\"name\":\"worker\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"name\":\"search\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"cat\":\"progress\""), std::string::npos) << Trace;
  std::remove(TracePath.c_str());
}

TEST(CliTest, FuzzEmitsOnePerRunJsonlRecord) {
  std::string JsonlPath = std::string(::testing::TempDir()) + "cli_fuzz.jsonl";
  CliResult R = runCli("fuzz --runs=3 --seed=5 --passes=dce --no-shrink "
                       "--no-differential --trace-jsonl=" + JsonlPath);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::string Jsonl = slurp(JsonlPath);
  std::size_t Records = 0, Pos = 0;
  const std::string Needle = "\"cat\":\"fuzz\",\"name\":\"run\"";
  while ((Pos = Jsonl.find(Needle, Pos)) != std::string::npos) {
    ++Records;
    ++Pos;
  }
  EXPECT_EQ(Records, 3u) << Jsonl;
  // Per-run records carry the replay coordinates and run-local deltas.
  EXPECT_NE(Jsonl.find("\"seed\":5"), std::string::npos) << Jsonl;
  EXPECT_NE(Jsonl.find("\"pipeline\":\"dce\""), std::string::npos) << Jsonl;
  EXPECT_NE(Jsonl.find("\"verdict\":\"ok\""), std::string::npos) << Jsonl;
  EXPECT_NE(Jsonl.find("\"nodes\":"), std::string::npos) << Jsonl;
  EXPECT_NE(Jsonl.find("\"duration_ms\":"), std::string::npos) << Jsonl;
  std::remove(JsonlPath.c_str());
}

TEST(CliTest, StatsFormatJson) {
  std::string P = writeTemp("cli_stats_mp.psopt", MpProgram);
  CliResult R = runCli("explore --stats-format=json " + P);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("{\"counters\": {"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"timers\": {"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"explore.nodes\": "), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"explore.search\": {\"seconds\": "),
            std::string::npos)
      << R.Output;
}

/// The number after the first \p Key at or past \p From in \p Out, or -1.
long long numberAfter(const std::string &Out, const std::string &Key,
                      std::size_t From = 0) {
  std::size_t At = Out.find(Key, From);
  return At == std::string::npos
             ? -1
             : std::strtoll(Out.c_str() + At + Key.size(), nullptr, 10);
}

TEST(CliTest, HeartbeatAndCountersMatchOneWorker) {
  // Search workers publish explore.nodes in batches while they run and
  // the rest when they join, and tally their thread steps until then: the
  // final heartbeat must see every visited node, and the counters must
  // equal a one-worker run's.
  std::string P = writeTemp("cli_heartbeat.psopt", R"(
var x atomic; var y atomic; var z atomic;
func a { block 0: x.rlx := 1; y.rlx := 2; r := z.rlx; print(r); ret; }
func b { block 0: y.rlx := 3; z.rlx := 4; r := x.rlx; print(r); ret; }
func c { block 0: z.rlx := 5; x.rlx := 6; r := y.rlx; print(r); ret; }
thread a; thread b; thread c;
)");
  CliResult Many = runCli("explore --no-promises --jobs=4 --progress=1 "
                          "--stats-format=json " + P);
  ASSERT_EQ(Many.ExitCode, 0) << Many.Output;
  CliResult One =
      runCli("explore --no-promises --jobs=1 --stats-format=json " + P);
  ASSERT_EQ(One.ExitCode, 0) << One.Output;

  long long Visited = numberAfter(Many.Output, "\nnodes=");
  EXPECT_GT(Visited, 10000) << Many.Output; // many flush batches per worker
  std::size_t Final = Many.Output.find("[psopt] final");
  ASSERT_NE(Final, std::string::npos) << Many.Output;
  EXPECT_EQ(numberAfter(Many.Output, " nodes=", Final), Visited);

  for (const char *Key : {"\"explore.nodes\": ", "\"machine.thread_steps\": ",
                          "\"explore.transitions\": "}) {
    SCOPED_TRACE(Key);
    EXPECT_GT(numberAfter(One.Output, Key), 0) << One.Output;
    EXPECT_EQ(numberAfter(Many.Output, Key), numberAfter(One.Output, Key));
  }
  EXPECT_EQ(numberAfter(Many.Output, "\"explore.nodes\": "), Visited);
}

TEST(CliTest, StatsJsonCountsUnfulfillablePromises) {
  // The producer's promise domain holds data = 0, which none of its stores
  // writes: the candidate is dropped before certification, and counted.
  std::string P = writeTemp("cli_stats_unfulfillable.psopt", MpProgram);
  auto Rejects = [](const std::string &Out) -> long {
    const std::string Key = "\"machine.unfulfillable_rejects\": ";
    std::size_t At = Out.find(Key);
    return At == std::string::npos
               ? -1
               : std::strtol(Out.c_str() + At + Key.size(), nullptr, 10);
  };
  CliResult On = runCli("explore --stats-format=json " + P);
  EXPECT_EQ(On.ExitCode, 0) << On.Output;
  EXPECT_GT(Rejects(On.Output), 0) << On.Output;
  CliResult Off = runCli("explore --no-promises --stats-format=json " + P);
  EXPECT_EQ(Off.ExitCode, 0) << Off.Output;
  EXPECT_EQ(Rejects(Off.Output), 0) << Off.Output;
}

TEST(CliTest, TelemetryFlagsAreGlobal) {
  // --stats is accepted by every subcommand, not just the search ones.
  std::string P = writeTemp("cli_stats_lint.psopt", MpProgram);
  CliResult Lint = runCli("lint --stats " + P);
  EXPECT_EQ(Lint.ExitCode, 0) << Lint.Output;
  CliResult Opt = runCli("optimize --passes=dce --stats " + P);
  EXPECT_EQ(Opt.ExitCode, 0) << Opt.Output;
  EXPECT_NE(Opt.Output.find("opt.dce = "), std::string::npos) << Opt.Output;
  // Unknown flags are still rejected.
  EXPECT_EQ(runCli("lint --jobs=2 " + P).ExitCode, 2);
}

TEST(CliTest, FuzzReplaysTheCheckedInCorpus) {
  CliResult R = runCli(std::string("fuzz --replay=") + PSOPT_CORPUS_DIR);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 mismatches"), std::string::npos);
  // Satellite contract: every replay line names the seed and pipeline.
  EXPECT_NE(R.Output.find("seed="), std::string::npos);
  EXPECT_NE(R.Output.find("pipeline="), std::string::npos);
}

} // namespace
