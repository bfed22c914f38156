//===- tools/psopt.cpp - The psopt command-line driver ------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// A command-line front end to the workbench:
//
//   psopt explore  <file> [--np] [--no-promises] [--max-nodes=N] [--jobs=N]
//       enumerate all behaviors (interleaving or non-preemptive machine)
//   psopt race     <file> [--np] [--rw] [--no-promises] [--max-nodes=N]
//                  [--jobs=N]
//       check write-write (or read-write) race freedom; --rw runs on the
//       interleaving machine only, so --rw --np is rejected
//   psopt lint     <file> [--format=text|json]
//       static diagnostics: race candidates, sync chains, mixed-mode
//       atomics, dominated fences, never-read atomics
//   psopt optimize <file> --passes=constprop,dce,cse,licm,simplifycfg
//       run passes and print the optimized program
//   psopt refine   <target> <source> [--no-promises] [--jobs=N]
//       check event-trace refinement target ⊆ source
//   psopt equiv    <file> [--no-promises] [--jobs=N]
//       check interleaving ≈ non-preemptive (Thm 4.1) on one program
//   psopt witness  <file> --trace=v1,v2,... [--end=done|abort|partial]
//                  [--np] [--no-promises] [--max-nodes=N]
//                  [--cert-cache=on|off]
//       reconstruct a shortest execution producing the given outputs
//   psopt litmus   [name]
//       run a registered litmus test (all names when omitted)
//   psopt fuzz     [--seed=N] [--runs=N] [--jobs=N] [--passes=p1,p2,...]
//                  [--promises] [--no-shrink] [--no-differential]
//                  [--time-budget=SEC] [--corpus=DIR] [--replay=DIR]
//       differential-fuzz the optimizer against the exploration oracle;
//       --replay re-checks a directory of stored reproducers instead
//
// Flag parsing is table-driven: one FlagSpec per flag, one CommandSpec per
// command naming the flags it accepts — a flag a command doesn't list is
// rejected instead of silently ignored. Every exploring command accepts
// --cert-cache=on|off (default on); explore/refine/equiv/fuzz also accept
// --reduce=on|off (default on; see DESIGN.md sections 10 and 13), while
// race and witness always walk the unreduced graph. The telemetry flags
// --stats, --stats-format, --trace-out, --trace-jsonl and --progress are
// global: every command accepts them (DESIGN.md §14).
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "explore/Explorer.h"
#include "explore/Refinement.h"
#include "explore/Witness.h"
#include "fuzz/Fuzzer.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "litmus/Litmus.h"
#include "nps/NPMachine.h"
#include "opt/Pass.h"
#include "race/RWRace.h"
#include "race/WWRace.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace psopt;

namespace {

struct Options {
  std::vector<std::string> Positional;
  bool NonPreemptive = false;
  bool NoPromises = false;
  bool RwRace = false;
  bool CertCacheOn = true;
  bool ReduceOn = true;
  bool Stats = false;
  std::string StatsFormat = "text"; ///< --stats-format=text|json
  std::string TraceOut;             ///< Chrome trace-event JSON path
  std::string TraceJsonl;           ///< compact JSONL trace path
  double ProgressSec = 0;           ///< heartbeat interval; 0 = off
  std::uint64_t MaxNodes = 2'000'000;
  bool MaxNodesSet = false;
  unsigned Jobs = 1;
  std::string Passes;
  Trace TraceOuts; ///< --trace=v1,v2,...
  std::string End = "done";
  std::string Format = "text";

  // fuzz
  std::uint64_t Seed = 1;
  unsigned Runs = 100;
  bool Promises = false; ///< fuzz explores promise-free by default
  bool Shrink = true;
  bool Differential = true;
  unsigned TimeBudgetSec = 0;
  std::string CorpusDir;
  std::string ReplayDir;
};

bool parseU64(const std::string &S, std::uint64_t &Out) {
  if (S.empty())
    return false;
  std::uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    auto D = static_cast<std::uint64_t>(C - '0');
    if (V > (std::numeric_limits<std::uint64_t>::max() - D) / 10)
      return false; // overflow
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

/// Parses a comma-separated list of values, each an optionally negative
/// decimal within Val's range. The empty string is the empty trace.
bool parseTrace(const std::string &S, Trace &Out) {
  Out.clear();
  if (S.empty())
    return true;
  // The extra comma makes getline yield the last item even when it is
  // empty, so "1," and "1,,2" are rejected like any other empty item.
  std::stringstream SS(S + ",");
  std::string Tok;
  while (std::getline(SS, Tok, ',')) {
    bool Neg = !Tok.empty() && Tok[0] == '-';
    std::uint64_t Mag = 0;
    if (!parseU64(Tok.substr(Neg ? 1 : 0), Mag) ||
        Mag > static_cast<std::uint64_t>(std::numeric_limits<Val>::max()) +
                  (Neg ? 1 : 0))
      return false;
    auto V = static_cast<std::int64_t>(Mag);
    Out.push_back(static_cast<Val>(Neg ? -V : V));
  }
  return true;
}

/// Every flag the driver knows, across all commands.
enum class Flag {
  Np,
  NoPromises,
  Rw,
  CertCache,
  Reduce,
  Stats,
  StatsFormat,
  TraceOut,
  TraceJsonl,
  Progress,
  MaxNodes,
  Jobs,
  Passes,
  Trace,
  End,
  Format,
  Seed,
  Runs,
  Promises,
  NoShrink,
  NoDifferential,
  TimeBudget,
  Corpus,
  Replay,
};

/// One flag: its spelling (a trailing '=' means it takes a value) and how
/// it updates the options. Apply returns false on a malformed value.
struct FlagSpec {
  Flag F;
  const char *Spelling;
  bool (*Apply)(Options &, const std::string &);
};

const FlagSpec FlagTable[] = {
    {Flag::Np, "--np",
     [](Options &O, const std::string &) {
       O.NonPreemptive = true;
       return true;
     }},
    {Flag::NoPromises, "--no-promises",
     [](Options &O, const std::string &) {
       O.NoPromises = true;
       return true;
     }},
    {Flag::Rw, "--rw",
     [](Options &O, const std::string &) {
       O.RwRace = true;
       return true;
     }},
    {Flag::CertCache, "--cert-cache=",
     [](Options &O, const std::string &V) {
       if (V != "on" && V != "off")
         return false;
       O.CertCacheOn = V == "on";
       return true;
     }},
    {Flag::Reduce, "--reduce=",
     [](Options &O, const std::string &V) {
       if (V != "on" && V != "off")
         return false;
       O.ReduceOn = V == "on";
       return true;
     }},
    {Flag::Stats, "--stats",
     [](Options &O, const std::string &) {
       O.Stats = true;
       return true;
     }},
    {Flag::StatsFormat, "--stats-format=",
     [](Options &O, const std::string &V) {
       if (V != "text" && V != "json")
         return false;
       O.StatsFormat = V;
       O.Stats = true; // asking for a format implies asking for the stats
       return true;
     }},
    {Flag::TraceOut, "--trace-out=",
     [](Options &O, const std::string &V) {
       if (V.empty())
         return false;
       O.TraceOut = V;
       return true;
     }},
    {Flag::TraceJsonl, "--trace-jsonl=",
     [](Options &O, const std::string &V) {
       if (V.empty())
         return false;
       O.TraceJsonl = V;
       return true;
     }},
    // The bare spelling must precede "--progress=" in this table: the
    // matcher reports "requires a value" the first time a '='-spelling's
    // stem matches exactly, so the valueless entry has to win first.
    {Flag::Progress, "--progress",
     [](Options &O, const std::string &) {
       O.ProgressSec = 1.0;
       return true;
     }},
    {Flag::Progress, "--progress=",
     [](Options &O, const std::string &V) {
       std::uint64_t N;
       if (!parseU64(V, N) || N == 0 || N > 3600)
         return false;
       O.ProgressSec = static_cast<double>(N);
       return true;
     }},
    {Flag::MaxNodes, "--max-nodes=",
     [](Options &O, const std::string &V) {
       if (!parseU64(V, O.MaxNodes))
         return false;
       O.MaxNodesSet = true;
       return true;
     }},
    {Flag::Jobs, "--jobs=",
     [](Options &O, const std::string &V) {
       std::uint64_t N;
       if (!parseU64(V, N) || N == 0 || N > 1024)
         return false;
       O.Jobs = static_cast<unsigned>(N);
       return true;
     }},
    {Flag::Passes, "--passes=",
     [](Options &O, const std::string &V) {
       O.Passes = V;
       return true;
     }},
    {Flag::Trace, "--trace=",
     [](Options &O, const std::string &V) {
       return parseTrace(V, O.TraceOuts);
     }},
    {Flag::End, "--end=",
     [](Options &O, const std::string &V) {
       if (V != "done" && V != "abort" && V != "partial")
         return false;
       O.End = V;
       return true;
     }},
    {Flag::Format, "--format=",
     [](Options &O, const std::string &V) {
       if (V != "text" && V != "json")
         return false;
       O.Format = V;
       return true;
     }},
    {Flag::Seed, "--seed=",
     [](Options &O, const std::string &V) { return parseU64(V, O.Seed); }},
    {Flag::Runs, "--runs=",
     [](Options &O, const std::string &V) {
       std::uint64_t N;
       if (!parseU64(V, N))
         return false;
       O.Runs = static_cast<unsigned>(N);
       return true;
     }},
    {Flag::Promises, "--promises",
     [](Options &O, const std::string &) {
       O.Promises = true;
       return true;
     }},
    {Flag::NoShrink, "--no-shrink",
     [](Options &O, const std::string &) {
       O.Shrink = false;
       return true;
     }},
    {Flag::NoDifferential, "--no-differential",
     [](Options &O, const std::string &) {
       O.Differential = false;
       return true;
     }},
    {Flag::TimeBudget, "--time-budget=",
     [](Options &O, const std::string &V) {
       std::uint64_t N;
       if (!parseU64(V, N))
         return false;
       O.TimeBudgetSec = static_cast<unsigned>(N);
       return true;
     }},
    {Flag::Corpus, "--corpus=",
     [](Options &O, const std::string &V) {
       O.CorpusDir = V;
       return true;
     }},
    {Flag::Replay, "--replay=",
     [](Options &O, const std::string &V) {
       O.ReplayDir = V;
       return true;
     }},
};

int cmdExplore(const Options &O);
int cmdRace(const Options &O);
int cmdLint(const Options &O);
int cmdOptimize(const Options &O);
int cmdRefine(const Options &O);
int cmdEquiv(const Options &O);
int cmdWitness(const Options &O);
int cmdLitmus(const Options &O);
int cmdFuzz(const Options &O);

/// One subcommand: which flags it accepts (anything else is an error) and
/// how many positional arguments it takes.
struct CommandSpec {
  const char *Name;
  int (*Handler)(const Options &);
  unsigned MinPositional;
  unsigned MaxPositional;
  std::vector<Flag> Flags;
};

/// Telemetry flags every subcommand accepts (DESIGN.md §14): counters,
/// traces and the progress heartbeat are cross-cutting, so they are not
/// listed per command.
const std::vector<Flag> &globalFlags() {
  static const std::vector<Flag> Flags = {
      Flag::Stats, Flag::StatsFormat, Flag::TraceOut, Flag::TraceJsonl,
      Flag::Progress};
  return Flags;
}

const std::vector<CommandSpec> &commandTable() {
  static const std::vector<CommandSpec> Table = {
      {"explore", cmdExplore, 1, 1,
       {Flag::Np, Flag::NoPromises, Flag::MaxNodes, Flag::Jobs,
        Flag::CertCache, Flag::Reduce}},
      {"race", cmdRace, 1, 1,
       {Flag::Np, Flag::Rw, Flag::NoPromises, Flag::MaxNodes, Flag::Jobs,
        Flag::CertCache}},
      {"lint", cmdLint, 1, 1, {Flag::Format}},
      {"optimize", cmdOptimize, 1, 1, {Flag::Passes}},
      {"refine", cmdRefine, 2, 2,
       {Flag::Np, Flag::NoPromises, Flag::MaxNodes, Flag::Jobs,
        Flag::CertCache, Flag::Reduce}},
      {"equiv", cmdEquiv, 1, 1,
       {Flag::NoPromises, Flag::MaxNodes, Flag::Jobs, Flag::CertCache,
        Flag::Reduce}},
      {"witness", cmdWitness, 1, 1,
       {Flag::Np, Flag::NoPromises, Flag::Trace, Flag::End, Flag::MaxNodes,
        Flag::CertCache}},
      {"litmus", cmdLitmus, 0, 1, {}},
      {"fuzz", cmdFuzz, 0, 0,
       {Flag::Seed, Flag::Runs, Flag::Jobs, Flag::Passes, Flag::Promises,
        Flag::NoShrink, Flag::NoDifferential, Flag::TimeBudget, Flag::Corpus,
        Flag::Replay, Flag::MaxNodes, Flag::CertCache, Flag::Reduce}},
  };
  return Table;
}

int usage() {
  // The pass lists are derived from the registry so the usage text can
  // never drift from what createPassByName accepts.
  std::string PassList, UnsafeList;
  for (const std::string &Name : verifiedPassNames())
    PassList += (PassList.empty() ? "" : ",") + Name;
  for (const std::string &Name : unsafePassNames())
    UnsafeList += (UnsafeList.empty() ? "" : ",") + Name;
  std::fprintf(
      stderr,
      "usage: psopt <command> [args]\n"
      "  explore  <file> [--np] [--no-promises] [--max-nodes=N] [--jobs=N]\n"
      "           [--cert-cache=on|off] [--reduce=on|off]\n"
      "  race     <file> [--np] [--rw] [--no-promises] [--max-nodes=N]\n"
      "           [--jobs=N] [--cert-cache=on|off]  (--rw: interleaving only)\n"
      "  lint     <file> [--format=text|json]\n"
      "  optimize <file> --passes=%s\n"
      "           (also linv, and the intentionally unsound %s)\n",
      PassList.c_str(), UnsafeList.c_str());
  std::fprintf(
      stderr,
      "  refine   <target> <source> [--np] [--no-promises] [--jobs=N]\n"
      "           [--cert-cache=on|off] [--reduce=on|off]\n"
      "  equiv    <file> [--no-promises] [--jobs=N] [--cert-cache=on|off]\n"
      "           [--reduce=on|off]\n"
      "  witness  <file> --trace=v1,v2,... [--end=done|abort|partial]\n"
      "           [--np] [--no-promises] [--max-nodes=N]\n"
      "           [--cert-cache=on|off]\n"
      "  litmus   [name]\n"
      "  fuzz     [--seed=N] [--runs=N] [--jobs=N] [--passes=p1,p2,...]\n"
      "           [--promises] [--no-shrink] [--no-differential]\n"
      "           [--time-budget=SEC] [--corpus=DIR] [--replay=DIR]\n"
      "--jobs=N explores with N worker threads (identical BehaviorSet).\n"
      "--cert-cache memoizes certification verdicts across machine steps\n"
      "(default on; behavior-identical to off, see DESIGN.md section 8).\n"
      "--reduce fuses commuting thread-local schedules in the explorer\n"
      "(default on; behavior-identical to off, see DESIGN.md section 10).\n"
      "lint reports static race candidates, recognized release/acquire\n"
      "sync chains, mixed-mode atomics, dominated fences and never-read\n"
      "atomics; exit 1 when race candidates exist. --format=json is the\n"
      "machine-readable form.\n"
      "Telemetry flags, accepted by every command (DESIGN.md section 14):\n"
      "  --stats                 print counters and phase timers at exit\n"
      "  --stats-format=text|json  machine-readable stats (implies --stats)\n"
      "  --trace-out=FILE        write a Chrome trace-event JSON file\n"
      "                          (load in Perfetto / chrome://tracing)\n"
      "  --trace-jsonl=FILE      write the trace as compact JSONL\n"
      "  --progress[=SEC]        heartbeat on stderr every SEC seconds\n"
      "                          (default 1): nodes/s, frontier, visited,\n"
      "                          cache hit-rate\n"
      "fuzz generates seeded random programs, runs a (random) verified-pass\n"
      "pipeline, and checks target-refines-source against the exploration\n"
      "oracle, cross-validating --jobs and the cert cache; failures are\n"
      "shrunk and written to --corpus as replayable reproducers. Every\n"
      "report line carries the per-run seed and the pipeline; rerun one\n"
      "with --seed=<logged> --runs=1. --replay=DIR re-checks stored\n"
      "reproducers (honoring --jobs and --cert-cache) instead of fuzzing.\n");
  return 2;
}

bool parseArgs(int argc, char **argv, const CommandSpec &Spec, Options &O) {
  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--", 0) != 0) {
      O.Positional.push_back(A);
      continue;
    }
    const FlagSpec *Match = nullptr;
    std::string Value;
    for (const FlagSpec &FS : FlagTable) {
      std::string Sp = FS.Spelling;
      if (Sp.back() == '=') {
        if (A.rfind(Sp, 0) == 0) {
          Match = &FS;
          Value = A.substr(Sp.size());
          break;
        }
        // `--flag` spelled without a value still names this flag.
        if (A == Sp.substr(0, Sp.size() - 1)) {
          std::fprintf(stderr, "flag %s requires a value\n", A.c_str());
          return false;
        }
      } else if (A == Sp) {
        Match = &FS;
        break;
      }
    }
    if (!Match) {
      std::fprintf(stderr, "unknown flag: %s\n", A.c_str());
      return false;
    }
    bool Accepted = false;
    for (Flag F : Spec.Flags)
      Accepted |= F == Match->F;
    for (Flag F : globalFlags())
      Accepted |= F == Match->F;
    if (!Accepted) {
      std::fprintf(stderr, "flag %s is not accepted by `psopt %s`\n",
                   A.c_str(), Spec.Name);
      return false;
    }
    if (!Match->Apply(O, Value)) {
      std::fprintf(stderr, "invalid value for %s: %s\n", Match->Spelling,
                   A.c_str());
      return false;
    }
  }
  if (O.Positional.size() < Spec.MinPositional ||
      O.Positional.size() > Spec.MaxPositional) {
    std::string Count = std::to_string(Spec.MinPositional);
    if (Spec.MaxPositional != Spec.MinPositional)
      Count.append("-").append(std::to_string(Spec.MaxPositional));
    std::fprintf(stderr,
                 "`psopt %s` takes %s positional argument%s, got %zu\n",
                 Spec.Name, Count.c_str(),
                 Spec.MaxPositional == 1 ? "" : "s", O.Positional.size());
    return false;
  }
  return true;
}

bool loadProgram(const std::string &Path, Program &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot open %s\n", Path.c_str());
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  ParseResult R = parseProgram(SS.str());
  if (!R.ok()) {
    std::fprintf(stderr, "%s:%u: parse error: %s\n", Path.c_str(),
                 R.ErrorLine, R.Error.c_str());
    return false;
  }
  for (const ValidationError &E : validateProgram(*R.Prog))
    std::fprintf(stderr, "%s: warning: %s\n", Path.c_str(),
                 E.Message.c_str());
  Out = std::move(*R.Prog);
  return true;
}

StepConfig stepConfig(const Options &O) {
  StepConfig SC;
  SC.EnablePromises = !O.NoPromises;
  SC.EnableCertCache = O.CertCacheOn;
  return SC;
}

ExploreConfig exploreConfig(const Options &O) {
  ExploreConfig EC;
  EC.MaxNodes = O.MaxNodes;
  EC.Jobs = O.Jobs;
  EC.Reduce = O.ReduceOn;
  return EC;
}

BehaviorSet exploreWith(const Options &O, const Program &P) {
  ExploreConfig EC = exploreConfig(O);
  return O.NonPreemptive ? exploreNonPreemptive(P, stepConfig(O), EC)
                         : exploreInterleaving(P, stepConfig(O), EC);
}

int cmdExplore(const Options &O) {
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  Timer Wall;
  BehaviorSet B = exploreWith(O, P);
  double Sec = Wall.elapsedSec();
  std::printf("%s", B.str().c_str());
  std::printf("nodes=%llu unique_states=%llu transitions=%llu\n",
              static_cast<unsigned long long>(B.NodesVisited),
              static_cast<unsigned long long>(B.UniqueStates),
              static_cast<unsigned long long>(B.Transitions));
  std::printf("wall=%.3fs (%.1fk nodes/s)\n", Sec,
              Sec > 0 ? static_cast<double>(B.NodesVisited) / Sec / 1000.0
                      : 0.0);
  return 0;
}

int cmdRace(const Options &O) {
  if (O.RwRace && O.NonPreemptive) {
    std::fprintf(stderr, "race: --rw has no non-preemptive checker; "
                         "drop --np\n");
    return 2;
  }
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  RaceCheckConfig RC;
  RC.MaxNodes = O.MaxNodes;
  RC.Jobs = O.Jobs;
  RaceCheckResult R;
  if (O.RwRace)
    R = checkRWRaceFreedom(P, stepConfig(O), RC);
  else
    R = O.NonPreemptive ? checkWWRaceFreedomNP(P, stepConfig(O), RC)
                        : checkWWRaceFreedom(P, stepConfig(O), RC);
  std::printf("%s-race-%s%s (states checked: %llu)\n",
              O.RwRace ? "rw" : "ww", R.RaceFree ? "free" : "FOUND",
              R.Exact ? "" : " [bounded]",
              static_cast<unsigned long long>(R.StatesChecked));
  if (R.Witness)
    std::printf("witness: %s\n", R.Witness->Description.c_str());
  return R.RaceFree ? 0 : 1;
}

int cmdLint(const Options &O) {
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  LintReport R(P);
  std::printf("%s", (O.Format == "json" ? R.renderJson() : R.renderText())
                        .c_str());
  return R.hasRaceCandidates() ? 1 : 0;
}

int cmdOptimize(const Options &O) {
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  if (O.Passes.empty()) {
    std::fprintf(stderr, "optimize requires --passes=...\n");
    return 2;
  }
  std::vector<std::string> Names;
  std::stringstream SS(O.Passes);
  for (std::string Name; std::getline(SS, Name, ',');)
    Names.push_back(Name);
  PipelineResult R = runPassPipeline(Names, P);
  if (R.UnknownPass) {
    std::fprintf(stderr, "unknown pass: %s\n", R.UnknownPass->c_str());
    return 2;
  }
  std::printf("%s", printProgram(R.Prog).c_str());
  return 0;
}

int cmdRefine(const Options &O) {
  Program Tgt, Src;
  if (O.Positional.size() < 2 || !loadProgram(O.Positional[0], Tgt) ||
      !loadProgram(O.Positional[1], Src))
    return 2;
  BehaviorSet TB = exploreWith(O, Tgt);
  BehaviorSet SB = exploreWith(O, Src);
  RefinementResult R = checkRefinement(TB, SB);
  std::printf("refinement %s%s\n", R.Holds ? "HOLDS" : "FAILS",
              R.Exact ? " (exhaustive)" : " (bounded)");
  if (!R.Holds)
    std::printf("counterexample: %s\n", R.CounterExample.c_str());
  return R.Holds ? 0 : 1;
}

int cmdEquiv(const Options &O) {
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  ExploreConfig EC = exploreConfig(O);
  BehaviorSet Inter = exploreInterleaving(P, stepConfig(O), EC);
  BehaviorSet NP = exploreNonPreemptive(P, stepConfig(O), EC);
  RefinementResult R = checkEquivalence(NP, Inter);
  std::printf("interleaving: %llu nodes, non-preemptive: %llu nodes\n",
              static_cast<unsigned long long>(Inter.NodesVisited),
              static_cast<unsigned long long>(NP.NodesVisited));
  std::printf("equivalence (Thm 4.1) %s%s\n", R.Holds ? "HOLDS" : "FAILS",
              R.Exact ? " (exhaustive)" : " (bounded)");
  if (!R.Holds)
    std::printf("counterexample: %s\n", R.CounterExample.c_str());
  return R.Holds ? 0 : 1;
}

int cmdWitness(const Options &O) {
  Program P;
  if (O.Positional.empty() || !loadProgram(O.Positional[0], P))
    return 2;
  Behavior::End End = Behavior::End::Done;
  if (O.End == "abort")
    End = Behavior::End::Abort;
  else if (O.End == "partial")
    End = Behavior::End::Partial;
  ExploreConfig EC;
  EC.MaxNodes = O.MaxNodes;
  StepConfig SC = stepConfig(O);
  WitnessResult W;
  if (O.NonPreemptive) {
    NonPreemptiveMachine M(P, SC);
    W = findWitness(M, O.TraceOuts, End, EC);
  } else {
    InterleavingMachine M(P, SC);
    W = findWitness(M, O.TraceOuts, End, EC);
  }
  if (W.Bounded) {
    std::printf("no execution found within --max-nodes=%llu (search "
                "bounded; raise --max-nodes)\n",
                static_cast<unsigned long long>(O.MaxNodes));
    return 1;
  }
  if (!W) {
    std::printf("no execution with that behavior\n");
    return 1;
  }
  std::printf("%s", W->str().c_str());
  return 0;
}

int cmdLitmus(const Options &O) {
  if (O.Positional.empty()) {
    for (const LitmusTest &T : allLitmusTests())
      std::printf("%-16s %s\n", T.Name.c_str(), T.Description.c_str());
    return 0;
  }
  for (const LitmusTest &T : allLitmusTests()) {
    if (T.Name != O.Positional[0])
      continue;
    std::printf("%s\n%s\n", T.Description.c_str(),
                printProgram(T.Prog).c_str());
    BehaviorSet B = exploreInterleaving(T.Prog, T.SuggestedConfig());
    std::printf("%s", B.str().c_str());
    bool Ok = true;
    for (const auto &Exp : T.ExpectedOutcomes)
      Ok &= B.hasDoneMultiset(Exp);
    for (const auto &Forb : T.ForbiddenOutcomes)
      Ok &= !B.hasDoneMultiset(Forb);
    std::printf("expectations: %s\n", Ok ? "MET" : "VIOLATED");
    return Ok ? 0 : 1;
  }
  std::fprintf(stderr, "unknown litmus test: %s\n", O.Positional[0].c_str());
  return 2;
}

std::string joinNames(const std::vector<std::string> &Names) {
  std::string Out;
  for (std::size_t I = 0; I < Names.size(); ++I) {
    if (I)
      Out += ",";
    Out += Names[I];
  }
  return Out;
}

int cmdFuzzReplay(const Options &O) {
  std::vector<std::string> Files = listCorpusFiles(O.ReplayDir);
  if (Files.empty()) {
    std::fprintf(stderr, "no .rtl reproducers in %s\n", O.ReplayDir.c_str());
    return 2;
  }
  ExploreConfig EC = exploreConfig(O);
  unsigned Bad = 0;
  for (const std::string &File : Files) {
    std::string Err;
    std::optional<CorpusEntry> E = loadCorpusEntry(File, Err);
    if (!E) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      ++Bad;
      continue;
    }
    ReplayVerdict V = replayCorpusEntry(*E, EC, O.CertCacheOn);
    std::printf("%-28s seed=%llu pipeline=%s expect=%s: %s — %s\n",
                E->Name.c_str(), static_cast<unsigned long long>(E->Seed),
                joinNames(E->Pipeline).c_str(),
                E->ExpectFail ? "fail" : "hold", V.Match ? "OK" : "MISMATCH",
                V.Detail.c_str());
    if (!V.Match)
      ++Bad;
  }
  std::printf("replayed %zu reproducers (jobs=%u cert-cache=%s reduce=%s): "
              "%u mismatches\n",
              Files.size(), O.Jobs, O.CertCacheOn ? "on" : "off",
              O.ReduceOn ? "on" : "off", Bad);
  return Bad ? 1 : 0;
}

int cmdFuzz(const Options &O) {
  if (!O.ReplayDir.empty())
    return cmdFuzzReplay(O);
  FuzzConfig C;
  C.Seed = O.Seed;
  C.Runs = O.Runs;
  C.Jobs = O.Jobs;
  C.Differential = O.Differential;
  C.EnablePromises = O.Promises;
  C.Shrink = O.Shrink;
  C.TimeBudgetSec = O.TimeBudgetSec;
  if (O.MaxNodesSet) // otherwise keep the fuzzer's skip-friendly bound
    C.MaxNodes = O.MaxNodes;
  C.CorpusDir = O.CorpusDir;
  if (!O.Passes.empty()) {
    std::stringstream SS(O.Passes);
    std::string Name;
    while (std::getline(SS, Name, ','))
      if (!Name.empty())
        C.Pipeline.push_back(Name);
  }
  FuzzReport R = runFuzzer(C);
  std::printf("%s", R.str().c_str());
  return R.ok() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  const CommandSpec *Spec = nullptr;
  for (const CommandSpec &S : commandTable())
    if (Cmd == S.Name)
      Spec = &S;
  if (!Spec)
    return usage();
  Options O;
  if (!parseArgs(argc, argv, *Spec, O))
    return usage();
  if (!O.TraceOut.empty() || !O.TraceJsonl.empty())
    traceStart();
  int Ret;
  {
    // The heartbeat lives in this scope so its final sample (and the
    // counter events it emits when tracing) land before the export.
    std::optional<ProgressMeter> Meter;
    if (O.ProgressSec > 0)
      Meter.emplace(O.ProgressSec);
    Ret = Spec->Handler(O);
  }
  std::string Err;
  if (!O.TraceOut.empty() && !traceWriteChrome(O.TraceOut, Err))
    std::fprintf(stderr, "cannot write %s: %s\n", O.TraceOut.c_str(),
                 Err.c_str());
  if (!O.TraceJsonl.empty() && !traceWriteJsonl(O.TraceJsonl, Err))
    std::fprintf(stderr, "cannot write %s: %s\n", O.TraceJsonl.c_str(),
                 Err.c_str());
  if (O.Stats) {
    if (O.StatsFormat == "json")
      std::printf("{\"counters\": %s, \"timers\": %s}\n",
                  formatStatisticsJson().c_str(),
                  formatPhaseTimersJson().c_str());
    else
      std::printf("%s%s", formatStatistics().c_str(),
                  formatPhaseTimers().c_str());
  }
  return Ret;
}
