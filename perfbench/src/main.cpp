//===- perfbench/src/main.cpp - The psopt benchmark harness ---------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and prints its metrics:
//
//   psopt_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --corpus DIR [--trace-out FILE]
//                   [--revision REV --dirty 0|1]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs every item twice, traced (layer spans, a timed machine) and then
// untraced, and prints the per-layer metrics and the tracing overhead. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any answer was wrong. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Timing.h"
#include "Workload.h"

#include "litmus/ScaleWorkload.h"
#include "support/Trace.h"

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace psopt;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 9;

/// Items a jobs=1 run re-runs after the timed body when the body did not
/// repeat them, to check that their counts repeat exactly.
constexpr std::size_t RecheckItems = 16;

struct Options {
  std::string WorkloadName;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  std::string CorpusDir = "tests/corpus";
  std::string TraceOut;
  std::string Revision = "unknown";
  std::string Dirty = "unknown";
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload")
      O.WorkloadName = V;
    else if (Key == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Key == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (Key == "--trace")
      O.Trace = static_cast<int>(std::strtol(V.c_str(), &End, 10));
    else if (Key == "--corpus")
      O.CorpusDir = V;
    else if (Key == "--trace-out")
      O.TraceOut = V;
    else if (Key == "--revision")
      O.Revision = V;
    else if (Key == "--dirty")
      O.Dirty = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !O.WorkloadName.empty() && O.Seconds > 0 &&
         (O.Trace == 0 || O.Trace == 1);
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string cpuModel() {
  unsigned Regs[12] = {};
  for (unsigned I = 0; I < 3; ++I)
    if (!__get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                     &Regs[4 * I + 2], &Regs[4 * I + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S = Brand;
  S.erase(0, S.find_first_not_of(' '));
  return S;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N == 0 ? 0 : N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double Value = 0;
  double Percentile = 100;
  std::size_t Samples = 0;
};

Tail tailOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  // With ten or fewer samples no percentile qualifies; report the max.
  std::size_t K = V.size() > 10 ? V.size() - 11 : V.size() - 1;
  T.Value = V[K];
  T.Percentile = 100.0 * static_cast<double>(K + 1) / V.size();
  return T;
}

/// A small fixed program explored before timing, so code pages, the
/// allocator and the worker pool are warm.
void warmUp(const ExploreConfig &EC) {
  ScaleWorkloadConfig C;
  C.NumThreads = 3;
  C.FillerPerThread = 20;
  C.Skeletons = 1;
  StepConfig SC;
  SC.EnablePromises = false;
  (void)exploreInterleaving(generateScaleWorkload(C), SC, EC);
}

/// Outcomes of a sequence of items plus the checks across them.
struct Tally {
  std::vector<double> Times;
  std::size_t Undecided = 0;
  std::size_t Wrong = 0;
  std::size_t CountMismatches = 0;
  std::size_t BehaviorMismatches = 0;
  double WallS = 0, CpuS = 0;
};

/// Remembers each input's first counts (and, for the parallel workload,
/// its first BehaviorSet) so repeats can be compared with it.
struct Seen {
  std::map<std::size_t, ItemCounts> Counts;
  std::map<std::size_t, BehaviorSet> Behaviors;
};

void record(Tally &T, Seen &Mem, std::size_t Index, const Item &It,
            ItemOutcome &&O, bool ExactCounts, bool KeepBehaviors) {
  T.Times.push_back(O.WallS);
  T.Undecided += O.Undecided;
  if (O.Wrong) {
    ++T.Wrong;
    std::printf("wrong_verdict item=%s: %s\n", It.Name.c_str(),
                O.Detail.c_str());
  }
  if (ExactCounts) {
    auto [It0, New] = Mem.Counts.emplace(Index, O.Counts);
    if (!New && It0->second != O.Counts) {
      ++T.CountMismatches;
      for (std::size_t C = 0; C < NumItemCounts; ++C)
        if (It0->second[C] != O.Counts[C])
          std::printf("count_mismatch item=%s %s: %llu then %llu\n",
                      It.Name.c_str(), ItemCountNames[C],
                      static_cast<unsigned long long>(It0->second[C]),
                      static_cast<unsigned long long>(O.Counts[C]));
    }
  }
  if (KeepBehaviors && O.Behaviors)
    Mem.Behaviors.emplace(Index, std::move(*O.Behaviors));
}

/// The untraced timed body: runs items in input order, cycling, until
/// \p Seconds have passed. Returns the number of items run.
std::size_t runPass(const Inputs &In, double Seconds, bool ExactCounts,
                    bool KeepBehaviors, Tally &P, Seen &Mem) {
  const double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();
  std::size_t Ran = 0;
  while (since(T0) < Seconds) {
    std::size_t Index = Ran % In.Items.size();
    const Item &It = In.Items[Index];
    record(P, Mem, Index, It, runItem(It, In.Explore, nullptr), ExactCounts,
           KeepBehaviors);
    ++Ran;
  }
  P.WallS = since(T0);
  P.CpuS = processCpuSeconds() - Cpu0;
  return Ran;
}

/// The traced run: each item runs traced, into \p L, then again untraced
/// into \p Replay, so machine-speed drift cancels out of the overhead
/// ratio and every jobs=1 item is repeated once. Returns the items run.
std::size_t runTracedPass(const Inputs &In, double Seconds, Ledger &L,
                          bool ExactCounts, bool KeepBehaviors, Tally &Traced,
                          Tally &Replay, Seen &Mem) {
  Clock::time_point T0 = Clock::now();
  std::size_t Ran = 0;
  while (since(T0) < Seconds) {
    std::size_t Index = Ran % In.Items.size();
    const Item &It = In.Items[Index];
    traceStart();
    ItemOutcome O = runItem(It, In.Explore, &L);
    traceStop();
    record(Traced, Mem, Index, It, std::move(O), ExactCounts, KeepBehaviors);
    record(Replay, Mem, Index, It, runItem(It, In.Explore, nullptr),
           ExactCounts, false);
    ++Ran;
  }
  return Ran;
}

/// After the timed body: re-runs inputs the body ran only once (jobs=1)
/// and compares their counts, and checks every parallel BehaviorSet
/// against a jobs=1 exploration of the same program.
void verifyAfter(const Inputs &In, std::size_t Ran, unsigned Jobs, Tally &P,
                 Seen &Mem) {
  if (Jobs == 1) {
    Tally Scratch;
    const std::size_t Recheck = std::min({Ran, RecheckItems, In.Items.size()});
    for (std::size_t I = 0; I < Recheck; ++I)
      if (Ran <= I + In.Items.size()) // ran once
        record(Scratch, Mem, I, In.Items[I],
               runItem(In.Items[I], In.Explore, nullptr), true, false);
    P.CountMismatches += Scratch.CountMismatches;
    P.Wrong += Scratch.Wrong;
    return;
  }
  ExploreConfig Seq = In.Explore;
  Seq.Jobs = 1;
  for (const auto &[Index, Par] : Mem.Behaviors) {
    const Item &It = In.Items[Index];
    StepConfig SC;
    SC.EnablePromises = It.Promises;
    if (!exploreInterleaving(It.Source, SC, Seq).sameBehaviors(Par)) {
      ++P.BehaviorMismatches;
      std::printf("parallel_mismatch item=%s: jobs=%u differs from jobs=1\n",
                  It.Name.c_str(), Jobs);
    }
  }
}

void printMetric(const Metric &M) {
  std::printf("metric %-26s %.9g %s%s%s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(), M.Note.empty() ? "" : "  # ",
              M.Note.c_str());
}

void printResult(bool Correct, std::size_t Attempted, std::size_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string S = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options Opt;
  if (!parseOptions(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: psopt_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--corpus DIR] [--trace-out FILE] "
                 "[--revision REV --dirty 0|1]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: refusing to time an unoptimized build\n");
  return 2;
#endif
  std::optional<Workload> W = parseWorkload(Opt.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Opt.WorkloadName.c_str());
    return 2;
  }
  const unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  // The parallel workload always runs the pool, with at most 4 workers.
  const unsigned Jobs =
      *W == Workload::ScaleParallel ? std::clamp(NProc, 2u, 4u) : 1;

  std::printf("context revision=%s dirty=%s build_type=%s compiler=\"%s\" "
              "cpu=\"%s\" nproc=%u workload=%s jobs=%u seed=%llu "
              "seconds=%g trace=%d\n",
              Opt.Revision.c_str(), Opt.Dirty.c_str(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, cpuModel().c_str(), NProc,
              workloadName(*W), Jobs,
              static_cast<unsigned long long>(Opt.Seed), Opt.Seconds,
              Opt.Trace);

  // Set-up: input generation, parsing and warm-up, several times.
  Inputs In;
  std::vector<double> SetupTimes, GenTimes, ParseTimes;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    std::string Err;
    if (!buildInputs(*W, Opt.Seed, Jobs, Opt.CorpusDir, In, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    warmUp(In.Explore);
    SetupTimes.push_back(since(T0));
    GenTimes.push_back(In.GenerateS);
    ParseTimes.push_back(In.ParseS);
  }
  std::printf("inputs %zu items\n", In.Items.size());

  const bool ExactCounts = Jobs == 1;
  const bool KeepBehaviors = *W == Workload::ScaleParallel;
  Tally Body;
  Seen Mem;
  std::vector<Metric> Ms;

  if (Opt.Trace == 0) {
    std::size_t Ran =
        runPass(In, Opt.Seconds, ExactCounts, KeepBehaviors, Body, Mem);
    verifyAfter(In, Ran, Jobs, Body, Mem);
    const double N = static_cast<double>(Ran);
    Tail T = tailOf(Body.Times);
    char TailNote[96];
    std::snprintf(TailNote, sizeof(TailNote), "p%.1f of %zu items",
                  T.Percentile, T.Samples);
    Ms = {
        {"setup_s", median(SetupTimes), "s",
         "median of " + std::to_string(SetupReps) + " set-ups"},
        {"items_per_s", N / Body.WallS, "1/s",
         std::to_string(Ran) + " items in " + std::to_string(Body.WallS) +
             " s"},
        {"item_s_p50", median(Body.Times), "s", ""},
        {"item_s_tail", T.Value, "s", TailNote},
        {"cpu_s", Body.CpuS / N, "s", "process CPU s per item"},
        {"peak_rss_mb", peakRssMb(), "MB", ""},
    };
  } else {
    Ledger L;
    Tally Replay;
    std::size_t Ran = runTracedPass(In, Opt.Seconds, L, ExactCounts,
                                    KeepBehaviors, Body, Replay, Mem);
    Body.CountMismatches += Replay.CountMismatches;
    Body.Wrong += Replay.Wrong;
    if (Jobs > 1) // at jobs=1 the replays already repeated every item
      verifyAfter(In, Ran, Jobs, Body, Mem);

    Ms = layerMetrics(L, Jobs);
    Ms.push_back({"lang.parse_s", median(ParseTimes), "s", "per set-up"});
    Ms.push_back(
        {"litmus.generate_s", median(GenTimes), "s", "per set-up"});
    auto Sum = [](const std::vector<double> &V) {
      return std::accumulate(V.begin(), V.end(), 0.0);
    };
    Ms.push_back({"trace.overhead_ratio", Sum(Body.Times) / Sum(Replay.Times),
                  "ratio",
                  "traced wall / untraced wall over the same " +
                      std::to_string(Ran) + " items"});
    Ms.push_back({"undecided_ratio",
                  static_cast<double>(Body.Undecided) /
                      static_cast<double>(Ran),
                  "ratio",
                  "base " + std::to_string(Ran) + " items attempted"});
    if (!Opt.TraceOut.empty()) {
      std::string Err;
      if (traceWriteChrome(Opt.TraceOut, Err))
        std::printf("trace written to %s\n", Opt.TraceOut.c_str());
      else
        std::fprintf(stderr, "warning: %s\n", Err.c_str());
    }
  }

  const std::size_t Attempted = Body.Times.size();
  for (const Metric &M : Ms)
    printMetric(M);
  if (Opt.Trace == 0) // the traced run reports it as a metric
    std::printf("undecided_ratio %.6f  # %zu of %zu items attempted\n",
                static_cast<double>(Body.Undecided) / Attempted,
                Body.Undecided, Attempted);
  std::printf("wrong_verdicts %zu\n", Body.Wrong);
  std::printf("count_mismatches %zu%s\n", Body.CountMismatches,
              ExactCounts ? "" : "  # not compared at jobs>1");
  std::printf("parallel_mismatches %zu\n", Body.BehaviorMismatches);

  const std::size_t Failed =
      Body.Wrong + Body.CountMismatches + Body.BehaviorMismatches;
  printResult(Failed == 0, Attempted, Failed, Ms);
  return Failed == 0 ? 0 : 1;
}
