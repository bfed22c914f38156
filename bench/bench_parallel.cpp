//===- bench/bench_parallel.cpp - Parallel explorer speedups -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// Speedup of the exploration worker pool over one worker, at 1/2/4/8
// jobs, on three workloads with very different shapes:
//
//  * spinlock        — deep CAS retry graph, few outputs (lock-shaped);
//  * LB w/ promises  — certification-heavy (the E1 ~11× promise overhead
//                      is per-successor work the workers parallelize);
//  * wide-4t         — a generated 4-thread program whose frontier fans
//                      out fast (best case for work stealing).
//
// Jobs=1 runs the search on the calling thread, so the `/1` rows are the
// baseline the speedup is measured against. Each run asserts its
// BehaviorSet equals the jobs=1 one.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

using namespace psopt;

namespace {

/// The registry's spinlock scaled to four contending threads: same shape,
/// ~150× the state graph (≈11k nodes) — enough work to amortize the pool.
Program contendedSpinlock() {
  return parseProgramOrDie(R"(var l atomic; var c;
    func p0 { block 0: r := cas(l, 0, 1, acq, rlx); be r == 1, 1, 0;
              block 1: rc := c.na; c.na := rc + 1; print(rc + 1);
                       l.rel := 0; ret; }
    func p1 { block 0: r := cas(l, 0, 1, acq, rlx); be r == 1, 1, 0;
              block 1: rc := c.na; c.na := rc + 1; print(rc + 1);
                       l.rel := 0; ret; }
    func p2 { block 0: r := cas(l, 0, 1, acq, rlx); be r == 1, 1, 0;
              block 1: rc := c.na; c.na := rc + 1; print(rc + 1);
                       l.rel := 0; ret; }
    func p3 { block 0: r := cas(l, 0, 1, acq, rlx); be r == 1, 1, 0;
              block 1: rc := c.na; c.na := rc + 1; print(rc + 1);
                       l.rel := 0; ret; }
    thread p0; thread p1; thread p2; thread p3;)");
}

Program wideProgram() {
  RandomProgramConfig C;
  C.Seed = 42;
  C.NumThreads = 4;
  C.InstrsPerThread = 3;
  C.NumNaVars = 2;
  C.NumAtomicVars = 2;
  C.AllowCas = false;
  C.AllowBranch = false;
  C.PrintsPerThread = 1;
  return generateRandomProgram(C);
}

void runExplore(benchmark::State &State, const Program &P,
                const StepConfig &SC) {
  BehaviorSet Base = exploreInterleaving(P, SC);

  ExploreConfig C;
  C.Jobs = static_cast<unsigned>(State.range(0));
  BehaviorSet B;
  for (auto _ : State) {
    B = exploreInterleaving(P, SC, C);
    benchmark::DoNotOptimize(B.NodesVisited);
  }
  if (B != Base) {
    State.SkipWithError("BehaviorSet diverged from jobs=1");
    return;
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(B.NodesVisited));
  State.counters["nodes"] = static_cast<double>(B.NodesVisited);
  State.counters["jobs"] = static_cast<double>(C.Jobs);
}

void BM_ParallelSpinlock(benchmark::State &State) {
  const LitmusTest &T = litmus("spinlock");
  runExplore(State, T.Prog, T.SuggestedConfig());
}
BENCHMARK(BM_ParallelSpinlock)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelSpinlockContended(benchmark::State &State) {
  static const Program P = contendedSpinlock();
  StepConfig SC;
  SC.EnablePromises = false;
  runExplore(State, P, SC);
}
BENCHMARK(BM_ParallelSpinlockContended)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelLbPromises(benchmark::State &State) {
  const LitmusTest &T = litmus("lb");
  StepConfig SC = T.SuggestedConfig();
  SC.EnablePromises = true; // promise machinery on: certification-heavy
  runExplore(State, T.Prog, SC);
}
BENCHMARK(BM_ParallelLbPromises)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelWideThreads(benchmark::State &State) {
  static const Program P = wideProgram();
  StepConfig SC;
  SC.EnablePromises = false;
  runExplore(State, P, SC);
}
BENCHMARK(BM_ParallelWideThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
