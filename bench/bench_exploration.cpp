//===- bench/bench_exploration.cpp - E1: explorer microbenchmarks -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// Experiment E1 plumbing: raw costs of the executable semantics —
// per-node exploration throughput on the classic litmus tests, thread-step
// enumeration, and timestamp canonicalization (the operation that makes
// exhaustive exploration finite, DESIGN.md §5).
//
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "explore/Explorer.h"
#include "litmus/Litmus.h"

#include <benchmark/benchmark.h>

using namespace psopt;

static void BM_ExploreSB(benchmark::State &State) {
  const LitmusTest &T = litmus("sb");
  StepConfig SC = T.SuggestedConfig();
  BehaviorSet B;
  for (auto _ : State) {
    B = exploreInterleaving(T.Prog, SC);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(B.NodesVisited));
}
BENCHMARK(BM_ExploreSB);

static void BM_ExploreSpinlock(benchmark::State &State) {
  const LitmusTest &T = litmus("spinlock");
  StepConfig SC = T.SuggestedConfig();
  BehaviorSet B;
  for (auto _ : State) {
    B = exploreInterleaving(T.Prog, SC);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(B.NodesVisited));
}
BENCHMARK(BM_ExploreSpinlock);

static void BM_ThreadStepEnumeration(benchmark::State &State) {
  const LitmusTest &T = litmus("sb");
  InterleavingMachine M(T.Prog, T.SuggestedConfig());
  MachineState S = *M.initial();
  std::vector<MachineSuccessor> Succs;
  for (auto _ : State) {
    M.successors(S, Succs);
    benchmark::DoNotOptimize(Succs.size());
  }
  State.counters["successors"] = static_cast<double>(Succs.size());
}
BENCHMARK(BM_ThreadStepEnumeration);

static void BM_Canonicalize(benchmark::State &State) {
  const unsigned N = static_cast<unsigned>(State.range(0));
  const LitmusTest &T = litmus("sb");
  InterleavingMachine M(T.Prog, T.SuggestedConfig());
  MachineState S = *M.initial();
  VarId X("bench_canon_x");
  for (unsigned I = 0; I < N; ++I)
    S.Mem.insert(Message::concrete(X, static_cast<Val>(I),
                                   Time(3 * I + 1, 2), Time(3 * I + 2, 2),
                                   View{}));
  for (auto _ : State) {
    MachineState Copy = S;
    canonicalizeState(Copy);
    benchmark::DoNotOptimize(Copy.hash());
  }
  State.counters["messages"] = N;
}
BENCHMARK(BM_Canonicalize)->Arg(4)->Arg(16)->Arg(64);

// A whole-state hash computed from the content: every thread's local state
// and views, and every message of the memory. (State values keep no hash
// memo, so each iteration does the full walk.)
static void BM_StateHash(benchmark::State &State) {
  const LitmusTest &T = litmus("spinlock");
  InterleavingMachine M(T.Prog, T.SuggestedConfig());
  MachineState S = *M.initial();
  for (auto _ : State)
    benchmark::DoNotOptimize(S.hash());
}
BENCHMARK(BM_StateHash);

BENCHMARK_MAIN();
