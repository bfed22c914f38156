//===- bench/bench_scale.cpp - Schedule-reduction scaling ----------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// What equivalence-class schedule reduction buys on programs far beyond
// litmus scale: deterministic 3-6-thread workloads (litmus/ScaleWorkload.h,
// ~200-2000 instructions of thread-local filler around MP/SB/LB conflict
// skeletons), explored with --reduce on vs off at 1/2/4/8 jobs.
//
// Per-run counters:
//   nodes    — ExploreNodes expanded (items/sec is nodes/sec);
//   pruned   — schedules pruned: sibling threads skipped at ample nodes;
//   fused    — thread steps collapsed into fused chains;
//   capped   — 1 when the unreduced run tripped MaxNodes (its `nodes` is
//              then a lower bound, so the reduction factor is at least
//              nodes_off / nodes_on).
//
// The unreduced runs are capped at a node budget: the whole point of the
// workload is that exhaustive unreduced interleaving is hopeless at this
// scale. Reduced runs explore the complete graph and assert Exhausted.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Reduction.h"
#include "litmus/ScaleWorkload.h"
#include "support/Statistic.h"

#include <benchmark/benchmark.h>

using namespace psopt;

namespace {

/// Node budget for unreduced runs (reduced runs use the default 2M and
/// must finish). Big enough to dominate the reduced node counts by far
/// more than the 5x acceptance bar, small enough to keep the bench quick.
constexpr std::uint64_t UnreducedCap = 150'000;

ScaleWorkloadConfig smallConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 7;
  C.NumThreads = 3;
  C.FillerPerThread = 70;   // ~220 instructions
  C.Skeletons = 2;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

ScaleWorkloadConfig midConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 11;
  C.NumThreads = 4;
  C.FillerPerThread = 130;  // ~540 instructions
  C.Skeletons = 3;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

ScaleWorkloadConfig wideConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 13;
  C.NumThreads = 6;
  C.FillerPerThread = 320;  // ~1950 instructions
  C.Skeletons = 3;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

/// Mostly private *stores* instead of read-only filler: memory-mutating
/// steps only the analysis-guided exclusive-write fusion can collapse.
ScaleWorkloadConfig privateStoreConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 19;
  C.NumThreads = 3;
  C.FillerPerThread = 20;
  C.PrivateStoresPerThread = 50; // ~220 instructions
  C.Skeletons = 2;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

void runScale(benchmark::State &State, const ScaleWorkloadConfig &WC,
              bool Reduce) {
  Program P = generateScaleWorkload(WC);

  StepConfig SC;
  SC.EnablePromises = false; // certification would dwarf the scheduling cost
  ExploreConfig EC;
  EC.Reduce = Reduce;
  EC.Jobs = static_cast<unsigned>(State.range(0));
  if (!Reduce)
    EC.MaxNodes = UnreducedCap;

  BehaviorSet B;
  std::uint64_t Pruned = 0, Fused = 0;
  for (auto _ : State) {
    std::uint64_t Skips0 = detail::numReductionSleepSkips().value();
    std::uint64_t Fused0 = detail::numReductionFusedSteps().value();
    B = exploreInterleaving(P, SC, EC);
    benchmark::DoNotOptimize(B.NodesVisited);
    Pruned = detail::numReductionSleepSkips().value() - Skips0;
    Fused = detail::numReductionFusedSteps().value() - Fused0;
  }
  if (Reduce && !B.Exhausted) {
    State.SkipWithError("reduced exploration tripped a bound");
    return;
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(B.NodesVisited));
  State.counters["nodes"] = static_cast<double>(B.NodesVisited);
  State.counters["pruned"] = static_cast<double>(Pruned);
  State.counters["fused"] = static_cast<double>(Fused);
  State.counters["jobs"] = static_cast<double>(EC.Jobs);
  State.counters["reduce"] = Reduce ? 1 : 0;
  State.counters["capped"] = B.Exhausted ? 0 : 1;
}

void BM_ScaleSmallReduced(benchmark::State &State) {
  runScale(State, smallConfig(), /*Reduce=*/true);
}
BENCHMARK(BM_ScaleSmallReduced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleSmallUnreduced(benchmark::State &State) {
  runScale(State, smallConfig(), /*Reduce=*/false);
}
BENCHMARK(BM_ScaleSmallUnreduced)->Arg(1)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleMidReduced(benchmark::State &State) {
  runScale(State, midConfig(), /*Reduce=*/true);
}
BENCHMARK(BM_ScaleMidReduced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleMidUnreduced(benchmark::State &State) {
  runScale(State, midConfig(), /*Reduce=*/false);
}
BENCHMARK(BM_ScaleMidUnreduced)->Arg(1)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleWideReduced(benchmark::State &State) {
  runScale(State, wideConfig(), /*Reduce=*/true);
}
BENCHMARK(BM_ScaleWideReduced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleWideUnreduced(benchmark::State &State) {
  runScale(State, wideConfig(), /*Reduce=*/false);
}
BENCHMARK(BM_ScaleWideUnreduced)->Arg(1)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Reduced vs unreduced on the private-store workload: the gap is what
// exclusive-write fusion buys on memory-mutating thread-local code.
void BM_ScalePrivateReduced(benchmark::State &State) {
  runScale(State, privateStoreConfig(), /*Reduce=*/true);
}
BENCHMARK(BM_ScalePrivateReduced)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScalePrivateUnreduced(benchmark::State &State) {
  runScale(State, privateStoreConfig(), /*Reduce=*/false);
}
BENCHMARK(BM_ScalePrivateUnreduced)->Arg(1)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
