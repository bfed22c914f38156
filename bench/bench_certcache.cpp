//===- bench/bench_certcache.cpp - Certification cache speedups ----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// Wall-time effect of the cross-step certification cache (ps/CertCache.h)
// on promise-heavy workloads, cache on vs off (Arg: 1 = on, 0 = off):
//
//  * LB               — the registry's load-buffering test, the E1 workload
//                       whose certification overhead motivated the cache;
//  * LB acq           — same shape, acquire reads (promises still needed);
//  * LB 3-thread ring — LB scaled to a three-thread promise ring: more
//                       certifications per state and a bigger state graph;
//  * LB @ 4 jobs      — four workers sharing one cache (striped-lock
//                       contention included).
//
// Every run asserts the BehaviorSet is identical to the cache-off jobs=1
// baseline, and reports the cache hit rate of its last iteration via the
// certcache.* statistics.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "support/Statistic.h"

#include <benchmark/benchmark.h>

using namespace psopt;

namespace {

/// LB scaled to a ring of three relaxed threads: t_i reads x_i and writes
/// x_{i+1 mod 3} := 1. Every thread can promise its write, so most machine
/// steps re-certify three promise sets against near-identical memories.
Program lbRing3() {
  return parseProgramOrDie(R"(var a atomic; var b atomic; var c atomic;
    func t0 { block 0: r := a.rlx; b.rlx := 1; print(r); ret; }
    func t1 { block 0: r := b.rlx; c.rlx := 1; print(r); ret; }
    func t2 { block 0: r := c.rlx; a.rlx := 1; print(r); ret; }
    thread t0; thread t1; thread t2;)");
}

std::uint64_t statValue(const char *Group, const char *Name) {
  for (const Statistic *S : allStatistics())
    if (std::string(S->group()) == Group && std::string(S->name()) == Name)
      return S->value();
  return 0;
}

void runExplore(benchmark::State &State, const Program &P, StepConfig SC,
                unsigned Jobs) {
  StepConfig Off = SC;
  Off.EnableCertCache = false;
  BehaviorSet Base = exploreInterleaving(P, Off);

  SC.EnableCertCache = State.range(0) != 0;
  ExploreConfig EC;
  EC.Jobs = Jobs;

  BehaviorSet B;
  std::uint64_t Hits = 0, Misses = 0;
  for (auto _ : State) {
    std::uint64_t Hits0 = statValue("certcache", "hits");
    std::uint64_t Misses0 = statValue("certcache", "misses");
    B = exploreInterleaving(P, SC, EC);
    benchmark::DoNotOptimize(B.NodesVisited);
    Hits = statValue("certcache", "hits") - Hits0;
    Misses = statValue("certcache", "misses") - Misses0;
  }
  if (B != Base) {
    State.SkipWithError("cache-on BehaviorSet diverged from cache-off");
    return;
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(B.NodesVisited));
  State.counters["nodes"] = static_cast<double>(B.NodesVisited);
  State.counters["cache"] = State.range(0) ? 1 : 0;
  State.counters["hits"] = static_cast<double>(Hits);
  State.counters["misses"] = static_cast<double>(Misses);
  State.counters["hit_rate"] =
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0.0;
}

void BM_CertCacheLb(benchmark::State &State) {
  const LitmusTest &T = litmus("lb");
  StepConfig SC = T.SuggestedConfig();
  SC.EnablePromises = true;
  runExplore(State, T.Prog, SC, /*Jobs=*/1);
}
BENCHMARK(BM_CertCacheLb)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CertCacheLbAcq(benchmark::State &State) {
  const LitmusTest &T = litmus("lb_acq");
  StepConfig SC = T.SuggestedConfig();
  SC.EnablePromises = true;
  runExplore(State, T.Prog, SC, /*Jobs=*/1);
}
BENCHMARK(BM_CertCacheLbAcq)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CertCacheLbRing3(benchmark::State &State) {
  static const Program P = lbRing3();
  StepConfig SC;
  SC.EnablePromises = true;
  runExplore(State, P, SC, /*Jobs=*/1);
}
BENCHMARK(BM_CertCacheLbRing3)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CertCacheLbRing3Par(benchmark::State &State) {
  static const Program P = lbRing3();
  StepConfig SC;
  SC.EnablePromises = true;
  runExplore(State, P, SC, /*Jobs=*/4);
}
BENCHMARK(BM_CertCacheLbRing3Par)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
