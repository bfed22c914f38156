//===- perfbench/src/Ledger.cpp - Item execution and layer ledger ---------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Timing.h"

#include "analysis/Footprint.h"
#include "explore/Refinement.h"
#include "opt/Pass.h"
#include "support/Statistic.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdio>
#include <malloc.h>
#include <memory>

using namespace psopt;

namespace perfbench {

const char *const ItemCountNames[NumItemCounts] = {
    "explore.nodes", "explore.transitions", "cert.runs",
    "certcache.hits", "certcache.misses", "reduction.fused_steps"};

namespace {

std::uint64_t heapInUse() {
  struct mallinfo2 MI = mallinfo2();
  return MI.uordblks + MI.hblkhd;
}

/// The interleaving machine with Machine::successors timed and counted,
/// and the heap sampled every 256 calls for the exploration's peak.
/// Swapped in by traced runs only, one per exploration.
class TimedMachine final : public InterleavingMachine {
public:
  TimedMachine(const Program &P, StepConfig C) : InterleavingMachine(P, C) {}

  void successors(const MachineState &S,
                  std::vector<MachineSuccessor> &Out) const override {
    Clock::time_point T0 = Clock::now();
    InterleavingMachine::successors(S, Out);
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - T0)
                  .count();
    Nanos.fetch_add(static_cast<std::uint64_t>(Ns), std::memory_order_relaxed);
    if ((Calls.fetch_add(1, std::memory_order_relaxed) & 255) == 0)
      notePeak(heapInUse());
  }

  void notePeak(std::uint64_t Bytes) const {
    std::uint64_t Cur = PeakHeap.load(std::memory_order_relaxed);
    while (Bytes > Cur && !PeakHeap.compare_exchange_weak(
                              Cur, Bytes, std::memory_order_relaxed))
      ;
  }

  mutable std::atomic<std::uint64_t> Calls{0};
  mutable std::atomic<std::uint64_t> Nanos{0};
  mutable std::atomic<std::uint64_t> PeakHeap{0};
};

/// Adds the wall time of its scope to \p Acc when \p Acc is non-null.
class Stopwatch {
public:
  explicit Stopwatch(double *Acc) : Acc(Acc), T0(Clock::now()) {}
  Stopwatch(const Stopwatch &) = delete;
  Stopwatch &operator=(const Stopwatch &) = delete;
  ~Stopwatch() {
    if (Acc)
      *Acc += since(T0);
  }

private:
  double *Acc;
  Clock::time_point T0;
};

std::unique_ptr<Machine> makeMachine(const Program &P, const StepConfig &SC,
                                     Ledger *L) {
  TraceSpan Span("bench", "ps.machine_init");
  Stopwatch W(L ? &L->MachineInitS : nullptr);
  if (L)
    return std::make_unique<TimedMachine>(P, SC);
  return std::make_unique<InterleavingMachine>(P, SC);
}

BehaviorSet exploreOne(const Machine &M, const ExploreConfig &EC, Ledger *L) {
  TraceSpan Span("bench", "explore");
  if (!L)
    return explore(M, EC);

  const auto &TM = static_cast<const TimedMachine &>(M);
  const std::uint64_t Heap0 = heapInUse();
  TM.PeakHeap.store(Heap0, std::memory_order_relaxed);
  const double Cpu0 = processCpuSeconds();
  Clock::time_point T0 = Clock::now();

  BehaviorSet B = explore(M, EC);

  const double Wall = since(T0), Cpu = processCpuSeconds() - Cpu0;
  L->ExploreWallS += Wall;
  L->ExploreCpuS += Cpu;
  L->ExploreS += EC.Jobs > 1 ? Cpu : Wall;
  L->SuccessorsCalls += TM.Calls.load();
  L->SuccessorsS += 1e-9 * static_cast<double>(TM.Nanos.load());
  L->HeapGrowthB += static_cast<double>(TM.PeakHeap.load() - Heap0);
  L->Prefixes += B.Prefixes.size();
  L->UniqueStates += B.UniqueStates;
  Span.arg("nodes", B.NodesVisited).arg("exhausted", B.Exhausted);
  return B;
}

void analyzeFootprint(const Program &P, Ledger *L) {
  if (!L)
    return;
  TraceSpan Span("bench", "analysis.footprint");
  Stopwatch W(&L->FootprintS);
  FootprintAnalysis FA(P);
  (void)FA.threadCount();
}

/// Instructions other than skip: what a pass leaves for the machine.
std::uint64_t liveInstructions(const Program &P) {
  std::uint64_t N = 0;
  for (const auto &[Name, F] : P.code())
    for (const auto &[Label, B] : F.blocks())
      for (const Instr &I : B.instructions())
        N += I.kind() != Instr::Kind::Skip;
  return N;
}

std::string hex(std::uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Runs the item's body: optimize, explore, check the verdict. Fills
/// everything but WallS and Counts. Scale items run no passes and explore
/// only the source, but still pass through every phase, so each phase's
/// time is measured (near zero where it does nothing) on every workload.
void runBody(const Item &It, const ExploreConfig &EC, Ledger *L,
             const StatisticSnapshot &Snap, ItemOutcome &O) {
  StepConfig SC;
  SC.EnablePromises = It.Promises;
  const bool Verify = It.Want != Expect::Fingerprint;

  Program Tgt;
  {
    TraceSpan Span("bench", "opt.pipeline");
    Stopwatch W(L ? &L->OptS : nullptr);
    if (Verify)
      Tgt = It.Source;
    for (const std::string &Name : It.Pipeline) {
      std::unique_ptr<Pass> P = createPassByName(Name);
      if (!P) {
        O.Wrong = true;
        O.Detail = "unknown pass " + Name;
        return;
      }
      TraceSpan PassSpan("opt", P->name());
      Tgt = P->run(Tgt);
    }
  }
  if (L && Verify) {
    L->InstrsBefore += liveInstructions(It.Source);
    L->InstrsAfter += liveInstructions(Tgt);
  }

  BehaviorSet BT;
  if (Verify) {
    analyzeFootprint(Tgt, L);
    BT = exploreOne(*makeMachine(Tgt, SC, L), EC, L);
  }
  analyzeFootprint(It.Source, L);
  BehaviorSet BS = exploreOne(*makeMachine(It.Source, SC, L), EC, L);

  RefinementResult R;
  std::uint64_t FP = 0;
  {
    TraceSpan Span("bench", "refine");
    Stopwatch W(L ? &L->RefineS : nullptr);
    if (Verify)
      R = checkRefinement(BT, BS);
    else
      FP = behaviorFingerprint(BS);
  }

  if (!Verify) {
    O.Undecided = !BS.Exhausted;
    if (FP != It.Fingerprint) {
      O.Wrong = true;
      O.Detail = "fingerprint " + hex(FP) + ", recorded " + hex(It.Fingerprint);
    }
    O.Behaviors = std::move(BS);
    return;
  }
  if (L)
    ++L->RefineCalls;
  O.Undecided = !BT.Exhausted || !BS.Exhausted ||
                Snap.delta("cert", "bound_hits") != 0;
  if (It.Want == Expect::Fails ? O.Undecided || R.Holds
                               : !O.Undecided && !R.Holds) {
    O.Wrong = true;
    O.Detail = It.Want == Expect::Fails
                   ? (O.Undecided ? "undecided, expected an exact failure"
                                  : "holds, expected a failure")
                   : "verified pipeline fails: " + R.CounterExample;
  }
}

} // namespace

ItemOutcome runItem(const Item &It, const ExploreConfig &EC, Ledger *L) {
  ItemOutcome O;
  StatisticSnapshot Snap;
  Clock::time_point T0 = Clock::now();
  {
    TraceSpan Span("bench", "item");
    Span.arg("name", It.Name);
    runBody(It, EC, L, Snap, O);
  }
  O.WallS = since(T0);
  O.Counts = {Snap.delta("explore", "nodes"),
              Snap.delta("explore", "transitions"),
              Snap.delta("cert", "runs"),
              Snap.delta("certcache", "hits"),
              Snap.delta("certcache", "misses"),
              Snap.delta("reduction", "fused_steps")};
  if (L) {
    ++L->Items;
    for (const Statistic *S : allStatistics())
      L->Counters[std::string(S->group()) + "." + S->name()] += Snap.delta(S);
  }
  return O;
}

std::vector<Metric> layerMetrics(const Ledger &L, unsigned Jobs) {
  const double N = L.Items ? static_cast<double>(L.Items) : 1.0;
  auto D = [&L](const char *Group, const char *Name) {
    return static_cast<double>(L.count(std::string(Group) + "." + Name));
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto Base = [](const char *What, double Den) {
    return std::string("base ") + What + " = " +
           std::to_string(static_cast<unsigned long long>(Den));
  };

  const double Nodes = D("explore", "nodes");
  const double Steps = D("machine", "thread_steps");
  const double CertRuns = D("cert", "runs");
  const double Hits = D("certcache", "hits"), Misses = D("certcache", "misses");
  double Applied = 0;
  for (const auto &[Key, V] : L.Counters)
    for (const char *G : {"constprop.", "dce.", "cse.", "linv.", "reorder.",
                          "rse.", "fenceweaken.", "simplifycfg."})
      if (Key.rfind(G, 0) == 0)
        Applied += static_cast<double>(V);

  const std::string NoPool = "absent: jobs=1 runs no ParallelBfs";
  const std::string PerItem = "per item";
  std::vector<Metric> M = {
      {"explore.s", L.ExploreS / N, "s", PerItem},
      {"explore.self_s", (L.ExploreS - L.SuccessorsS) / N, "s",
       "explore.s - ps.successors_s"},
      {"explore.nodes", Nodes / N, "count", PerItem},
      {"explore.transitions", D("explore", "transitions") / N, "count", PerItem},
      {"explore.unique_states", static_cast<double>(L.UniqueStates) / N,
       "count", PerItem},
      {"explore.nodes_per_s", Ratio(Nodes, L.ExploreS), "1/s",
       "nodes / explore.s"},
      {"explore.prefixes", static_cast<double>(L.Prefixes) / N, "count",
       PerItem},
      {"explore.rss_per_state_b",
       Ratio(L.HeapGrowthB, static_cast<double>(L.UniqueStates)), "B",
       "peak heap growth per explore / unique states"},
      {"reduction.ample_ratio", Ratio(D("reduction", "ample_nodes"), Nodes),
       "ratio", Base("nodes", Nodes)},
      {"reduction.fused_per_node", Ratio(D("reduction", "fused_steps"), Nodes),
       "ratio", Base("nodes", Nodes)},
      {"reduction.sleep_skips", D("reduction", "sleep_skips") / N, "count",
       PerItem},
      {"reduction.equiv_hits", D("reduction", "equiv_hits") / N, "count",
       PerItem},
      {"parallel.steals", Jobs > 1 ? D("parallel", "steals") / N : 0, "count",
       Jobs > 1 ? PerItem : NoPool},
      {"parallel.idle_waits", Jobs > 1 ? D("parallel", "idle_waits") / N : 0,
       "count", Jobs > 1 ? PerItem : NoPool},
      {"parallel.cpu_per_wall",
       Jobs > 1 ? Ratio(L.ExploreCpuS, L.ExploreWallS) : 0, "ratio",
       Jobs > 1 ? "explore CPU s / explore wall s" : NoPool},
      {"ps.machine_init_s", L.MachineInitS / N, "s", PerItem},
      {"ps.successors_calls", static_cast<double>(L.SuccessorsCalls) / N,
       "count", PerItem},
      {"ps.successors_s", L.SuccessorsS / N, "s", PerItem},
      {"ps.thread_steps", Steps / N, "count", PerItem},
      {"ps.cert_reject_ratio", Ratio(D("machine", "cert_rejects"), Steps),
       "ratio", Base("thread_steps", Steps)},
      {"cert.runs", CertRuns / N, "count", PerItem},
      {"cert.states_per_run", Ratio(D("cert", "states"), CertRuns), "count",
       Base("runs", CertRuns)},
      {"cert.bound_hits", D("cert", "bound_hits") / N, "count", PerItem},
      {"certcache.hit_ratio", Ratio(Hits, Hits + Misses), "ratio",
       Base("hits + misses", Hits + Misses)},
      {"certcache.evictions", D("certcache", "evictions") / N, "count",
       PerItem},
      {"opt.s", L.OptS / N, "s", PerItem},
      {"opt.instrs_ratio",
       Ratio(static_cast<double>(L.InstrsAfter),
             static_cast<double>(L.InstrsBefore)),
       "ratio", Base("instructions before", static_cast<double>(L.InstrsBefore))},
      {"opt.applied", Applied / N, "count", PerItem},
      {"analysis.footprint_s", L.FootprintS / N, "s", PerItem},
      {"refine.calls", static_cast<double>(L.RefineCalls) / N, "count",
       PerItem},
      {"refine.s", L.RefineS / N, "s", PerItem},
  };
  return M;
}

} // namespace perfbench
