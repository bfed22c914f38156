//===- explore/Explorer.cpp - Bounded exhaustive exploration -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Canonical.h"
#include "explore/ExploreNode.h"
#include "explore/ParallelBfs.h"
#include "explore/Reduction.h"
#include "nps/NPMachine.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <atomic>
#include <optional>
#include <unordered_set>

namespace psopt {

static Statistic NumExploreNodes("explore", "nodes", "nodes expanded");
static Statistic NumExploreTransitions("explore", "transitions",
                                       "machine transitions explored");
static PhaseTimer ExploreSearchTime("explore", "search",
                                    "wall-clock time inside explore()");

namespace {

/// Worker-private partial result; merged into the final BehaviorSet after
/// the pool joins. Padded out to a cache line so neighboring workers'
/// counters don't false-share.
struct alignas(64) PartialBehavior {
  std::set<Trace> Done;
  std::set<Trace> Abort;
  std::set<Trace> Blocked;
  std::set<Trace> Prefixes;
  std::uint64_t Transitions = 0;
  std::vector<MachineSuccessor> SuccBuf; // reused across expansions
  ReducerScratch Scratch;                // reduction-layer buffers
};

} // namespace

/// Expands one explore node: classifies it (done/blocked), enumerates its
/// successors, records trace bookkeeping into \p Sink and feeds every
/// child to \p Push. \p Red is null for unreduced exploration; otherwise
/// it may replace the successors by one fused successor and projects each
/// child. Duplicate children are left to the visited table. \p OutBoundHit
/// is set (never cleared) when the MaxOuts trace bound cuts a successor.
template <typename PushT>
static void expandExploreNode(const Machine &M, const Reducer *Red,
                              const ExploreNode &Cur, const ExploreConfig &C,
                              PartialBehavior &Sink, PushT &&Push,
                              bool &OutBoundHit) {
  Sink.Prefixes.insert(Cur.Outs);

  if (Cur.State.allTerminated()) {
    Sink.Done.insert(Cur.Outs);
    return;
  }

  std::vector<MachineSuccessor> &Succs = Sink.SuccBuf;
  bool Fused = false;
  if (Red) {
    Succs.clear();
    Succs.resize(1);
    Fused = Red->selectFused(Cur.State, Sink.Scratch, Succs[0]);
  }
  if (!Fused)
    M.successors(Cur.State, Succs);
  if (Succs.empty()) {
    // Never a reduction artifact: a fused successor always exists when
    // selection succeeds, so emptiness means the full relation is empty.
    Sink.Blocked.insert(Cur.Outs);
    return;
  }

  for (MachineSuccessor &S : Succs) {
    ++NumExploreTransitions;
    ++Sink.Transitions;
    switch (S.Ev.K) {
    case MachineEvent::Kind::Abort:
      Sink.Abort.insert(Cur.Outs);
      continue;
    case MachineEvent::Kind::Out:
      if (Cur.Outs.size() >= C.MaxOuts) {
        OutBoundHit = true;
        continue;
      }
      break;
    case MachineEvent::Kind::Tau:
      break;
    }
    ExploreNode Child{std::move(S.State), Cur.Outs};
    if (S.Ev.K == MachineEvent::Kind::Out)
      Child.Outs.push_back(S.Ev.OutVal);
    if (Red)
      Red->project(Child.State);
    canonicalizeSuccessor(Child.State, Cur.State);
    Push(std::move(Child));
  }
}

BehaviorSet explore(const Machine &M, const ExploreConfig &C) {
  BehaviorSet B;
  if (!M.initial()) {
    // A thread entry is missing: the only behavior is immediate abort.
    B.Abort.insert(Trace{});
    B.Prefixes.insert(Trace{});
    return B;
  }
  PhaseTimerScope Time(ExploreSearchTime);
  TraceSpan Span("explore", "search");
  Span.arg("jobs", C.Jobs).arg("reduce", C.Reduce);

  // One shared, immutable reduction context; workers bring their own
  // scratch. Ample-set selection is a pure function of the state, so the
  // reduced graph is schedule-independent and identical at every -j.
  std::optional<Reducer> Red;
  if (C.Reduce && M.supportsReduction())
    Red.emplace(M);

  ExploreNode Start{*M.initial(), {}};
  if (Red)
    Red->project(Start.State);
  canonicalizeState(Start.State);

  // At one worker the pool runs on the calling thread and spawns nothing.
  ParallelBfs<ExploreNode, ExploreNodeHash> Engine(C.Jobs, C.MaxNodes);
  std::vector<PartialBehavior> Partials(Engine.jobs());
  std::atomic<bool> OutBoundHit{false};

  auto Visit = [&](unsigned W, const ExploreNode &N, auto &&Push) {
    ++NumExploreNodes;
    bool OutHit = false;
    expandExploreNode(M, Red ? &*Red : nullptr, N, C, Partials[W], Push,
                      OutHit);
    if (OutHit)
      OutBoundHit.store(true, std::memory_order_relaxed);
  };

  auto Stats = Engine.run(std::move(Start), Visit);

  // Deterministic merge: set unions are insertion-order independent and
  // the counters are sums over the exactly-once visited nodes. The first
  // partial is adopted whole, so one worker copies no traces.
  auto Merge = [](std::set<Trace> &Into, std::set<Trace> &From) {
    if (Into.empty())
      Into.swap(From);
    else
      Into.insert(From.begin(), From.end());
  };
  for (PartialBehavior &L : Partials) {
    Merge(B.Done, L.Done);
    Merge(B.Abort, L.Abort);
    Merge(B.Blocked, L.Blocked);
    Merge(B.Prefixes, L.Prefixes);
    B.Transitions += L.Transitions;
  }
  B.Exhausted =
      !Stats.NodeBoundHit && !OutBoundHit.load(std::memory_order_relaxed);
  B.NodesVisited = Stats.Expanded;
  // UniqueStates folds out of the joined visited table (hashes are
  // memoized) instead of paying a locked sharded-set probe per node
  // during the search.
  std::unordered_set<std::size_t> StateHashes;
  StateHashes.reserve(Stats.Expanded);
  Engine.forEachVisited([&StateHashes](const ExploreNode &N) {
    StateHashes.insert(N.State.hash());
  });
  B.UniqueStates = StateHashes.size();

  Span.arg("nodes", B.NodesVisited)
      .arg("unique_states", B.UniqueStates)
      .arg("transitions", B.Transitions)
      .arg("exhausted", B.Exhausted);
  return B;
}

BehaviorSet exploreInterleaving(const Program &P, const StepConfig &SC,
                                const ExploreConfig &C) {
  InterleavingMachine M(P, SC);
  return explore(M, C);
}

BehaviorSet exploreNonPreemptive(const Program &P, const StepConfig &SC,
                                 const ExploreConfig &C) {
  NonPreemptiveMachine M(P, SC);
  return explore(M, C);
}

} // namespace psopt
