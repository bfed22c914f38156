//===- explore/Explorer.cpp - Bounded exhaustive exploration -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/ParallelBfs.h"
#include "explore/Reduction.h"
#include "explore/StateGraph.h"
#include "explore/TraceTrie.h"
#include "nps/NPMachine.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <optional>

namespace psopt {

static Statistic NumExploreNodes("explore", "nodes", "nodes expanded");
static Statistic NumExploreTransitions("explore", "transitions",
                                       "machine transitions explored");
static PhaseTimer ExploreSearchTime("explore", "search",
                                    "wall-clock time inside explore()");

namespace {

/// A search node: a canonical state and the trace that reached it, both
/// by id.
struct Node {
  StateEntry *State;
  TraceTrie::Id Outs;
};

/// How many nodes a worker visits between two updates of the shared
/// explore.nodes counter (a power of two).
constexpr std::uint64_t NodesFlush = 256;

/// Worker-private counters and buffers, summed after the pool joins (the
/// traces land in the trie). Padded out to a cache line so neighboring
/// workers' counters don't false-share.
struct alignas(64) PartialBehavior {
  std::uint64_t Nodes = 0;
  std::uint64_t Transitions = 0;
  std::uint64_t AmpleNodes = 0;
  std::uint64_t FusedSteps = 0;
  std::uint64_t SleepSkips = 0;
  bool OutBoundHit = false; ///< the MaxOuts bound cut a print
  ExpandScratch Expand;
};

} // namespace

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

  // At one worker the pool runs on the calling thread and spawns nothing.
  ParallelBfs<Node> Engine(C.Jobs, C.MaxNodes);
  StateGraph States(M, Red ? &*Red : nullptr, Engine.jobs());
  TraceTrie Traces(Engine.jobs());
  std::vector<PartialBehavior> Partials(Engine.jobs());
  Node Root{&States.root(Partials[0].Expand), Traces.empty()};

  // A node is visited when its (state, trace) pair is first marked. Per
  // node only ids move: the state's expansion is looked up (computed by
  // the first node to reach it), the node's trace decides where its edges
  // lead, and how the node ends is marked on its trace entry.
  auto Visit = [&](unsigned W, const Node &N, auto &&Push) {
    if (!States.reach(*N.State, N.Outs) || !Engine.claim())
      return;
    // Every counter is summed per worker and folded in after the join,
    // but the --progress heartbeat reads explore.nodes live: each worker
    // publishes its nodes 256 at a time, the rest after the join.
    PartialBehavior &Sink = Partials[W];
    if ((++Sink.Nodes & (NodesFlush - 1)) == 0)
      NumExploreNodes += NodesFlush;
    const Expansion &X = States.expand(*N.State, Sink.Expand);
    std::uint8_t Ends = TraceTrie::Prefix;
    if (X.Done)
      Ends |= TraceTrie::Done;
    else if (X.Edges.empty()) // no step and not done
      Ends |= TraceTrie::Blocked;
    if (X.Chain.Len) {
      ++Sink.AmpleNodes;
      Sink.FusedSteps += X.Chain.Len;
      Sink.SleepSkips += X.Chain.SleepSkips;
    }
    Sink.Transitions += X.Edges.size();
    for (const Edge &E : X.Edges) {
      switch (E.K) {
      case MachineEvent::Kind::Abort:
        Ends |= TraceTrie::Abort;
        break;
      case MachineEvent::Kind::Out:
        // The trace bound belongs to the node, not the state: the same
        // state may print under a shorter trace elsewhere.
        if (N.Outs->Len >= C.MaxOuts)
          Sink.OutBoundHit = true;
        else
          Push(Node{E.Child, Traces.extend(N.Outs, E.Out)});
        break;
      case MachineEvent::Kind::Tau:
        Push(Node{E.Child, N.Outs});
        break;
      }
    }
    TraceTrie::mark(N.Outs, Ends);
  };

  auto Stats = Engine.run(Root, Visit);

  // Deterministic merge: the trace sets are the marks and the counters
  // the sums of the exactly-once visited nodes, whichever worker it was.
  Traces.collect(B);
  bool OutBoundHit = false;
  for (const PartialBehavior &L : Partials) {
    NumExploreNodes += L.Nodes & (NodesFlush - 1);
    // Every visited node expands its state, and each state expands once.
    B.UniqueStates += L.Expand.Expanded;
    B.Transitions += L.Transitions;
    detail::numReductionAmpleNodes() += L.AmpleNodes;
    detail::numReductionFusedSteps() += L.FusedSteps;
    detail::numReductionSleepSkips() += L.SleepSkips;
    detail::numReductionChainMemoHits() += L.Expand.Scratch.MemoHits;
    detail::numReductionChainMemoMisses() += L.Expand.Scratch.MemoMisses;
    OutBoundHit |= L.OutBoundHit;
  }
  NumExploreTransitions += B.Transitions;
  B.Exhausted = !Stats.NodeBoundHit && !OutBoundHit;
  B.NodesVisited = Stats.Expanded;

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
