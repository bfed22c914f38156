//===- explore/Explorer.cpp - Bounded exhaustive exploration -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Canonical.h"
#include "explore/ParallelBfs.h"
#include "explore/Reduction.h"
#include "explore/TraceTrie.h"
#include "nps/NPMachine.h"
#include "support/Hashing.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace psopt {

static Statistic NumExploreNodes("explore", "nodes", "nodes expanded");
static Statistic NumExploreTransitions("explore", "transitions",
                                       "machine transitions explored");
static PhaseTimer ExploreSearchTime("explore", "search",
                                    "wall-clock time inside explore()");

namespace {

struct Expansion;
/// An interned canonical state: the state itself (the key) plus its
/// once-filled expansion. Entries never move, so the address is the id.
using StateEntry = std::pair<const MachineState, Expansion>;

/// One machine step out of a state. Abort steps have no child.
struct Edge {
  StateEntry *Child;
  MachineEvent::Kind K;
  Val Out; ///< the printed value of an Out step
};

/// Everything expanding a state computes from the state alone: how it
/// ends (or its successors, projected, canonicalized and interned) and
/// the fused-chain facts the reduction counters are charged from.
struct Expansion {
  std::once_flag Once;
  bool Done = false; ///< all threads terminated; no edges
  FusedChain Chain;  ///< Len 0 unless the reducer fused a chain here
  std::vector<Edge> Edges; ///< empty (and not Done): blocked
};

struct MachineStateHash {
  std::size_t operator()(const MachineState &S) const { return S.hash(); }
};

/// The per-explore() table of canonical states, striped like the visited
/// table. expand() fills an entry's expansion exactly once however many
/// nodes (and workers) reach its state.
class StateTable {
public:
  explicit StateTable(unsigned Jobs) : Shards(Jobs) {}

  /// The entry of canonical state \p S, created on first use (\p S is
  /// moved from only then).
  StateEntry &intern(MachineState &&S) {
    Shard &Sh = Shards.forHash(S.hash());
    std::lock_guard<std::mutex> Lock(Sh.M);
    return *Sh.Map.try_emplace(std::move(S)).first;
  }

  /// \p E's expansion, computed by \p Fill(State, Expansion &) on first
  /// call. Concurrent callers wait for the one that fills it.
  template <typename FillT>
  const Expansion &expand(StateEntry &E, FillT &&Fill) {
    std::call_once(E.second.Once, [&] {
      Fill(E.first, E.second);
      Expanded.fetch_add(1, std::memory_order_relaxed);
    });
    return E.second;
  }

  /// Number of entries expanded so far.
  std::uint64_t expanded() const {
    return Expanded.load(std::memory_order_relaxed);
  }

private:
  struct Shard {
    std::mutex M;
    std::unordered_map<MachineState, Expansion, MachineStateHash> Map;
  };
  Sharded<Shard> Shards;
  std::atomic<std::uint64_t> Expanded{0};
};

/// A search node: a canonical state and the trace that reached it, both
/// by id, so hashing and comparing a node never touches either.
struct Node {
  StateEntry *State;
  TraceTrie::Id Outs;

  bool operator==(const Node &O) const {
    return State == O.State && Outs == O.Outs;
  }
};

struct NodeHash {
  std::size_t operator()(const Node &N) const {
    std::size_t Seed = reinterpret_cast<std::uintptr_t>(N.State);
    hashCombine(Seed, reinterpret_cast<std::uintptr_t>(N.Outs));
    return hashFinalize(Seed);
  }
};

using TraceIdSet = std::unordered_set<TraceTrie::Id>;

/// Worker-private partial result; merged into the final BehaviorSet after
/// the pool joins. Padded out to a cache line so neighboring workers'
/// counters don't false-share.
struct alignas(64) PartialBehavior {
  TraceIdSet Done;
  TraceIdSet Abort;
  TraceIdSet Blocked;
  TraceIdSet Prefixes;
  std::uint64_t Transitions = 0;
  std::uint64_t AmpleNodes = 0;
  std::uint64_t FusedSteps = 0;
  std::uint64_t SleepSkips = 0;
  bool OutBoundHit = false; ///< the MaxOuts bound cut a print
  std::vector<MachineSuccessor> SuccBuf; // reused across expansions
  ReducerScratch Scratch;                // reduction-layer buffers
};

} // namespace

/// Expands canonical state \p S into \p X: classifies it (done/blocked) or
/// enumerates its successors and interns each child in \p States. \p Red
/// is null for unreduced exploration; otherwise it may replace the
/// successors by one fused successor and projects each child. Nothing here
/// depends on the trace a node carries, so the explorer runs this once per
/// canonical state, never per node.
static void expandState(const Machine &M, const Reducer *Red,
                        const MachineState &S, Expansion &X,
                        PartialBehavior &Scr, StateTable &States) {
  if (S.allTerminated()) {
    X.Done = true;
    return;
  }

  std::vector<MachineSuccessor> &Succs = Scr.SuccBuf;
  if (Red) {
    Succs.clear();
    Succs.resize(1);
    X.Chain = Red->selectFused(S, Scr.Scratch, Succs[0]);
  }
  if (X.Chain.Len == 0)
    M.successors(S, Succs);
  // Empty Edges is the blocked state. It is never a reduction artifact: a
  // fused successor always exists when selection succeeds, so emptiness
  // means the full relation is empty.
  X.Edges.reserve(Succs.size());
  for (MachineSuccessor &Succ : Succs) {
    Edge E{nullptr, Succ.Ev.K, Succ.Ev.OutVal};
    if (Succ.Ev.K != MachineEvent::Kind::Abort) {
      if (Red)
        Red->project(Succ.State);
      canonicalizeSuccessor(Succ.State, S);
      E.Child = &States.intern(std::move(Succ.State));
    }
    X.Edges.push_back(E);
  }
}

/// The traces in every partial's \p Sink, materialized once the search is
/// over. Equal ids in different workers' sets are equal traces, which the
/// result set merges.
static std::set<Trace> materialize(const std::vector<PartialBehavior> &Ps,
                                   TraceIdSet PartialBehavior::*Sink) {
  std::set<Trace> Out;
  for (const PartialBehavior &P : Ps)
    for (TraceTrie::Id T : P.*Sink)
      Out.insert(TraceTrie::materialize(T));
  return Out;
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

  // At one worker the pool runs on the calling thread and spawns nothing.
  ParallelBfs<Node, NodeHash> Engine(C.Jobs, C.MaxNodes);
  StateTable States(Engine.jobs());
  TraceTrie Traces(Engine.jobs());
  std::vector<PartialBehavior> Partials(Engine.jobs());

  MachineState Start = *M.initial();
  if (Red)
    Red->project(Start);
  canonicalizeState(Start);
  Node Root{&States.intern(std::move(Start)), Traces.empty()};

  // Per node only ids move: the state's expansion is looked up (computed
  // by the first node to reach it), and the node's own trace decides
  // where its edges lead and which sinks it lands in.
  auto Visit = [&](unsigned W, const Node &N, auto &&Push) {
    ++NumExploreNodes;
    PartialBehavior &Sink = Partials[W];
    Sink.Prefixes.insert(N.Outs);
    const Expansion &X =
        States.expand(*N.State, [&](const MachineState &S, Expansion &Into) {
          expandState(M, Red ? &*Red : nullptr, S, Into, Sink, States);
        });
    if (X.Done) {
      Sink.Done.insert(N.Outs);
      return;
    }
    if (X.Edges.empty()) {
      Sink.Blocked.insert(N.Outs);
      return;
    }
    if (X.Chain.Len) {
      ++Sink.AmpleNodes;
      Sink.FusedSteps += X.Chain.Len;
      Sink.SleepSkips += X.Chain.SleepSkips;
    }
    NumExploreTransitions += X.Edges.size();
    Sink.Transitions += X.Edges.size();
    for (const Edge &E : X.Edges) {
      switch (E.K) {
      case MachineEvent::Kind::Abort:
        Sink.Abort.insert(N.Outs);
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
  };

  auto Stats = Engine.run(Root, Visit);

  // Deterministic merge: the trace sets are unions of per-node
  // contributions and the counters are sums over the exactly-once
  // visited nodes, so neither depends on which worker visited what.
  B.Done = materialize(Partials, &PartialBehavior::Done);
  B.Abort = materialize(Partials, &PartialBehavior::Abort);
  B.Blocked = materialize(Partials, &PartialBehavior::Blocked);
  B.Prefixes = materialize(Partials, &PartialBehavior::Prefixes);
  bool OutBoundHit = false;
  for (const PartialBehavior &L : Partials) {
    B.Transitions += L.Transitions;
    detail::numReductionAmpleNodes() += L.AmpleNodes;
    detail::numReductionFusedSteps() += L.FusedSteps;
    detail::numReductionSleepSkips() += L.SleepSkips;
    detail::numReductionChainMemoHits() += L.Scratch.MemoHits;
    detail::numReductionChainMemoMisses() += L.Scratch.MemoMisses;
    OutBoundHit |= L.OutBoundHit;
  }
  B.Exhausted = !Stats.NodeBoundHit && !OutBoundHit;
  B.NodesVisited = Stats.Expanded;
  // Every visited node expands its state, and each state expands once.
  B.UniqueStates = States.expanded();

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
