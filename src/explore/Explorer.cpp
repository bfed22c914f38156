//===- explore/Explorer.cpp - Bounded exhaustive exploration -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Canonical.h"
#include "explore/ParallelBfs.h"
#include "explore/Reduction.h"
#include "explore/Sharded.h"
#include "explore/TraceTrie.h"
#include "nps/NPMachine.h"
#include "support/Hashing.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <memory>
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
static Statistic NumPooledThreads("explore", "pooled_threads",
                                  "distinct thread states pooled");
static Statistic NumPooledLists("explore", "pooled_lists",
                                "distinct (location, message list) "
                                "contents pooled");

namespace {

/// A canonical state by component ids: Cur and SwitchAllowed packed into
/// one word, then one pooled thread-state id per thread and one pooled
/// message-list id per Memory::storage() index. An id is the address of
/// the pooled copy, so ids are equal iff the components are equal, and
/// the two pools hold distinct objects, so a thread id never equals a
/// list id: two states have equal keys iff they are equal.
struct StateKey {
  const std::uintptr_t *Words;
  std::size_t Len;
  std::size_t Hash; ///< the finalized fold of the words

  bool operator==(const StateKey &O) const {
    return Len == O.Len && std::equal(Words, Words + Len, O.Words);
  }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey &K) const { return K.Hash; }
};

struct StateSlot;
/// An interned canonical state: its key plus the slot holding its full
/// state until expansion and then its expansion. Entries never move, so
/// the address is the id.
using StateEntry = std::pair<const StateKey, StateSlot>;

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

struct StateSlot {
  /// The full state, from interning until its expansion moves it out.
  std::unique_ptr<MachineState> Pending;
  Expansion X;
};

/// A hash-consing pool: one copy of each distinct value per explore()
/// call, striped like the state table. Set nodes never move, so a pooled
/// copy's address is the value's id. \p HashT must give finalized hashes
/// (the shard is picked by the high bits).
template <typename T, typename HashT, typename EqT = std::equal_to<T>>
class Pool {
public:
  Pool(unsigned Jobs, Statistic &Distinct) : Shards(Jobs), Distinct(Distinct) {}

  /// The pooled copy of \p V, added (and counted) on first use.
  const T &intern(const T &V) {
    Shard &S = Shards.forHash(HashT{}(V));
    std::lock_guard<std::mutex> Lock(S.M);
    auto [It, New] = S.Set.insert(V);
    if (New)
      ++Distinct;
    return *It;
  }

private:
  struct Shard {
    std::mutex M;
    std::unordered_set<T, HashT, EqT> Set;
  };
  Sharded<Shard> Shards;
  Statistic &Distinct;
};

struct ThreadStateHash {
  std::size_t operator()(const ThreadState &TS) const { return TS.hash(); }
};

/// A location's message list with its content hash, the list pool's
/// element. Holding the Loc keeps the list alive (and, being a second
/// owner, stops copy-on-write from ever writing it in place).
struct PooledList {
  Memory::Loc L;
  std::size_t Hash;

  static PooledList of(const Memory::Loc &L) {
    std::size_t Seed = L.var().raw();
    for (const Message &M : L.messages())
      hashCombine(Seed, M.hash());
    return {L, hashFinalize(Seed)};
  }
};

struct PooledListHash {
  std::size_t operator()(const PooledList &P) const { return P.Hash; }
};

struct PooledListEq {
  bool operator()(const PooledList &A, const PooledList &B) const {
    return A.L.var() == B.L.var() &&
           (A.L.sharesListWith(B.L) || A.L.messages() == B.L.messages());
  }
};

template <typename T> std::uintptr_t idOf(const T &Pooled) {
  return reinterpret_cast<std::uintptr_t>(&Pooled);
}

/// Append-only storage for one shard's key words. Blocks never move, so
/// a stored key stays valid for the table's lifetime.
class KeyArena {
public:
  const std::uintptr_t *store(const std::vector<std::uintptr_t> &W) {
    if (Blocks.empty() || Used + W.size() > BlockWords) {
      Blocks.emplace_back(new std::uintptr_t[std::max(BlockWords, W.size())]);
      Used = 0;
    }
    std::uintptr_t *Out = Blocks.back().get() + Used;
    std::copy(W.begin(), W.end(), Out);
    Used += W.size();
    return Out;
  }

private:
  static constexpr std::size_t BlockWords = 512;
  std::vector<std::unique_ptr<std::uintptr_t[]>> Blocks;
  std::size_t Used = 0;
};

/// The per-explore() table of canonical states, striped like the visited
/// table, with the thread-state and message-list pools its keys point
/// into. expand() fills an entry's expansion exactly once however many
/// nodes (and workers) reach its state.
class StateTable {
public:
  explicit StateTable(unsigned Jobs)
      : Threads(Jobs, NumPooledThreads), Lists(Jobs, NumPooledLists),
        Shards(Jobs) {}

  /// The entry of canonical state \p S, created on first use (\p S is
  /// moved into it only then). \p Parent is the state \p S is a successor
  /// of and \p ParentKey its key, or both null for a root. \p Words is the
  /// caller's scratch.
  StateEntry &intern(MachineState &&S, const MachineState *Parent,
                     const StateKey *ParentKey,
                     std::vector<std::uintptr_t> &Words);

  /// \p E's expansion, computed by \p Fill(State, Key, Expansion &) on
  /// first call. Concurrent callers wait for the one that fills it. The
  /// full state is dropped once the expansion is done.
  template <typename FillT>
  const Expansion &expand(StateEntry &E, FillT &&Fill) {
    StateSlot &Slot = E.second;
    std::call_once(Slot.X.Once, [&] {
      std::unique_ptr<MachineState> S = std::move(Slot.Pending);
      Fill(*S, E.first, Slot.X);
      Expanded.fetch_add(1, std::memory_order_relaxed);
    });
    return Slot.X;
  }

  /// Number of entries expanded so far.
  std::uint64_t expanded() const {
    return Expanded.load(std::memory_order_relaxed);
  }

private:
  struct Shard {
    std::mutex M;
    std::unordered_map<StateKey, StateSlot, StateKeyHash> Map;
    KeyArena Arena;
  };
  Pool<ThreadState, ThreadStateHash> Threads;
  Pool<PooledList, PooledListHash, PooledListEq> Lists;
  Sharded<Shard> Shards;
  std::atomic<std::uint64_t> Expanded{0};
};

StateEntry &StateTable::intern(MachineState &&S, const MachineState *Parent,
                               const StateKey *ParentKey,
                               std::vector<std::uintptr_t> &Words) {
  const std::vector<ThreadState> &Ts = S.Threads;
  const std::vector<Memory::Loc> &Locs = S.Mem.storage();
  // A step changes one thread and at most one location, so a child takes
  // its parent's id for every component it still shares with the parent:
  // a thread state equal to the parent's (memoized hashes first), a list
  // that is the parent's allocation. Only the rest probe a pool.
  if (Parent && (Parent->Threads.size() != Ts.size() ||
                 Parent->Mem.storage().size() != Locs.size()))
    Parent = nullptr;
  Words.resize(1 + Ts.size() + Locs.size());
  Words[0] = std::uintptr_t(S.Cur) << 1 | std::uintptr_t(S.SwitchAllowed);
  for (std::size_t T = 0; T < Ts.size(); ++T) {
    std::size_t W = 1 + T;
    const ThreadState *P = Parent ? &Parent->Threads[T] : nullptr;
    Words[W] = P && Ts[T].hash() == P->hash() && Ts[T] == *P
                   ? ParentKey->Words[W]
                   : idOf(Threads.intern(Ts[T]));
  }
  for (std::size_t I = 0; I < Locs.size(); ++I) {
    std::size_t W = 1 + Ts.size() + I;
    if (Parent && Locs[I].sharesListWith(Parent->Mem.storage()[I])) {
      Words[W] = ParentKey->Words[W];
      continue;
    }
    const PooledList &P = Lists.intern(PooledList::of(Locs[I]));
    // Point the state at the pooled allocation, so its own children
    // share the list with it by pointer and skip the pool.
    if (!Locs[I].sharesListWith(P.L))
      S.Mem.installListAt(I, P.L);
    Words[W] = idOf(P);
  }

  std::size_t H = 0;
  for (std::uintptr_t W : Words)
    hashCombine(H, W);
  StateKey Probe{Words.data(), Words.size(), hashFinalize(H)};
  Shard &Sh = Shards.forHash(Probe.Hash);
  std::lock_guard<std::mutex> Lock(Sh.M);
  auto It = Sh.Map.find(Probe);
  if (It != Sh.Map.end())
    return *It;
  StateKey Key{Sh.Arena.store(Words), Words.size(), Probe.Hash};
  StateEntry &E = *Sh.Map.try_emplace(Key).first;
  E.second.Pending = std::make_unique<MachineState>(std::move(S));
  return E;
}

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
  std::vector<std::uintptr_t> KeyBuf;    // a child's key while interned
  ReducerScratch Scratch;                // reduction-layer buffers
};

} // namespace

/// Expands canonical state \p S, whose key is \p Key, into \p X: classifies
/// it (done/blocked) or enumerates its successors and interns each child
/// in \p States. \p Red is null for unreduced exploration; otherwise it
/// may replace the successors by one fused successor and projects each
/// child. Nothing here depends on the trace a node carries, so the
/// explorer runs this once per canonical state, never per node.
static void expandState(const Machine &M, const Reducer *Red,
                        const MachineState &S, const StateKey &Key,
                        Expansion &X, PartialBehavior &Scr,
                        StateTable &States) {
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
      E.Child = &States.intern(std::move(Succ.State), &S, &Key, Scr.KeyBuf);
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
  Node Root{&States.intern(std::move(Start), nullptr, nullptr,
                           Partials[0].KeyBuf),
            Traces.empty()};

  // Per node only ids move: the state's expansion is looked up (computed
  // by the first node to reach it), and the node's own trace decides
  // where its edges lead and which sinks it lands in.
  auto Visit = [&](unsigned W, const Node &N, auto &&Push) {
    ++NumExploreNodes;
    PartialBehavior &Sink = Partials[W];
    Sink.Prefixes.insert(N.Outs);
    const Expansion &X =
        States.expand(*N.State, [&](const MachineState &S, const StateKey &K,
                                    Expansion &Into) {
          expandState(M, Red ? &*Red : nullptr, S, K, Into, Sink, States);
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
