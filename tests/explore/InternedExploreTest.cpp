//===- tests/explore/InternedExploreTest.cpp - Expand each state once -----===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The explorer interns canonical states and output traces: a search node
/// is a (state entry, trace entry) id pair, and a state's expansion is
/// computed once however many nodes reach it. Checked here:
///
///  * against a plain reference search over (state, trace) values, on
///    every program of the step-property set (promises off, and on where
///    the program's config enables them), reduce on and off, at one and
///    eight workers, on both machines, for every run that exhausts a
///    2000-node budget: the
///    machine's successor relation runs exactly once per state that needs
///    it, UniqueStates counts the distinct states, the per-node counters
///    (nodes, transitions, reduction.*) match the reference, and the
///    component pools hold exactly the distinct thread states and
///    (location, message list) contents of the reachable states
///    (explore.pooled_threads, explore.pooled_lists), and the four trace
///    sets read off the trie's marks equal the reference's;
///  * a state reached under hundreds of traces is visited once per trace;
///  * a bound cut leaves the traces of unvisited nodes out of the sets;
///  * the MaxOuts cut is decided per node, not per state;
///  * the trace trie: equal traces share an id, and materialization
///    restores the trace, also under concurrent interning; only marked
///    traces are collected;
///  * StateGraph::reach is true once per (entry, tag) pair, also under
///    concurrent marking.
///
/// Part of the ThreadSanitizer CI job: the state table and the trie are
/// shared by every worker.
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "explore/Explorer.h"
#include "explore/Reduction.h"
#include "explore/StateGraph.h"
#include "explore/TraceTrie.h"
#include "lang/Parser.h"
#include "nps/NPMachine.h"
#include "support/ReachableStates.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace psopt {
namespace {

/// A machine that counts its successor-relation calls.
template <typename BaseT> class CountingMachine : public BaseT {
public:
  using BaseT::BaseT;
  void successors(const MachineState &S,
                  std::vector<MachineSuccessor> &Out) const override {
    Calls.fetch_add(1, std::memory_order_relaxed);
    BaseT::successors(S, Out);
  }
  mutable std::atomic<std::uint64_t> Calls{0};
};

/// What explore() should report for a search that runs to exhaustion.
struct Reference {
  std::uint64_t Nodes = 0, Transitions = 0;
  std::uint64_t States = 0, FullExpansions = 0;
  std::uint64_t AmpleNodes = 0, FusedSteps = 0, SleepSkips = 0;
  std::uint64_t DistinctThreads = 0, DistinctLists = 0;
  std::set<Trace> Done, Abort, Blocked, Prefixes;
};

/// The trace sets of \p B equal those of \p R.
void expectSameTraces(const BehaviorSet &B, const Reference &R) {
  EXPECT_EQ(B.Done, R.Done);
  EXPECT_EQ(B.Abort, R.Abort);
  EXPECT_EQ(B.Blocked, R.Blocked);
  EXPECT_EQ(B.Prefixes, R.Prefixes);
}

struct ThreadStateHash {
  std::size_t operator()(const ThreadState &TS) const { return TS.hash(); }
};

using LocContent = std::pair<VarId, MessageList>;

struct LocContentHash {
  std::size_t operator()(const LocContent &L) const {
    std::size_t Seed = L.first.raw();
    for (const Message &M : L.second)
      hashCombine(Seed, M.hash());
    return Seed;
  }
};

/// A breadth-first search over (state, trace) values that expands every
/// state the way explore() does, without interning or a worker pool.
/// Returns nullopt when the search exceeds \p Limit nodes.
std::optional<Reference> referenceSearch(const Machine &M, bool Reduce,
                                         std::uint64_t Limit) {
  std::optional<Reducer> Red;
  if (Reduce && M.supportsReduction())
    Red.emplace(M);
  struct StateFacts {
    bool Done = false;
    FusedChain Chain;
    std::vector<std::pair<MachineState, MachineEvent>> Succs;
  };
  std::unordered_map<MachineState, StateFacts, MachineStateHash> Facts;
  auto Expand = [&](const MachineState &S) -> const StateFacts & {
    auto [It, New] = Facts.try_emplace(S);
    StateFacts &F = It->second;
    if (!New)
      return F;
    if (S.allTerminated()) {
      F.Done = true;
      return F;
    }
    std::vector<MachineSuccessor> Succs(1);
    // A fresh scratch per state: an empty chain memo, so every chain is
    // walked here and the explorer's memo is checked, not replayed.
    ReducerScratch Scr;
    if (Red)
      F.Chain = Red->selectFused(S, Scr, Succs[0]);
    if (F.Chain.Len == 0)
      M.successors(S, Succs);
    for (MachineSuccessor &Succ : Succs) {
      if (Red)
        Red->project(Succ.State);
      canonicalizeState(Succ.State);
      F.Succs.emplace_back(std::move(Succ.State), Succ.Ev);
    }
    return F;
  };

  Reference R;
  MachineState Start = *M.initial();
  if (Red)
    Red->project(Start);
  canonicalizeState(Start);
  std::unordered_map<MachineState, std::set<Trace>, MachineStateHash> Seen;
  auto FirstVisit = [&](const MachineState &S, const Trace &T) {
    return Seen[S].insert(T).second;
  };
  std::deque<std::pair<MachineState, Trace>> Work;
  FirstVisit(Start, {});
  Work.emplace_back(std::move(Start), Trace{});
  while (!Work.empty()) {
    auto [S, T] = std::move(Work.front());
    Work.pop_front();
    if (++R.Nodes > Limit)
      return std::nullopt;
    const StateFacts &F = Expand(S);
    R.Prefixes.insert(T);
    if (F.Done)
      R.Done.insert(T);
    else if (F.Succs.empty())
      R.Blocked.insert(T);
    if (F.Chain.Len) {
      ++R.AmpleNodes;
      R.FusedSteps += F.Chain.Len;
      R.SleepSkips += F.Chain.SleepSkips;
    }
    R.Transitions += F.Succs.size();
    for (const auto &[Child, Ev] : F.Succs) {
      if (Ev.K == MachineEvent::Kind::Abort) {
        R.Abort.insert(T);
        continue;
      }
      Trace ChildOuts = T;
      if (Ev.K == MachineEvent::Kind::Out)
        ChildOuts.push_back(Ev.OutVal);
      if (FirstVisit(Child, ChildOuts))
        Work.emplace_back(Child, std::move(ChildOuts));
    }
  }
  R.States = Facts.size();
  std::unordered_set<ThreadState, ThreadStateHash> Threads;
  std::unordered_set<LocContent, LocContentHash> Lists;
  for (const auto &[S, F] : Facts) {
    R.FullExpansions += !F.Done && F.Chain.Len == 0;
    Threads.insert(S.Threads.begin(), S.Threads.end());
    for (const Memory::Loc &L : S.Mem.storage())
      Lists.emplace(L.var(), L.messages());
  }
  R.DistinctThreads = Threads.size();
  R.DistinctLists = Lists.size();
  return R;
}

struct SweepTotals {
  unsigned Checked = 0;
  std::uint64_t Nodes = 0, Calls = 0;
};

template <typename MachineT>
void expectEachStateExpandedOnce(const NamedProgram &NP, const StepConfig &SC,
                                 bool Reduce, unsigned Jobs,
                                 SweepTotals &Totals) {
  CountingMachine<MachineT> M(NP.Prog, SC);
  if (!M.initial())
    return;
  ExploreConfig C;
  C.Reduce = Reduce;
  C.Jobs = Jobs;
  C.MaxNodes = 2000;
  std::uint64_t Ample0 = detail::numReductionAmpleNodes().value();
  std::uint64_t Fused0 = detail::numReductionFusedSteps().value();
  std::uint64_t Skips0 = detail::numReductionSleepSkips().value();
  const Statistic &PooledThreads = *findStatistic("explore", "pooled_threads");
  const Statistic &PooledLists = *findStatistic("explore", "pooled_lists");
  std::uint64_t Threads0 = PooledThreads.value();
  std::uint64_t Lists0 = PooledLists.value();
  BehaviorSet B = explore(M, C);
  if (!B.Exhausted)
    return;
  std::uint64_t Calls = M.Calls.load();
  std::optional<Reference> R =
      referenceSearch(MachineT(NP.Prog, SC), Reduce, C.MaxNodes);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(B.NodesVisited, R->Nodes);
  EXPECT_EQ(B.Transitions, R->Transitions);
  EXPECT_EQ(B.UniqueStates, R->States);
  EXPECT_EQ(Calls, R->FullExpansions);
  EXPECT_EQ(detail::numReductionAmpleNodes().value() - Ample0, R->AmpleNodes);
  EXPECT_EQ(detail::numReductionFusedSteps().value() - Fused0, R->FusedSteps);
  EXPECT_EQ(detail::numReductionSleepSkips().value() - Skips0, R->SleepSkips);
  EXPECT_EQ(PooledThreads.value() - Threads0, R->DistinctThreads);
  EXPECT_EQ(PooledLists.value() - Lists0, R->DistinctLists);
  expectSameTraces(B, *R);
  ++Totals.Checked;
  Totals.Nodes += B.NodesVisited;
  Totals.Calls += Calls;
}

TEST(InternedExploreTest, EachStateExpandsOnce) {
  SweepTotals Totals;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    // Promises off for every program; on where the program's own config
    // enables them (litmus tests that need promises, odd random seeds).
    for (bool Promises : {false, true}) {
      if (Promises && !NP.Config.EnablePromises)
        continue;
      StepConfig SC = NP.Config;
      SC.EnablePromises = Promises;
      for (unsigned Jobs : {1u, 8u}) {
        SCOPED_TRACE(NP.Name + (Promises ? " promises" : "") + " jobs=" +
                     std::to_string(Jobs));
        for (bool Reduce : {true, false})
          expectEachStateExpandedOnce<InterleavingMachine>(NP, SC, Reduce,
                                                           Jobs, Totals);
        expectEachStateExpandedOnce<NonPreemptiveMachine>(NP, SC, false, Jobs,
                                                          Totals);
      }
    }
  }
  EXPECT_GT(Totals.Checked, 200u);
  // States are reached under several traces, so expanding per node would
  // have run the successor relation more often than this.
  EXPECT_LT(Totals.Calls, Totals.Nodes);
}

TEST(InternedExploreTest, ManyTracesIntoOneState) {
  // Two threads that only print: every interleaving of their prints is a
  // trace, and all C(12, 6) = 924 of them end in the one final state.
  Program P = parseProgramOrDie(R"(
    func f { block 0: print(1); print(1); print(1); print(1); print(1);
             print(1); ret; }
    func g { block 0: print(2); print(2); print(2); print(2); print(2);
             print(2); ret; }
    thread f; thread g;)");
  for (bool Reduce : {true, false}) {
    InterleavingMachine M(P, StepConfig{});
    std::optional<Reference> R = referenceSearch(M, Reduce, 100'000);
    ASSERT_TRUE(R.has_value());
    ASSERT_EQ(R->Done.size(), 924u);
    for (unsigned Jobs : {1u, 8u}) {
      SCOPED_TRACE(std::string(Reduce ? "reduce" : "no reduce") +
                   " jobs=" + std::to_string(Jobs));
      ExploreConfig C;
      C.Reduce = Reduce;
      C.Jobs = Jobs;
      BehaviorSet B = explore(M, C);
      EXPECT_TRUE(B.Exhausted);
      EXPECT_EQ(B.NodesVisited, R->Nodes);
      EXPECT_EQ(B.UniqueStates, R->States);
      EXPECT_EQ(B.Transitions, R->Transitions);
      expectSameTraces(B, *R);
    }
  }
}

TEST(InternedExploreTest, BoundCutLeavesUnvisitedTracesOut) {
  // Both threads print at their first step, so the root's children are
  // reached under the interned traces [1] and [2]. With MaxNodes = 1 only
  // the root is visited, and only its trace may reach the sets.
  Program P = parseProgramOrDie(R"(func f { block 0: print(1); ret; }
    func g { block 0: print(2); ret; }
    thread f; thread g;)");
  for (bool Reduce : {true, false})
    for (unsigned Jobs : {1u, 8u}) {
      SCOPED_TRACE(std::string(Reduce ? "reduce" : "no reduce") +
                   " jobs=" + std::to_string(Jobs));
      ExploreConfig C;
      C.MaxNodes = 1;
      C.Reduce = Reduce;
      C.Jobs = Jobs;
      BehaviorSet B = exploreInterleaving(P, StepConfig{}, C);
      EXPECT_FALSE(B.Exhausted);
      EXPECT_EQ(B.NodesVisited, 1u);
      EXPECT_EQ(B.Prefixes, std::set<Trace>{Trace{}});
      EXPECT_TRUE(B.Done.empty());
      EXPECT_TRUE(B.Abort.empty());
      EXPECT_TRUE(B.Blocked.empty());
    }
}

TEST(InternedExploreTest, MaxOutsCutsPerNode) {
  // The loop head is one canonical state, reached under the traces [],
  // [7] and [7, 7]. With MaxOuts = 2 its print edge is followed from the
  // node with trace [7] and cut at the node with trace [7, 7].
  Program P = parseProgramOrDie(R"(func f { block 0: print(7); jmp 0; }
    thread f;)");
  for (bool Reduce : {true, false}) {
    SCOPED_TRACE(Reduce ? "reduce" : "no reduce");
    CountingMachine<InterleavingMachine> M(P, StepConfig{});
    ExploreConfig C;
    C.MaxOuts = 2;
    C.MaxNodes = 100; // an explorer that never cut the loop stops here
    C.Reduce = Reduce;
    BehaviorSet B = explore(M, C);
    EXPECT_FALSE(B.Exhausted);
    EXPECT_EQ(B.Prefixes, (std::set<Trace>{{}, {7}, {7, 7}}));
    EXPECT_EQ(B.NodesVisited, 5u);
    EXPECT_EQ(B.UniqueStates, 2u);
    // Unreduced, both states run the successor relation once; reduced,
    // the jump is fused and only the loop head does.
    EXPECT_EQ(M.Calls.load(), Reduce ? 1u : 2u);
  }
}

/// The id of \p T, built the way the explorer builds it: one extension
/// per print.
TraceTrie::Id internTrace(TraceTrie &Trie, const Trace &T) {
  TraceTrie::Id Id = Trie.empty();
  for (Val V : T)
    Id = Trie.extend(Id, V);
  return Id;
}

TEST(InternedExploreTest, TraceTrieRoundTrips) {
  TraceTrie Trie(1);
  const std::vector<Trace> Traces = {
      {}, {0}, {1}, {1, 2}, {2, 1}, {1, 2, 3}, {-5, 0, 7}, {0, 0, 0, 0}};
  std::set<TraceTrie::Id> Ids;
  for (const Trace &T : Traces) {
    TraceTrie::Id Id = internTrace(Trie, T);
    EXPECT_EQ(internTrace(Trie, T), Id);
    EXPECT_EQ(TraceTrie::materialize(Id), T);
    EXPECT_EQ(Id->Len, T.size());
    Ids.insert(Id);
  }
  EXPECT_EQ(Ids.size(), Traces.size());
  EXPECT_EQ(internTrace(Trie, {}), Trie.empty());
  EXPECT_EQ(Trie.extend(internTrace(Trie, {1}), 2),
            internTrace(Trie, {1, 2}));
}

TEST(InternedExploreTest, TraceTrieIsSharedAcrossThreads) {
  // Eight writers intern the same traces in different orders into one
  // trie striped for eight jobs; every writer must see the same ids.
  TraceTrie Trie(8);
  std::vector<Trace> Traces;
  for (Val A = 0; A < 8; ++A)
    for (Val B = 0; B < 8; ++B)
      Traces.push_back({A, B, static_cast<Val>(A * B)});
  // Writer W visits the traces in the order K = (5 * I + W) mod 64.
  auto Order = [&](unsigned W, std::size_t I) {
    return (I * 5 + W) % Traces.size();
  };
  std::vector<std::vector<TraceTrie::Id>> Seen(8);
  std::vector<std::thread> Writers;
  for (unsigned W = 0; W < 8; ++W)
    Writers.emplace_back([&, W] {
      for (std::size_t I = 0; I < Traces.size(); ++I)
        Seen[W].push_back(internTrace(Trie, Traces[Order(W, I)]));
    });
  for (std::thread &T : Writers)
    T.join();
  for (unsigned W = 0; W < 8; ++W)
    for (std::size_t I = 0; I < Traces.size(); ++I) {
      const Trace &T = Traces[Order(W, I)];
      EXPECT_EQ(Seen[W][I], internTrace(Trie, T));
      EXPECT_EQ(TraceTrie::materialize(Seen[W][I]), T);
    }
}

TEST(InternedExploreTest, TraceTrieCollectsOnlyMarkedTraces) {
  TraceTrie Trie(1);
  TraceTrie::Id One = internTrace(Trie, {1});
  TraceTrie::Id OneTwo = internTrace(Trie, {1, 2});
  internTrace(Trie, {3}); // interned, never marked
  TraceTrie::mark(Trie.empty(), TraceTrie::Prefix);
  TraceTrie::mark(One, TraceTrie::Prefix | TraceTrie::Abort);
  TraceTrie::mark(OneTwo, TraceTrie::Prefix | TraceTrie::Done);
  TraceTrie::mark(OneTwo, TraceTrie::Prefix); // already set
  BehaviorSet B;
  Trie.collect(B);
  EXPECT_EQ(B.Prefixes, (std::set<Trace>{{}, {1}, {1, 2}}));
  EXPECT_EQ(B.Abort, (std::set<Trace>{{1}}));
  EXPECT_EQ(B.Done, (std::set<Trace>{{1, 2}}));
  EXPECT_TRUE(B.Blocked.empty());
}

TEST(InternedExploreTest, ReachIsFirstOncePerPair) {
  // Eight threads mark one entry under the same 64 tags in different
  // orders: each (entry, tag) pair is first for exactly one of them.
  Program P = parseProgramOrDie("func f { block 0: print(1); ret; } thread f;");
  InterleavingMachine M(P, StepConfig{});
  StateGraph G(M, nullptr, 8);
  ExpandScratch Scr;
  StateEntry &Root = G.root(Scr);
  TraceTrie Trie(1);
  std::vector<TraceTrie::Id> Tags{Trie.empty()};
  for (Val V = 0; V < 63; ++V)
    Tags.push_back(Trie.extend(Tags.back(), V));
  std::atomic<unsigned> Firsts{0};
  std::vector<std::thread> Markers;
  for (unsigned W = 0; W < 8; ++W)
    Markers.emplace_back([&, W] {
      for (std::size_t I = 0; I < Tags.size(); ++I)
        Firsts += G.reach(Root, Tags[(I * 5 + W) % Tags.size()]);
    });
  for (std::thread &T : Markers)
    T.join();
  EXPECT_EQ(Firsts.load(), Tags.size());
  EXPECT_FALSE(G.reach(Root, Tags[0]));
  EXPECT_TRUE(G.reach(Root, nullptr));
  EXPECT_FALSE(G.reach(Root, nullptr));
}

} // namespace
} // namespace psopt
