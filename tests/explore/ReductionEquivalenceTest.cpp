//===- tests/explore/ReductionEquivalenceTest.cpp - Reduced == unreduced ---------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The schedule-reduction layer's correctness contract (DESIGN.md §10):
/// exploring with ExploreConfig::Reduce on must produce the same behavior
/// sets — Done/Abort/Blocked/Prefixes and the Exhausted flag — as the
/// exhaustive unreduced exploration, for every litmus test, every checked-
/// in corpus reproducer, and a sweep of random programs; and each Reduce
/// setting must stay bit-identical (counters included) across worker
/// counts. Node counters are *expected* to shrink under reduction — that
/// is the point — so cross-setting comparisons use sameBehaviors, while
/// cross-worker-count comparisons at a fixed setting use full equality.
///
/// This binary is also a ThreadSanitizer target (with the parallel and
/// cert-cache suites): the jobs=2/8 reduced runs race-check the shared
/// Reducer against the worker pool.
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "explore/Explorer.h"
#include "explore/Reduction.h"
#include "fuzz/Corpus.h"
#include "fuzz/Shrinker.h"
#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"
#include "litmus/ScaleWorkload.h"
#include "ps/ThreadStep.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

const unsigned JobCounts[] = {2, 8};

/// Reduced and unreduced exploration agree on the behavior sets; each
/// setting is bit-identical across worker counts.
void expectReductionSound(const Program &P, const StepConfig &SC) {
  ExploreConfig On, Off;
  On.Reduce = true;
  Off.Reduce = false;
  BehaviorSet ROn = exploreInterleaving(P, SC, On);
  BehaviorSet ROff = exploreInterleaving(P, SC, Off);
  EXPECT_TRUE(ROn.sameBehaviors(ROff)) << "reduce=on vs reduce=off";
  // Reduction only merges and prunes; it can never grow the node graph.
  EXPECT_LE(ROn.NodesVisited, ROff.NodesVisited);
  for (unsigned K : JobCounts) {
    ExploreConfig OnK = On, OffK = Off;
    OnK.Jobs = OffK.Jobs = K;
    EXPECT_TRUE(exploreInterleaving(P, SC, OnK) == ROn)
        << "reduce=on, jobs=" << K;
    EXPECT_TRUE(exploreInterleaving(P, SC, OffK) == ROff)
        << "reduce=off, jobs=" << K;
  }
}

TEST(ReductionEquivalenceTest, AllLitmusTests) {
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    expectReductionSound(T.Prog, T.SuggestedConfig());
  }
}

TEST(ReductionEquivalenceTest, CorpusReproducers) {
  std::vector<std::string> Files = listCorpusFiles(PSOPT_CORPUS_DIR);
  ASSERT_FALSE(Files.empty()) << "corpus dir missing: " PSOPT_CORPUS_DIR;
  for (const std::string &File : Files) {
    std::string Err;
    std::optional<CorpusEntry> E = loadCorpusEntry(File, Err);
    ASSERT_TRUE(E) << Err;
    SCOPED_TRACE(E->Name);
    StepConfig SC;
    SC.EnablePromises = E->Promises;
    expectReductionSound(E->Prog, SC);
    // The recorded refinement verdict replays identically without the
    // reduction.
    ExploreConfig EC;
    EC.Reduce = false;
    EXPECT_TRUE(replayCorpusEntry(*E, EC).Match) << "reduce=off replay";
  }
}

TEST(ReductionEquivalenceTest, RandomPrograms) {
  for (unsigned Seed = 0; Seed < 50; ++Seed) {
    // Promise exploration multiplies the state space, so promise seeds
    // stay two-threaded with a single atomic; the promise-free seeds get
    // the wider shapes (third thread, loops, CAS, races).
    bool Promises = Seed % 5 == 0;
    RandomProgramConfig C;
    C.Seed = 9100 + Seed;
    C.NumThreads = Promises ? 2 : 2 + Seed % 2;
    C.NumNaVars = 2;
    C.NumAtomicVars = Promises ? 1 : 1 + Seed % 2;
    C.AllowCas = (Seed % 3 == 0);
    C.AllowLoop = !Promises && (Seed % 4 == 0);
    C.AllowBranch = !C.AllowLoop;
    C.InstrsPerThread = C.AllowLoop ? 2 : 3;
    C.ExclusiveNaWriters = (Seed % 2 == 0); // include racy programs
    Program P = generateRandomProgram(C);
    StepConfig SC;
    SC.EnablePromises = Promises;
    SCOPED_TRACE("seed " + std::to_string(C.Seed));
    expectReductionSound(P, SC);
  }
}

TEST(ReductionEquivalenceTest, ReductionActuallyPrunes) {
  // A scale workload whose threads are mostly fusible filler: the reduced
  // graph must be well over 5x smaller, and the reduction counters must
  // move. Both runs complete, so the node ratio is exact, not capped.
  ScaleWorkloadConfig WC;
  WC.Seed = 3;
  WC.NumThreads = 3;
  WC.FillerPerThread = 30;
  WC.Skeletons = 1;
  Program P = generateScaleWorkload(WC);
  StepConfig SC;
  SC.EnablePromises = false;
  std::uint64_t Ample0 = detail::numReductionAmpleNodes().value();
  std::uint64_t Skips0 = detail::numReductionSleepSkips().value();
  std::uint64_t Hits0 = detail::numReductionChainMemoHits().value();
  std::uint64_t Misses0 = detail::numReductionChainMemoMisses().value();
  ExploreConfig On, Off;
  On.Reduce = true;
  Off.Reduce = false;
  BehaviorSet ROn = exploreInterleaving(P, SC, On);
  BehaviorSet ROff = exploreInterleaving(P, SC, Off);
  ASSERT_TRUE(ROn.Exhausted);
  ASSERT_TRUE(ROff.Exhausted);
  EXPECT_TRUE(ROn.sameBehaviors(ROff));
  EXPECT_LE(ROn.NodesVisited * 5, ROff.NodesVisited);
  EXPECT_GT(detail::numReductionAmpleNodes().value(), Ample0);
  EXPECT_GT(detail::numReductionSleepSkips().value(), Skips0);
  // Peers move while a thread's chain start stays put: most chains are
  // found in the memo, and every lookup is charged when the pool joins.
  std::uint64_t Hits = detail::numReductionChainMemoHits().value() - Hits0;
  std::uint64_t Misses =
      detail::numReductionChainMemoMisses().value() - Misses0;
  EXPECT_GT(Misses, 0u);
  EXPECT_GT(Hits, Misses);
}

TEST(ReductionEquivalenceTest, ExclusiveWriteFusionShrinksPrivateStoreWorkload) {
  // The bench_scale private-store workload as a regression test: threads
  // made mostly of stores to their own private variables. A reducer
  // without exclusive-write fusion must schedule every store; with it the
  // stores collapse, so the reduced graph must be well over 5x smaller
  // than that reducer's.
  //
  // NodesVisited of this program under the retired --reduce=legacy
  // reducer (reduction on, no static-footprint fusion), measured at commit
  // a1ea4b0 before that mode was removed.
  constexpr std::uint64_t kLegacyNodes = 7956;
  ScaleWorkloadConfig WC;
  WC.Seed = 19;
  WC.NumThreads = 3;
  WC.FillerPerThread = 5;
  WC.PrivateStoresPerThread = 12;
  WC.Skeletons = 1;
  Program P = generateScaleWorkload(WC);
  StepConfig SC;
  SC.EnablePromises = false;
  ExploreConfig On;
  On.Reduce = true;
  BehaviorSet ROn = exploreInterleaving(P, SC, On);
  ASSERT_TRUE(ROn.Exhausted);
  EXPECT_LE(ROn.NodesVisited * 5, kLegacyNodes)
      << "exclusive-write fusion should collapse the private stores";
}

TEST(ReductionEquivalenceTest, TerminatedThreadProjectionMergesStates) {
  // Thread 0's final register depends on which of thread 1's stores it
  // observed, but it never prints — so its terminated states differ only
  // in unreadable residue. The projection must merge them: strictly fewer
  // unique states, identical behavior sets.
  Program P = parseProgramOrDie(R"(var a atomic;
    func t0 { block 0: r := a.rlx; ret; }
    func t1 { block 0: a.rlx := 1; a.rlx := 2; print(7); ret; }
    thread t0; thread t1;)");
  StepConfig SC;
  SC.EnablePromises = false;
  ExploreConfig On, Off;
  On.Reduce = true;
  Off.Reduce = false;
  BehaviorSet ROn = exploreInterleaving(P, SC, On);
  BehaviorSet ROff = exploreInterleaving(P, SC, Off);
  EXPECT_TRUE(ROn.sameBehaviors(ROff));
  EXPECT_LT(ROn.UniqueStates, ROff.UniqueStates);
}

TEST(ReductionEquivalenceTest, NonPreemptiveMachineIsNeverReduced) {
  // Only machines that opt in are reduced; the NP machine's BehaviorSet
  // must be byte-identical whatever the flag says.
  const LitmusTest &T = litmus("mp_rel_acq");
  ExploreConfig On, Off;
  On.Reduce = true;
  Off.Reduce = false;
  EXPECT_TRUE(exploreNonPreemptive(T.Prog, T.SuggestedConfig(), On) ==
              exploreNonPreemptive(T.Prog, T.SuggestedConfig(), Off));
}

TEST(ReductionEquivalenceTest, NodeBoundSemanticsUnderReduction) {
  // The MaxNodes contract (exactly MaxNodes expanded, Exhausted=false)
  // holds on the reduced graph too, at every worker count.
  const LitmusTest &T = litmus("sb");
  BehaviorSet Full = exploreInterleaving(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(Full.Exhausted);
  ASSERT_GT(Full.NodesVisited, 4u);
  for (unsigned K : {1u, 2u, 8u}) {
    ExploreConfig Tight;
    Tight.Jobs = K;
    Tight.MaxNodes = Full.NodesVisited / 2;
    BehaviorSet B = exploreInterleaving(T.Prog, T.SuggestedConfig(), Tight);
    EXPECT_FALSE(B.Exhausted) << "jobs=" << K;
    EXPECT_EQ(B.NodesVisited, Tight.MaxNodes) << "jobs=" << K;
  }
}

/// Both selections at one state chose the same chain and built the same
/// fused successor.
void expectSameSelection(const FusedChain &CA, const MachineSuccessor &A,
                         const FusedChain &CB, const MachineSuccessor &B) {
  EXPECT_EQ(CA.Len, CB.Len);
  EXPECT_EQ(CA.SleepSkips, CB.SleepSkips);
  if (CA.Len == 0 || CB.Len == 0)
    return;
  EXPECT_EQ(A.Ev.K, B.Ev.K);
  EXPECT_EQ(A.Ev.Thread, B.Ev.Thread);
  EXPECT_EQ(A.Ev.OutVal, B.Ev.OutVal);
  EXPECT_TRUE(A.Ev.ThreadEv == B.Ev.ThreadEv);
  EXPECT_TRUE(A.State == B.State);
  EXPECT_EQ(A.State.hash(), B.State.hash());
}

/// Walks up to \p Limit canonical states of \p M — through the full
/// successor relation plus the fused successor when \p Full, else through
/// the reduced graph the explorer expands — and at each compares
/// selectFused through one long-lived scratch, whose memo spans the whole
/// walk, with selectFused through a fresh scratch. Returns the long-lived
/// scratch's memo hits.
std::uint64_t expectMemoTransparent(const Machine &M, bool Full,
                                    std::size_t Limit) {
  if (!M.initial())
    return 0;
  Reducer R(M);
  ReducerScratch Shared;
  MachineState Start = *M.initial();
  R.project(Start);
  canonicalizeState(Start);
  std::vector<MachineSuccessor> Succs;
  forEachReachableState(
      Start, Limit,
      [&](const MachineState &S, std::vector<MachineState> &Next) {
        ReducerScratch Fresh;
        MachineSuccessor A, B;
        FusedChain CA = R.selectFused(S, Shared, A);
        FusedChain CB = R.selectFused(S, Fresh, B);
        expectSameSelection(CA, A, CB, B);
        Succs.clear();
        if (Full || CB.Len == 0)
          M.successors(S, Succs);
        if (CB.Len != 0)
          Succs.push_back(std::move(B));
        for (MachineSuccessor &Succ : Succs) {
          if (Succ.Ev.K == MachineEvent::Kind::Abort)
            continue;
          R.project(Succ.State);
          canonicalizeState(Succ.State);
          Next.push_back(std::move(Succ.State));
        }
      });
  return Shared.MemoHits;
}

TEST(ChainMemoTest, MemoMatchesFreshScratchOnStepPropertyPrograms) {
  // Litmus tests and random programs, promises on and off, fences; each
  // walked through the full relation and again with reservations on.
  std::uint64_t Hits = 0;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    SCOPED_TRACE(NP.Name);
    for (bool Reservations : {false, true}) {
      StepConfig SC = NP.Config;
      SC.EnableReservations = Reservations;
      InterleavingMachine M(NP.Prog, SC);
      Hits += expectMemoTransparent(M, /*Full=*/true, 600);
    }
  }
  EXPECT_GT(Hits, 0u);
}

TEST(ChainMemoTest, MemoMatchesFreshScratchOnPrivateStorePrograms) {
  // The scale private-store programs, where chains are long and fuse
  // stores: their reduced graphs under every promise/reservation setting.
  std::uint64_t Hits = 0;
  for (std::uint64_t Seed : {19u, 23u}) {
    ScaleWorkloadConfig WC;
    WC.Seed = Seed;
    WC.NumThreads = 3;
    WC.FillerPerThread = 5;
    WC.PrivateStoresPerThread = 6;
    WC.Skeletons = 1;
    Program P = generateScaleWorkload(WC);
    for (bool Promises : {false, true})
      for (bool Reservations : {false, true}) {
        SCOPED_TRACE(scaleWorkloadTag(WC) + (Promises ? " promises" : "") +
                     (Reservations ? " reservations" : ""));
        StepConfig SC;
        SC.EnablePromises = Promises;
        SC.EnableReservations = Reservations;
        InterleavingMachine M(P, SC);
        Hits += expectMemoTransparent(M, /*Full=*/false, 1000);
      }
  }
  EXPECT_GT(Hits, 0u);
}

TEST(ChainMemoTest, MemoKeysOnExclusiveMessageLists) {
  // t0 stores what it read of a into its private x, then spins until it
  // reads a == 1. Whether its first read saw 0 or 1, t0 ends up in one
  // thread state (registers and views alike) with x's history differing
  // only in the stored value — and the chain from there reads x back.
  // A memo keyed without t0's exclusive lists would hand the second
  // state the first state's chain.
  Program P = parseProgramOrDie(R"(var a atomic; var x;
    func t0 { block 0: r := a.rlx; x.na := r; r := 0; jmp 1;
              block 1: r := a.rlx; be r == 1, 2, 1;
              block 2: s := x.na; print(s); ret; }
    func t1 { block 0: a.rlx := 1; ret; }
    thread t0; thread t1;)");
  StepConfig SC;
  SC.EnablePromises = false;
  InterleavingMachine M(P, SC);
  Reducer R(M);
  MachineState Start = *M.initial();
  R.project(Start);
  canonicalizeState(Start);
  std::vector<MachineState> States;
  std::vector<MachineSuccessor> Succs;
  forEachReachableState(
      Start, 1000,
      [&](const MachineState &S, std::vector<MachineState> &Next) {
        States.push_back(S);
        M.successors(S, Succs);
        for (MachineSuccessor &Succ : Succs) {
          if (Succ.Ev.K == MachineEvent::Kind::Abort)
            continue;
          R.project(Succ.State);
          canonicalizeState(Succ.State);
          Next.push_back(std::move(Succ.State));
        }
      });

  // Two states whose t0 agrees but whose fused chains of t0 do not.
  const MachineState *S1 = nullptr, *S2 = nullptr;
  for (std::size_t I = 0; I < States.size() && !S1; ++I)
    for (std::size_t J = I + 1; J < States.size() && !S1; ++J) {
      if (!(States[I].Threads[0] == States[J].Threads[0]))
        continue;
      ReducerScratch FI, FJ;
      MachineSuccessor OI, OJ;
      if (R.selectFused(States[I], FI, OI).Len == 0 ||
          R.selectFused(States[J], FJ, OJ).Len == 0 || OI.Ev.Thread != 0 ||
          OJ.Ev.Thread != 0 || OI.State.Threads[0] == OJ.State.Threads[0])
        continue;
      S1 = &States[I];
      S2 = &States[J];
    }
  ASSERT_TRUE(S1 && S2) << "no pair of states with one t0 and two chains";
  EXPECT_FALSE(S1->Mem.messages(VarId("x")) == S2->Mem.messages(VarId("x")));

  ReducerScratch Shared;
  for (const MachineState *S : {S1, S2, S1, S2}) {
    ReducerScratch Fresh;
    MachineSuccessor A, B;
    FusedChain CA = R.selectFused(*S, Shared, A);
    FusedChain CB = R.selectFused(*S, Fresh, B);
    expectSameSelection(CA, A, CB, B);
  }
  EXPECT_EQ(Shared.MemoMisses, 2u);
  EXPECT_EQ(Shared.MemoHits, 2u);
}

TEST(ScaleWorkloadTest, DeterministicAndInRange) {
  for (unsigned Threads : {3u, 4u, 6u}) {
    ScaleWorkloadConfig C;
    C.Seed = 21;
    C.NumThreads = Threads;
    C.FillerPerThread = 60 + 40 * Threads;
    C.Skeletons = 2;
    Program A = generateScaleWorkload(C);
    Program B = generateScaleWorkload(C);
    EXPECT_TRUE(A == B) << "same config must reproduce the same program";
    std::size_t N = programInstructionCount(A);
    EXPECT_GE(N, 200u) << scaleWorkloadTag(C);
    EXPECT_LE(N, 2000u) << scaleWorkloadTag(C);
    EXPECT_EQ(A.threads().size(), Threads);
  }
}

TEST(ScaleWorkloadTest, ShapesAreExploreableWhenTiny) {
  // Every conflict shape generates a valid, explorable program whose
  // reduction stays sound (the big configs are bench-only).
  using Mix = ScaleWorkloadConfig::Mix;
  for (Mix Shape : {Mix::MP, Mix::SB, Mix::LB, Mix::Mixed}) {
    ScaleWorkloadConfig C;
    C.Seed = 5;
    C.NumThreads = 3;
    C.FillerPerThread = 12;
    C.Skeletons = 2;
    C.Shape = Shape;
    SCOPED_TRACE(scaleWorkloadTag(C));
    Program P = generateScaleWorkload(C);
    StepConfig SC;
    SC.EnablePromises = false;
    expectReductionSound(P, SC);
  }
}

TEST(ConflictPredicateTest, ThreadEventsConflict) {
  VarId X("x"), Y("y");
  ThreadEvent RX = ThreadEvent::read(ReadMode::RLX, X, 0);
  ThreadEvent WX = ThreadEvent::write(WriteMode::RLX, X, 1);
  ThreadEvent WY = ThreadEvent::write(WriteMode::RLX, Y, 1);
  EXPECT_TRUE(threadEventsConflict(RX, WX));  // read/write, same location
  EXPECT_TRUE(threadEventsConflict(WX, WX));  // write/write
  EXPECT_FALSE(threadEventsConflict(RX, RX)); // read/read never conflicts
  EXPECT_FALSE(threadEventsConflict(WX, WY)); // different locations
  EXPECT_FALSE(threadEventsConflict(ThreadEvent::tau(), WX));
  EXPECT_FALSE(threadEventsConflict(ThreadEvent::out(3), WX));
  // The promise machinery writes too.
  EXPECT_TRUE(threadEventsConflict(ThreadEvent::promise(X, 1), RX));
  EXPECT_TRUE(threadEventsConflict(
      ThreadEvent::update(ReadMode::ACQ, WriteMode::REL, X, 0, 1), RX));
}

TEST(ConflictPredicateTest, WriteFootprintFollowsCalls) {
  Program P = parseProgramOrDie(R"(var a atomic; var d; var e;
    func leaf { block 0: d.na := 1; ret; }
    func t0 { block 0: r := a.rlx; call leaf, 1;
              block 1: ret; }
    func t1 { block 0: r2 := cas(a, 0, 1, rlx, rlx); e.na := r2; ret; }
    thread t0; thread t1;)");
  std::set<VarId> F0 = computeWriteFootprint(P, FuncId("t0"));
  EXPECT_TRUE(F0.count(VarId("d")));  // through the call
  EXPECT_FALSE(F0.count(VarId("a"))); // loads don't write
  std::set<VarId> F1 = computeWriteFootprint(P, FuncId("t1"));
  EXPECT_TRUE(F1.count(VarId("a"))); // CAS writes
  EXPECT_TRUE(F1.count(VarId("e")));
  EXPECT_FALSE(F1.count(VarId("d")));
}

} // namespace
} // namespace psopt
