//===- tests/explore/ParallelEquivalenceTest.cpp - jobs=N == jobs=1 --------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The exploration engine's worker-count contract: for every program,
/// machine, and worker count, explore(M, {Jobs=K}) returns a BehaviorSet
/// *identical* to explore(M, {Jobs=1}) — sets, Exhausted flag, and the
/// NodesVisited/UniqueStates/Transitions counters alike. Swept over the
/// whole litmus registry and random programs for K ∈ {2, 4, 8}, plus
/// bound-semantics checks under concurrency and the one-worker contract
/// (the search stays on the calling thread).
///
/// This binary is also the ThreadSanitizer target: build with
/// -DCMAKE_CXX_FLAGS=-fsanitize=thread and run it to race-check the
/// engine (see DESIGN.md §7).
///
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Sharded.h"
#include "explore/Refinement.h"
#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"
#include "nps/NPMachine.h"
#include "race/RWRace.h"
#include "race/WWRace.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

namespace psopt {
namespace {

const unsigned JobCounts[] = {2, 4, 8};

void expectParallelMatches(const Program &P, const StepConfig &SC) {
  ExploreConfig Seq;
  BehaviorSet BaseInter = exploreInterleaving(P, SC, Seq);
  BehaviorSet BaseNP = exploreNonPreemptive(P, SC, Seq);
  for (unsigned K : JobCounts) {
    ExploreConfig Par;
    Par.Jobs = K;
    EXPECT_TRUE(exploreInterleaving(P, SC, Par) == BaseInter)
        << "interleaving, jobs=" << K;
    EXPECT_TRUE(exploreNonPreemptive(P, SC, Par) == BaseNP)
        << "non-preemptive, jobs=" << K;
  }
}

TEST(ParallelEquivalenceTest, AllLitmusTests) {
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    expectParallelMatches(T.Prog, T.SuggestedConfig());
  }
}

TEST(ParallelEquivalenceTest, RandomPrograms) {
  for (unsigned Seed = 0; Seed < 10; ++Seed) {
    RandomProgramConfig C;
    C.Seed = 7000 + Seed;
    C.NumThreads = 2 + Seed % 2;
    C.InstrsPerThread = 4;
    C.NumNaVars = 2;
    C.NumAtomicVars = 1;
    C.AllowCas = (Seed % 3 == 0);
    C.AllowBranch = true;
    C.ExclusiveNaWriters = (Seed % 2 == 0); // include racy programs
    Program P = generateRandomProgram(C);
    StepConfig SC;
    SC.EnablePromises = (Seed % 2 == 0);
    SCOPED_TRACE("seed " + std::to_string(C.Seed));
    expectParallelMatches(P, SC);
  }
}

/// An interleaving machine that records which threads enumerate
/// successors.
class ThreadRecordingMachine : public InterleavingMachine {
public:
  using InterleavingMachine::InterleavingMachine;

  void successors(const MachineState &S,
                  std::vector<MachineSuccessor> &Out) const override {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Callers.insert(std::this_thread::get_id());
    }
    InterleavingMachine::successors(S, Out);
  }

  std::set<std::thread::id> callers() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Callers;
  }

private:
  mutable std::mutex Mutex;
  mutable std::set<std::thread::id> Callers;
};

TEST(ParallelEquivalenceTest, OneWorkerRunsOnCallingThread) {
  // At Jobs=1 the pool spawns nothing: every successors() call, in the
  // explorer and in the race checker, happens on the calling thread.
  const LitmusTest &T = litmus("sb");
  const std::set<std::thread::id> Self = {std::this_thread::get_id()};
  for (bool Reduce : {true, false}) {
    ThreadRecordingMachine M(T.Prog, T.SuggestedConfig());
    ExploreConfig C;
    C.Reduce = Reduce;
    EXPECT_TRUE(explore(M, C).Exhausted);
    EXPECT_EQ(M.callers(), Self) << "reduce=" << Reduce;
  }
  ThreadRecordingMachine M(T.Prog, T.SuggestedConfig());
  EXPECT_TRUE(checkRaceFreedom(M, RaceCheckConfig{}, stateHasWWRace).Exact);
  EXPECT_EQ(M.callers(), Self);
}

TEST(ParallelEquivalenceTest, OneWorkerUsesOneShard) {
  EXPECT_EQ(parallelBfsShardCount(1), 1u);
  EXPECT_EQ(parallelBfsShardCount(0), 1u);
  EXPECT_GT(parallelBfsShardCount(2), 1u);
}

TEST(ParallelEquivalenceTest, RaceNodeBoundTripsAtOneWorker) {
  // The race checker's node bound at Jobs=1: exactly MaxNodes states are
  // checked and the verdict is flagged inexact.
  const LitmusTest &T = litmus("sb");
  RaceCheckResult Full = checkWWRaceFreedom(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(Full.RaceFree);
  ASSERT_TRUE(Full.Exact);
  ASSERT_GT(Full.StatesChecked, 8u);
  RaceCheckConfig Tight;
  Tight.MaxNodes = Full.StatesChecked / 2;
  RaceCheckResult R = checkWWRaceFreedom(T.Prog, T.SuggestedConfig(), Tight);
  EXPECT_EQ(R.StatesChecked, Tight.MaxNodes);
  EXPECT_FALSE(R.Exact);
  EXPECT_TRUE(R.RaceFree);
}

TEST(ParallelEquivalenceTest, MissingThreadEntryAborts) {
  // explore() short-circuits before the pool spins up, returning the
  // degenerate abort-only BehaviorSet.
  Program P; // no threads registered → no initial state
  ExploreConfig Par;
  Par.Jobs = 4;
  InterleavingMachine M(P, StepConfig{});
  BehaviorSet B = explore(M, Par);
  EXPECT_TRUE(B.Abort.count(Trace{}));
  EXPECT_TRUE(B.Prefixes.count(Trace{}));
}

TEST(ParallelEquivalenceTest, NodeBoundVerdictIsSoundUnderConcurrency) {
  // When the node bound trips, every worker count must (a) report
  // Exhausted=false and (b) have expanded exactly MaxNodes nodes — the
  // ticket counter makes the cutoff deterministic even with 8 workers.
  const LitmusTest &T = litmus("sb");
  BehaviorSet Full = exploreInterleaving(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(Full.Exhausted);
  ASSERT_GT(Full.NodesVisited, 8u);
  for (unsigned K : JobCounts) {
    ExploreConfig Tight;
    Tight.Jobs = K;
    Tight.MaxNodes = Full.NodesVisited / 2;
    BehaviorSet B = exploreInterleaving(T.Prog, T.SuggestedConfig(), Tight);
    EXPECT_FALSE(B.Exhausted) << "jobs=" << K;
    EXPECT_EQ(B.NodesVisited, Tight.MaxNodes) << "jobs=" << K;
    // And at the exact graph size the bound must NOT trip.
    ExploreConfig Exact;
    Exact.Jobs = K;
    Exact.MaxNodes = Full.NodesVisited;
    EXPECT_TRUE(exploreInterleaving(T.Prog, T.SuggestedConfig(), Exact) ==
                Full)
        << "jobs=" << K;
  }
}

TEST(ParallelEquivalenceTest, RaceVerdictsMatchAcrossJobs) {
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    RaceCheckConfig Seq;
    RaceCheckResult Base = checkWWRaceFreedom(T.Prog, T.SuggestedConfig(), Seq);
    EXPECT_EQ(Base.RaceFree, T.IsWWRaceFree);
    for (unsigned K : JobCounts) {
      RaceCheckConfig Par;
      Par.Jobs = K;
      RaceCheckResult R = checkWWRaceFreedom(T.Prog, T.SuggestedConfig(), Par);
      EXPECT_EQ(R.RaceFree, Base.RaceFree) << "jobs=" << K;
      EXPECT_EQ(R.Exact, Base.Exact) << "jobs=" << K;
      if (Base.RaceFree) { // full sweep: state counts must agree exactly
        EXPECT_EQ(R.StatesChecked, Base.StatesChecked) << "jobs=" << K;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, RefinementForwardsJobs) {
  // The program-level refinement/equivalence entry points accept the
  // explore config and give the same verdict at every worker count.
  const LitmusTest &T = litmus("sb");
  for (unsigned K : JobCounts) {
    ExploreConfig C;
    C.Jobs = K;
    EXPECT_TRUE(checkRefinement(T.Prog, T.Prog, T.SuggestedConfig(), C).Holds);
    RefinementResult R =
        checkMachineEquivalence(T.Prog, T.SuggestedConfig(), C);
    EXPECT_TRUE(R.Holds);
    EXPECT_TRUE(R.Exact);
  }
}

} // namespace
} // namespace psopt
