//===- tests/explore/WitnessReplayTest.cpp - Stored witnesses re-execute --------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// replayWitness's contract: for every behavior exhaustive exploration
/// reports, findWitness produces a schedule, and re-executing that stored
/// schedule step by step on a fresh machine reaches the recorded behavior.
/// This is the mechanism the fuzzer uses to confirm that a refinement
/// counterexample is a genuinely executable trace, so it is swept across
/// the whole litmus registry here.
///
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Witness.h"
#include "litmus/Litmus.h"
#include "nps/NPMachine.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// Caps witnesses replayed per litmus test so promise-heavy registry
/// entries don't dominate the suite's runtime.
constexpr std::size_t MaxTracesPerKind = 4;

void replayAll(const Machine &M, const std::set<Trace> &Traces,
               Behavior::End Ending) {
  std::size_t Count = 0;
  for (const Trace &T : Traces) {
    if (++Count > MaxTracesPerKind)
      break;
    std::optional<Witness> W = findWitness(M, T, Ending);
    ASSERT_TRUE(W.has_value()) << "no witness for an explored behavior";
    ASSERT_EQ(W->Observed.Outs, T);

    ReplayResult R = replayWitness(M, *W);
    EXPECT_TRUE(R.Ok) << "replay failed: " << R.Error << "\n" << W->str();
    EXPECT_EQ(R.Observed.Outs, T);
    EXPECT_EQ(R.Observed.Ending, Ending);
  }
}

TEST(WitnessReplayTest, AllLitmusBehaviors) {
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    StepConfig SC = T.SuggestedConfig();
    BehaviorSet B = exploreInterleaving(T.Prog, SC);
    ASSERT_TRUE(B.Exhausted);
    InterleavingMachine M(T.Prog, SC);
    replayAll(M, B.Done, Behavior::End::Done);
    replayAll(M, B.Abort, Behavior::End::Abort);
  }
}

TEST(WitnessReplayTest, AllLitmusBehaviorsNonPreemptive) {
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    StepConfig SC = T.SuggestedConfig();
    BehaviorSet B = exploreNonPreemptive(T.Prog, SC);
    ASSERT_TRUE(B.Exhausted);
    NonPreemptiveMachine M(T.Prog, SC);
    replayAll(M, B.Done, Behavior::End::Done);
    replayAll(M, B.Abort, Behavior::End::Abort);
  }
}

TEST(WitnessReplayTest, AllLitmusPrefixesOnBothMachines) {
  // A Partial witness stops right after the last requested print, which
  // is never a thread's final step (ret follows), so the replay ends
  // Partial too.
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    StepConfig SC = T.SuggestedConfig();
    BehaviorSet Inter = exploreInterleaving(T.Prog, SC);
    BehaviorSet NP = exploreNonPreemptive(T.Prog, SC);
    ASSERT_TRUE(Inter.Exhausted && NP.Exhausted);
    InterleavingMachine IM(T.Prog, SC);
    NonPreemptiveMachine NM(T.Prog, SC);
    replayAll(IM, Inter.Prefixes, Behavior::End::Partial);
    replayAll(NM, NP.Prefixes, Behavior::End::Partial);
  }
}

TEST(WitnessReplayTest, TamperedWitnessIsRejected) {
  const LitmusTest &T = litmus("mp_rel_acq");
  StepConfig SC = T.SuggestedConfig();
  InterleavingMachine M(T.Prog, SC);
  BehaviorSet B = exploreInterleaving(T.Prog, SC);
  ASSERT_FALSE(B.Done.empty());
  std::optional<Witness> W =
      findWitness(M, *B.Done.begin(), Behavior::End::Done);
  ASSERT_TRUE(W.has_value());
  ASSERT_FALSE(W->Steps.empty());

  // Rescheduling a step onto a bogus thread must break the replay.
  Witness Bad = *W;
  Bad.Steps.front().Thread = 99;
  ReplayResult R = replayWitness(M, Bad);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step"), std::string::npos);
}

} // namespace
} // namespace psopt
