//===- tests/litmus/RandomPropertyTest.cpp - Property-based sweeps ---------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// Property-based checks of the paper's metatheorems on randomly generated
/// programs (seeded, deterministic):
///
///  * Thm 4.1 — NP ≈ interleaving on arbitrary (even racy) programs;
///  * Lm 5.1 — ww-RF verdicts agree between the machines;
///  * Thm 6.6 — every verified pass, alone and chained, refines
///    ww-RF-by-construction sources and preserves ww-RF;
///  * infrastructure — parser round-trip, validation of generated code.
///
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Refinement.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "litmus/RandomProgram.h"
#include "opt/Pass.h"
#include "race/WWRace.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

class RandomSeed : public ::testing::TestWithParam<unsigned> {};

RandomProgramConfig smallConfig(unsigned Seed, bool Racy) {
  RandomProgramConfig C;
  C.Seed = 1000 + Seed;
  C.NumThreads = 2;
  C.InstrsPerThread = 4;
  C.NumNaVars = 2;
  C.NumAtomicVars = 1;
  C.AllowCas = (Seed % 3 == 0);
  C.AllowBranch = true;
  C.ExclusiveNaWriters = !Racy;
  return C;
}

TEST_P(RandomSeed, GeneratedProgramsValidate) {
  Program P = generateRandomProgram(smallConfig(GetParam(), true));
  EXPECT_TRUE(isValidProgram(P)) << printProgram(P);
}

TEST_P(RandomSeed, ParserRoundTrip) {
  Program P = generateRandomProgram(smallConfig(GetParam(), true));
  ParseResult R = parseProgram(printProgram(P));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(*R.Prog == P);
}

TEST_P(RandomSeed, MachineEquivalenceOnRacyPrograms) {
  // Thm 4.1 holds unconditionally — use racy generation.
  Program P = generateRandomProgram(smallConfig(GetParam(), true));
  StepConfig SC;
  SC.EnablePromises = false; // promise-free fragment, exhaustive and fast
  BehaviorSet Inter = exploreInterleaving(P, SC);
  BehaviorSet NP = exploreNonPreemptive(P, SC);
  if (!Inter.Exhausted || !NP.Exhausted)
    GTEST_SKIP() << "exploration bound hit";
  // Without promises the NP machine may genuinely lack mid-block
  // interleavings (see reorder_tgt), so only NP ⊆ interleaving is a theorem
  // here; promise-enabled equality is covered on the litmus suite.
  RefinementResult R = checkRefinement(NP, Inter);
  EXPECT_TRUE(R.Holds) << R.CounterExample << "\n" << printProgram(P);
}

TEST_P(RandomSeed, RaceVerdictAgreesAcrossMachines) {
  Program P = generateRandomProgram(smallConfig(GetParam(), true));
  StepConfig SC;
  SC.EnablePromises = false;
  RaceCheckResult A = checkWWRaceFreedom(P, SC);
  RaceCheckResult B = checkWWRaceFreedomNP(P, SC);
  if (!A.Exact || !B.Exact)
    GTEST_SKIP() << "bound hit";
  EXPECT_EQ(A.RaceFree, B.RaceFree) << printProgram(P);
}

TEST_P(RandomSeed, ExclusiveWritersAreWwRaceFree) {
  Program P = generateRandomProgram(smallConfig(GetParam(), false));
  StepConfig SC;
  SC.EnablePromises = false;
  RaceCheckResult R = checkWWRaceFreedom(P, SC);
  ASSERT_TRUE(R.Exact);
  EXPECT_TRUE(R.RaceFree)
      << (R.Witness ? R.Witness->Description : std::string()) << "\n"
      << printProgram(P);
}

// Thm 6.6 on promise-free random ww-RF programs: every verified pass
// passes the shared Def 6.4 check under the full engine matrix
// (tests/support/PassTestSupport.h).
TEST_P(RandomSeed, PassesRefineRandomWwRFPrograms) {
  Program Src = generateRandomProgram(smallConfig(GetParam(), false));
  StepConfig SC;
  SC.EnablePromises = false;
  expectPassesCorrect(Src, verifiedPasses(), SC);
}

// Lm 6.2 makes passes compose (§2.6): each preserves ww-RF, so every
// later pass in a chain still sees a ww-RF source. The chain of all
// verified passes must pass the same check.
TEST_P(RandomSeed, PassesPreserveWwRF) {
  Program Src = generateRandomProgram(smallConfig(GetParam(), false));
  StepConfig SC;
  SC.EnablePromises = false;
  PassPipeline Pipeline("all", createAllVerifiedPasses());
  expectPassesCorrect(Src, {&Pipeline}, SC);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeed, ::testing::Range(0u, 25u));

// A couple of loop-shaped generations, explored with tighter bounds.
class RandomLoopSeed : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomLoopSeed, LoopProgramsStayEquivalent) {
  RandomProgramConfig C;
  C.Seed = 9000 + GetParam();
  C.NumThreads = 2;
  C.InstrsPerThread = 2;
  C.AllowLoop = true;
  C.AllowBranch = false;
  C.AllowCas = false;
  C.LoopTripCount = 2;
  Program P = generateRandomProgram(C);
  StepConfig SC;
  SC.EnablePromises = false;
  BehaviorSet Inter = exploreInterleaving(P, SC);
  BehaviorSet NP = exploreNonPreemptive(P, SC);
  if (!Inter.Exhausted || !NP.Exhausted)
    GTEST_SKIP() << "bound hit";
  RefinementResult R = checkRefinement(NP, Inter);
  EXPECT_TRUE(R.Holds) << R.CounterExample << "\n" << printProgram(P);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoopSeed, ::testing::Range(0u, 8u));

} // namespace
} // namespace psopt
