//===- tests/explore/WitnessTest.cpp - Witness reconstruction tests ---------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"
#include "explore/Witness.h"
#include "lang/Parser.h"
#include "litmus/Litmus.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(WitnessTest, SbWeakOutcome) {
  const LitmusTest &T = litmus("sb");
  InterleavingMachine M(T.Prog, StepConfig{});
  auto W = findWitness(M, {0, 0}, Behavior::End::Done);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Observed.Outs, (Trace{0, 0}));
  EXPECT_EQ(W->Observed.Ending, Behavior::End::Done);
  EXPECT_GE(W->Steps.size(), 6u); // 2 writes, 2 reads, 2 prints, 2 rets
  // Both writes appear before both reads read stale values — at minimum,
  // the witness contains two relaxed writes and two reads of 0.
  unsigned Writes = 0, ZeroReads = 0;
  for (const WitnessStep &S : W->Steps) {
    if (S.Ev.K == ThreadEvent::Kind::Write)
      ++Writes;
    if (S.Ev.K == ThreadEvent::Kind::Read && S.Ev.ReadVal == 0)
      ++ZeroReads;
  }
  EXPECT_EQ(Writes, 2u);
  EXPECT_EQ(ZeroReads, 2u);
}

TEST(WitnessTest, LbOutcomeGoesThroughAPromise) {
  // §2.1's annotated execution: the {1,1} outcome of LB requires t1 to
  // promise y := 1 before reading x.
  const LitmusTest &T = litmus("lb");
  StepConfig SC;
  SC.EnablePromises = true;
  InterleavingMachine M(T.Prog, SC);
  auto W = findWitness(M, {1, 1}, Behavior::End::Done);
  ASSERT_TRUE(W.has_value());
  bool SawPromise = false;
  for (const WitnessStep &S : W->Steps)
    SawPromise |= S.Ev.K == ThreadEvent::Kind::Promise;
  EXPECT_TRUE(SawPromise) << W->str();
}

TEST(WitnessTest, ForbiddenTraceHasNoWitness) {
  const LitmusTest &T = litmus("lb_oota");
  StepConfig SC;
  SC.EnablePromises = true;
  InterleavingMachine M(T.Prog, SC);
  EXPECT_FALSE(findWitness(M, {1, 1}, Behavior::End::Done).has_value());
}

TEST(WitnessTest, NodeBoundIsReported) {
  // A search cut by MaxNodes says so; an exhausted search that finds
  // nothing does not.
  const LitmusTest &T = litmus("mp_rel_acq");
  InterleavingMachine M(T.Prog, T.SuggestedConfig());
  BehaviorSet B = exploreInterleaving(T.Prog, T.SuggestedConfig());
  ASSERT_FALSE(B.Done.empty());
  const Trace &Outs = *B.Done.rbegin();
  ExploreConfig Tight;
  Tight.MaxNodes = 3;
  WitnessResult Cut = findWitness(M, Outs, Behavior::End::Done, Tight);
  EXPECT_FALSE(Cut.has_value());
  EXPECT_TRUE(Cut.Bounded);
  WitnessResult Full = findWitness(M, Outs, Behavior::End::Done);
  EXPECT_TRUE(Full.has_value());
  EXPECT_FALSE(Full.Bounded);
  WitnessResult None = findWitness(M, {7, 7, 7}, Behavior::End::Done);
  EXPECT_FALSE(None.has_value());
  EXPECT_FALSE(None.Bounded);
}

TEST(WitnessTest, AbortWitness) {
  Program P = parseProgramOrDie(R"(var x atomic;
    func f { block 0: print(5); r := x.na; ret; } thread f;)");
  InterleavingMachine M(P, StepConfig{});
  auto W = findWitness(M, {5}, Behavior::End::Abort);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Observed.Ending, Behavior::End::Abort);
  EXPECT_EQ(W->Observed.Outs, (Trace{5}));
}

TEST(WitnessTest, PartialWitnessIsShort) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: print(1); print(2); ret; } thread f;)");
  InterleavingMachine M(P, StepConfig{});
  auto W = findWitness(M, {1}, Behavior::End::Partial);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Observed.Outs, (Trace{1}));
  // BFS returns a shortest witness: exactly the one out step.
  EXPECT_EQ(W->Steps.size(), 1u);
}

TEST(WitnessTest, RendersReadably) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: print(9); ret; } thread f;)");
  InterleavingMachine M(P, StepConfig{});
  auto W = findWitness(M, {9}, Behavior::End::Done);
  ASSERT_TRUE(W.has_value());
  EXPECT_NE(W->str().find("t0: out(9)"), std::string::npos);
}

} // namespace
} // namespace psopt
