//===- tests/opt/DCETest.cpp - DCE tests (E5) ------------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(DCETest, EliminatesOverwrittenStore) {
  // §7.1 example (1): x := 1; x := 2  ⇝  skip; x := 2.
  Program P = litmus("fig16_src").Prog;
  Program T = createDCE()->run(P);
  const BasicBlock &B = T.function(FuncId("t1")).block(0);
  EXPECT_TRUE(B.instructions()[0].isSkip());
  EXPECT_TRUE(B.instructions()[1].isStore());
  // And the result is exactly the paper's target program.
  EXPECT_TRUE(T == litmus("fig16_tgt").Prog);
}

TEST(DCETest, Fig15ReleaseKeepsStore) {
  // The release rule forbids eliminating y := 2 in Fig 15.
  Program P = litmus("fig15_src").Prog;
  Program T = createDCE()->run(P);
  const BasicBlock &B = T.function(FuncId("t1")).block(0);
  EXPECT_TRUE(B.instructions()[0].isStore()) << "y := 2 must survive";
  expectPassesCorrect(P, {createDCE().get()});
}

TEST(DCETest, UnsafeDCEEliminatesAcrossReleaseAndBreaksRefinement) {
  // Without the release rule the first store dies — and the refinement
  // checker refutes the transformation (E5).
  Program P = litmus("fig15_src").Prog;
  Program T = createUnsafeDCE()->run(P);
  const BasicBlock &B = T.function(FuncId("t1")).block(0);
  ASSERT_TRUE(B.instructions()[0].isSkip()) << "unsafe variant should fire";

  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(T);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds) << "Fig 15: DCE across a release write is unsound";
}

TEST(DCETest, EliminatesDeadRegisterComputation) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: r1 := 5; r1 := 6; print(r1); ret; } thread f;)");
  Program T = createDCE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[0].isSkip());
}

TEST(DCETest, EliminatesDeadLoad) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := x.na; r1 := 6; print(r1); ret; } thread f;)");
  Program T = createDCE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[0].isSkip());
}

TEST(DCETest, KeepsAtomicAccesses) {
  Program P = parseProgramOrDie(R"(var a atomic;
    func f { block 0: r1 := a.rlx; r1 := 6; a.rlx := 3; print(r1); ret; }
    thread f;)");
  Program T = createDCE()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isLoad()) << "atomic load kept";
  EXPECT_TRUE(B.instructions()[2].isStore()) << "atomic store kept";
}

TEST(DCETest, KeepsVisiblyDeadStoreReadByOtherThread) {
  // x := 1 looks dead to t1's own continuation, but the ret boundary keeps
  // it live (the paper's DCE also only eliminates writes that are dead in
  // the *sequential* continuation; trailing stores stay).
  Program P = parseProgramOrDie(R"(var x;
    func t1 { block 0: x.na := 1; ret; }
    func obs { block 0: r := x.na; print(r); ret; }
    thread t1; thread obs;)");
  Program T = createDCE()->run(P);
  EXPECT_TRUE(T.function(FuncId("t1")).block(0).instructions()[0].isStore());
}

TEST(DCETest, DeadStoreAcrossBasicBlocks) {
  // §7.2: "DCE we verified can eliminate dead writes across basic blocks".
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; jmp 1;
             block 1: skip; jmp 2;
             block 2: x.na := 2; ret; } thread f;)");
  Program T = createDCE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[0].isSkip());
}

TEST(DCETest, StoreLiveOnOnePathSurvives) {
  Program P = parseProgramOrDie(R"(var x; var c atomic;
    func f { block 0: x.na := 1; r := c.rlx; be r, 1, 2;
             block 1: r2 := x.na; print(r2); ret;
             block 2: x.na := 2; ret; } thread f;)");
  Program T = createDCE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[0].isStore());
}

TEST(DCETest, CorrectOnFig15) {
  expectPassesCorrect(litmus("fig15_src").Prog, {createDCE().get()});
}

TEST(DCETest, CorrectOnFig16) {
  expectPassesCorrect(litmus("fig16_src").Prog, {createDCE().get()});
}

} // namespace
} // namespace psopt
