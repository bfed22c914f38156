//===- tests/opt/CSETest.cpp - CSE tests -----------------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(CSETest, EliminatesDuplicateLoad) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := x.na; r2 := x.na; print(r1 + r2); ret; }
    thread f;)");
  Program T = createCSE()->run(P);
  const Instr &I = firstFunction(T).block(0).instructions()[1];
  ASSERT_TRUE(I.isAssign());
  EXPECT_EQ(I.expr()->reg(), RegId("r1"));
}

TEST(CSETest, EliminatesDuplicateComputation) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: r1 := r0 + 5; r2 := r0 + 5; print(r2); ret; }
    thread f;)");
  Program T = createCSE()->run(P);
  const Instr &I = firstFunction(T).block(0).instructions()[1];
  ASSERT_TRUE(I.isAssign());
  EXPECT_TRUE(I.expr()->isReg());
}

TEST(CSETest, AcquireReadBlocksLoadReuse) {
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: r1 := x.na; r9 := a.acq; r2 := x.na;
             print(r2); ret; } thread f;)");
  Program T = createCSE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[2].isLoad())
      << "the second load must survive the acquire barrier";
}

TEST(CSETest, RelaxedAccessesDoNotBlock) {
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: r1 := x.na; r9 := a.rlx; a.rel := 1; r2 := x.na;
             print(r2); ret; } thread f;)");
  Program T = createCSE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[3].isAssign());
}

TEST(CSETest, StoreToLoadForwarding) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 7; x.na := r1; r2 := x.na; print(r2); ret; }
    thread f;)");
  Program T = createCSE()->run(P);
  const Instr &I = firstFunction(T).block(0).instructions()[2];
  ASSERT_TRUE(I.isAssign());
  EXPECT_EQ(I.expr()->reg(), RegId("r1"));
}

TEST(CSETest, InterveningStoreBlocksReuse) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := x.na; x.na := r1 + 1; r2 := x.na;
             print(r2); ret; } thread f;)");
  Program T = createCSE()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[2].isLoad());
}

// The Fig 1 mistake distilled to straight-line code: reusing a pre-acquire
// load after the acquire leaks a stale value the source can no longer read.
TEST(CSETest, UnsafeCSEAcrossAcquireBreaksRefinement) {
  Program P = parseProgramOrDie(R"(var y; var x atomic;
    func f { block 0: r1 := y.na; r3 := x.acq; be r3 == 1, 1, 2;
             block 1: r2 := y.na; print(r2); ret;
             block 2: print(-1); ret; }
    func g { block 0: y.na := 1; x.rel := 1; ret; }
    thread f; thread g;)");

  // The safe pass refuses; the program is its own target.
  Program TSafe = createCSE()->run(P);
  EXPECT_TRUE(TSafe == P);
  expectPassesCorrect(P, {createCSE().get()});

  // The unsafe pass rewrites r2 := y.na into r2 := r1 ...
  Program TBad = createUnsafeCSE()->run(P);
  const Instr &I = TBad.function(FuncId("f")).block(1).instructions()[0];
  ASSERT_TRUE(I.isAssign());
  // ... and the result does not refine: the target can print 0 after
  // seeing x == 1, the source cannot.
  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(TBad);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds);
}

TEST(CSETest, CorrectOnDuplicateLoadsWithRacyWriter) {
  // Duplicate-read elimination is sound even with read-write races (§2.5).
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := x.na; r2 := x.na; print(r2); ret; }
    func g { block 0: x.na := 3; ret; }
    thread f; thread g;)");
  expectPassesCorrect(P, {createCSE().get()});
}

} // namespace
} // namespace psopt
