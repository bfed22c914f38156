//===- tests/opt/FenceWeakenTest.cpp - Fence elimination/weakening tests ---------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// FenceWeaken's two rules — R1 (dominated by an earlier fence) and R2
/// (trailing, unobservable before ret) — their side conditions, the
/// acqrel demotions, and the unsafe twin that keeps acq parts "fresh"
/// across loads (the fence-based Fig 1).
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(FenceWeakenTest, DropsAcqFenceDominatedByAcqFence) {
  // Back-to-back acq fences: the second finds Acq still ⊥.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: r := a.rlx; fence.acq; fence.acq; r2 := d.na;
                      print(r + r2); ret; }
    func g { block 0: d.na := 1; a.rlx := 1; ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[1].isFence());
  EXPECT_TRUE(B.instructions()[2].isSkip());
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, LoadBetweenAcqFencesKeepsBoth) {
  // The relaxed load banks a message view into Acq; the second fence
  // publishes it. Dropping it is exactly what the unsafe twin does.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: fence.acq; r := a.rlx; fence.acq; r2 := d.na;
                      print(r + r2); ret; }
    func g { block 0: d.na := 1; a.rlx := 1; ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isFence());
  EXPECT_TRUE(B.instructions()[2].isFence());
}

TEST(FenceWeakenTest, DropsRelFenceDominatedByRelFence) {
  // Register-only instructions leave V unmoved: the second snapshot is
  // the first one again. The trailing store defeats R2, isolating R1.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: fence.rel; skip; fence.rel; x.na := 1; ret; }
    func g { block 0: r := x.na; print(r); ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isFence());
  EXPECT_TRUE(B.instructions()[2].isSkip());
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, StoreBetweenRelFencesKeepsBoth) {
  // The store raises V (its own write timestamp): the second rel fence
  // snapshots something new.
  Program P = parseProgramOrDie(R"(var x; var y;
    func f { block 0: fence.rel; x.na := 1; fence.rel; y.na := 1; ret; }
    func g { block 0: r := x.na; r2 := y.na; print(r + r2); ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isFence());
  EXPECT_TRUE(B.instructions()[2].isFence());
}

TEST(FenceWeakenTest, AcqrelDominatedOnAcqSideDemotesToRel) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: fence.acq; fence.acqrel; x.na := 1; ret; }
    func g { block 0: r := x.na; print(r); ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  ASSERT_TRUE(B.instructions()[1].isFence());
  EXPECT_EQ(B.instructions()[1].fenceMode(), FenceMode::REL);
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, TrailingAcqFenceIsDropped) {
  // R2: nothing after the fence consumes the view gain.
  Program P = parseProgramOrDie(R"(var d;
    func f { block 0: r := d.na; fence.acq; print(r); ret; } thread f;)");
  Program T = createFenceWeaken()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[1].isSkip());
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, TrailingRelFenceIsDroppedAcrossLoads) {
  // R2 rel side: loads may follow — only a store could attach the
  // snapshot to a message.
  Program P = parseProgramOrDie(R"(var x; var d;
    func f { block 0: x.na := 1; fence.rel; r := d.na; print(r); ret; }
    thread f;)");
  Program T = createFenceWeaken()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[1].isSkip());
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, TrailingAcqrelAboveLoadsDemotesToAcq) {
  // The rel side is unobservable (no store follows) but the acq side is
  // consumed by the trailing load: judge the sides separately.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: r := a.rlx; fence.acqrel; r2 := d.na;
                      print(r + r2); ret; }
    func g { block 0: d.na := 1; a.rlx := 1; ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  ASSERT_TRUE(B.instructions()[1].isFence());
  EXPECT_EQ(B.instructions()[1].fenceMode(), FenceMode::ACQ);
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, FenceBeforeAStoreIsKept) {
  // A rel fence followed by a store is the publication idiom — never
  // dropped, even at the end of a block. (The consumer thread makes the
  // payload and flag shared.)
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: d.na := 1; fence.rel; a.rlx := 1; ret; }
    func g { block 0: r := a.rlx; r2 := d.na; print((r * 10) + r2); ret; }
    thread f; thread g;)");
  Program T = createFenceWeaken()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(FenceWeakenTest, PrivateAccessesAreTransparentToBothRules) {
  // Every location is private to the single thread: its loads bank
  // nothing new, its stores raise V only at coordinates no peer ever
  // consults, so both fences are no-ops and die.
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: r := a.rlx; fence.acq; x.na := 1; fence.rel;
                      x.na := 2; print(r); ret; } thread f;)");
  Program T = createFenceWeaken()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[1].isSkip()) << printProgram(T);
  EXPECT_TRUE(B.instructions()[3].isSkip()) << printProgram(T);
  expectPassesCorrect(P, {createFenceWeaken().get()});
}

TEST(FenceWeakenTest, UnsafeTwinDropsFenceAfterLoadAndBreaksRefinement) {
  // The fence-based Fig 1: with the reader's second acq fence gone, the
  // banked view of the relaxed flag read is never published, and the
  // payload read stays stale.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; fence.rel; a.rlx := 1; ret; }
    func t1 { block 0: fence.acq; r := a.rlx; fence.acq; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)");
  Program T = createUnsafeFenceWeaken()->run(P);
  const BasicBlock &B = T.function(FuncId("t1")).block(0);
  ASSERT_TRUE(B.instructions()[2].isSkip()) << "unsafe variant should fire";

  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(T);
  ASSERT_TRUE(SrcB.Exhausted && TgtB.Exhausted);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds) << "dropping the fence across a load is unsound";
  // flag=1, payload=0: source readers that saw the flag see the payload.
  EXPECT_FALSE(SrcB.hasDone({10}));
  EXPECT_TRUE(TgtB.hasDone({10}));
}

TEST(FenceWeakenTest, TransformedProgramsRoundTrip) {
  Program P = parseProgramOrDie(R"(var x; var d; var a atomic;
    func f { block 0: fence.acq; r := a.rlx; fence.acqrel; r2 := d.na;
                      fence.rel; x.na := r2; fence.acq; print(r); ret; }
    thread f;)");
  Program T = createFenceWeaken()->run(P);
  ParseResult R = parseProgram(printProgram(T));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(*R.Prog == T);
}

} // namespace
} // namespace psopt
