//===- tests/opt/StoreElimTest.cpp - Redundant store elimination tests -----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// RSE, the write-side dual of DCE's Fig 15: a na store overwritten later
/// in its block dies, unless an intervening access, release write, rel
/// fence or CAS could publish or observe it first.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(StoreElimTest, EliminatesOverwrittenStore) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; x.na := 2; ret; } thread f;)");
  Program T = createStoreElim()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isSkip());
  EXPECT_TRUE(B.instructions()[1].isStore());
  expectPassesCorrect(P, {createStoreElim().get()});
}

TEST(StoreElimTest, CrossesRegisterOnlyInstructions) {
  // Assigns, skips and prints touch no memory: the scan crosses them.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r := 5; x.na := 1; skip; print(r); r2 := r + 1;
                      x.na := r2; ret; } thread f;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[1].isSkip());
  expectPassesCorrect(P, {createStoreElim().get()});
}

TEST(StoreElimTest, InterveningLoadKeepsStore) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; r := x.na; x.na := 2; print(r); ret; }
    thread f;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(StoreElimTest, ReleaseStoreKeepsStore) {
  // The Fig 15 dual: the release publishes x = 1, and an acquiring
  // reader may demand it; killing the store would let that reader see
  // the initial value instead. (The reader thread makes x shared — a
  // private x would waive the boundary.)
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: x.na := 1; a.rel := 1; x.na := 2; ret; }
    func g { block 0: r := a.acq; r2 := x.na; print(r2); ret; }
    thread f; thread g;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(StoreElimTest, RelFenceKeepsStore) {
  // A rel-side fence publishes through any later relaxed store, so it is
  // the same boundary as a release write.
  for (const char *Mode : {"rel", "acqrel"}) {
    Program P = parseProgramOrDie(std::string(R"(var x; var a atomic;
      func f { block 0: x.na := 1; fence.)") + Mode +
                                  R"(; a.rlx := 1; x.na := 2; ret; }
      func g { block 0: r := a.acq; r2 := x.na; print(r2); ret; }
      thread f; thread g;)");
    Program T = createStoreElim()->run(P);
    EXPECT_TRUE(T == P) << Mode << ":\n" << printProgram(T);
  }
}

TEST(StoreElimTest, PrivateStoreDiesAcrossReleaseBoundaries) {
  // x is touched only by f's thread: no reader exists for the release or
  // the fence to publish x = 1 to, so both boundaries are waived and the
  // overwritten store dies.
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: x.na := 1; a.rel := 1; fence.rel; x.na := 2; ret; }
    func g { block 0: r := a.acq; print(r); ret; }
    thread f; thread g;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(T.function(FuncId("f")).block(0).instructions()[0].isSkip())
      << printProgram(T);
  expectPassesCorrect(P, {createStoreElim().get()});
}

TEST(StoreElimTest, AcqFenceIsNoBoundary) {
  // An acq-side fence publishes nothing — the dying store stays dead.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; fence.acq; x.na := 2; ret; } thread f;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).instructions()[0].isSkip());
  expectPassesCorrect(P, {createStoreElim().get()});
}

TEST(StoreElimTest, CasIsABarrierEvenForTheUnsafeTwin) {
  // A CAS write part may be a release; both variants stop at it. (The
  // reader thread makes x shared — for a private x the CAS would be
  // crossed like any other unobservable boundary.)
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: x.na := 1; r := cas(a, 0, 1, rlx, rlx); x.na := 2;
                      print(r); ret; }
    func g { block 0: r2 := x.na; print(r2); ret; }
    thread f; thread g;)");
  EXPECT_TRUE(createStoreElim()->run(P) == P);
  EXPECT_TRUE(createUnsafeStoreElim()->run(P) == P);
}

TEST(StoreElimTest, LeavesAtomicStoresAlone) {
  Program P = parseProgramOrDie(R"(var a atomic;
    func f { block 0: a.rlx := 1; a.rlx := 2; ret; } thread f;)");
  Program T = createStoreElim()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(StoreElimTest, UnsafeTwinEliminatesAcrossReleaseAndBreaksRefinement) {
  // The message-passing publisher: with x := 1 gone, a reader that
  // acquires the flag may read the *initial* x — a source-impossible
  // behavior.
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func t0 { block 0: x.na := 1; a.rel := 1; x.na := 2; ret; }
    func t1 { block 0: r := a.acq; r2 := x.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)");
  Program T = createUnsafeStoreElim()->run(P);
  ASSERT_TRUE(T.function(FuncId("t0")).block(0).instructions()[0].isSkip())
      << "unsafe variant should fire";

  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(T);
  ASSERT_TRUE(SrcB.Exhausted && TgtB.Exhausted);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds) << "RSE across a release write is unsound";
  // flag=1, payload=0: only the target reads the initial value there.
  EXPECT_FALSE(SrcB.hasDone({10}));
  EXPECT_TRUE(TgtB.hasDone({10}));
}

TEST(StoreElimTest, TransformedProgramsRoundTrip) {
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: x.na := 1; fence.acq; x.na := 2; a.rel := 3; ret; }
    thread f;)");
  Program T = createStoreElim()->run(P);
  ParseResult R = parseProgram(printProgram(T));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(*R.Prog == T);
}

} // namespace
} // namespace psopt
