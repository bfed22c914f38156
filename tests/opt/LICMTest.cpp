//===- tests/opt/LICMTest.cpp - LInv / LICM tests (E4) ----------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/Litmus.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// Counts non-atomic loads of \p X inside \p F.
unsigned countNaLoads(const Function &F, VarId X) {
  unsigned N = 0;
  for (const auto &[L, B] : F.blocks())
    for (const Instr &I : B.instructions())
      if (I.isLoad() && I.readMode() == ReadMode::NA && I.var() == X)
        ++N;
  return N;
}

TEST(LInvTest, HoistsInvariantRead) {
  // Fig 5(a): Csrc → Cm. LInv adds a preheader read; the body still loads.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program T = createLInv()->run(P);
  EXPECT_EQ(countNaLoads(firstFunction(T), VarId("x")), 2u)
      << printProgram(T);
  expectPassesCorrect(P, {createLInv().get()});
}

TEST(LICMTest, FullLicmMovesLoadOutOfLoop) {
  // Fig 5(a): Csrc → Ctgt. After LInv ∘ CSE the body load is a register
  // copy; only the preheader load remains.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program T = createLICM()->run(P);
  EXPECT_EQ(countNaLoads(firstFunction(T), VarId("x")), 1u)
      << printProgram(T);
  expectPassesCorrect(P, {createLICM().get()});
}

TEST(LICMTest, RefusesToHoistAcrossAcquire) {
  // Fig 1: the loop body contains an acquire spin; LICM must not hoist the
  // y read.
  Program P = litmus("fig1_acq_src").Prog;
  Program T = createLICM()->run(P);
  // The y load stays inside the loop: the body block (3) still loads y.
  EXPECT_EQ(countNaLoads(T.function(FuncId("foo")), VarId("y")), 1u);
  EXPECT_TRUE(T.function(FuncId("foo")).block(3).instructions()[0].isLoad());
  expectPassesCorrect(P, {createLICM().get()});
}

TEST(LICMTest, UnsafeLicmReproducesFig1Unsoundness) {
  Program P = litmus("fig1_acq_src").Prog;
  Program T = createUnsafeLICM()->run(P);
  // The unsafe variant hoisted the y read out of the loop...
  EXPECT_TRUE(
      T.function(FuncId("foo")).block(3).instructions()[0].isAssign())
      << printProgram(T);
  // ... and the transformation is refuted by the refinement checker: the
  // target can print 0, the source only 1 (§1).
  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(T);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds);
  EXPECT_TRUE(TgtB.hasDoneMultiset({0}));
  EXPECT_FALSE(SrcB.hasDoneMultiset({0}));
}

TEST(LICMTest, HoistsWhenSpinIsRelaxed) {
  // §1: with the acquire read changed to relaxed, the hoist becomes legal
  // and our LICM performs it.
  Program P = litmus("fig1_rlx_src").Prog;
  Program T = createLICM()->run(P);
  // The in-loop y load became a copy.
  EXPECT_TRUE(
      T.function(FuncId("foo")).block(3).instructions()[0].isAssign())
      << printProgram(T);
  expectPassesCorrect(P, {createLICM().get()});
}

TEST(LICMTest, Fig5IntroducesRwRaceButStaysCorrect) {
  // Fig 5(b): hoisting in the guarded code introduces a read-write race
  // with g's x write — and is still a correct transformation.
  Program P = litmus("fig5_src").Prog;
  expectPassesCorrect(P, {createLInv().get(), createLICM().get()});
}

TEST(LInvTest, RefusesWhenLoopStoresTheVariable) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; x.na := r2 + 1; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program T = createLInv()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(LInvTest, RefusesWhenLoopContainsCas) {
  Program P = parseProgramOrDie(R"(var x; var l atomic;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r9 := cas(l, 0, 1, rlx, rlx); r2 := x.na;
                      r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program T = createLInv()->run(P);
  EXPECT_TRUE(T == P);
}

TEST(LInvTest, RefusesWhenLoopContainsCall) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; call g, 4;
             block 4: r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; }
    func g { block 0: ret; }
    thread f;)");
  Program T = createLInv()->run(P);
  EXPECT_TRUE(T == P);
}

TEST(LInvTest, HoistsAcrossReleaseWrite) {
  // §7: LICM is allowed across a release write.
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; a.rel := r1; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program T = createLICM()->run(P);
  EXPECT_TRUE(
      T.function(FuncId("f")).block(2).instructions()[0].isAssign())
      << printProgram(T);
  expectPassesCorrect(P, {createLICM().get()});
}

TEST(LInvTest, ZeroTripLoopSpeculationIsSound) {
  // The hoisted read executes even when the loop does not (speculative
  // introduction of a redundant read, §2.5).
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 5; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; }
    func g { block 0: x.na := 9; ret; }
    thread f; thread g;)");
  expectPassesCorrect(P, {createLICM().get()});
}

} // namespace
} // namespace psopt
