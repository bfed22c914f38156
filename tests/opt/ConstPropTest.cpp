//===- tests/opt/ConstPropTest.cpp - ConstProp tests ----------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(ConstPropTest, FoldsStraightLineComputation) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: r1 := 5; r2 := r1 + 2; print(r2); ret; }
    thread f;)");
  Program T = createConstProp()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_EQ(B.instructions()[1].expr()->constValue(), 7);
  EXPECT_EQ(B.instructions()[2].expr()->constValue(), 7);
}

TEST(ConstPropTest, FoldsStoreOperands) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 3; x.na := r1 * 4; ret; } thread f;)");
  Program T = createConstProp()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_EQ(B.instructions()[1].expr()->constValue(), 12);
  // The store itself (location, mode) is untouched.
  EXPECT_TRUE(B.instructions()[1].isStore());
  EXPECT_EQ(B.instructions()[1].writeMode(), WriteMode::NA);
}

TEST(ConstPropTest, FoldsConstantBranch) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: r := 1; be r == 1, 1, 2;
             block 1: print(10); ret;
             block 2: print(20); ret; } thread f;)");
  Program T = createConstProp()->run(P);
  const Terminator &Term = firstFunction(T).block(0).terminator();
  ASSERT_TRUE(Term.isJmp());
  EXPECT_EQ(Term.target(), 1u);
}

TEST(ConstPropTest, DoesNotFoldThroughLoads) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: r := x.na; r2 := r + 1; print(r2); ret; } thread f;)");
  Program T = createConstProp()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isLoad()); // load kept
  EXPECT_FALSE(B.instructions()[1].expr()->isConst());
}

TEST(ConstPropTest, CasArgumentsFolded) {
  Program P = parseProgramOrDie(R"(var x atomic;
    func f { block 0: r1 := 0; r2 := 1;
             r := cas(x, r1, r2 + 1, rlx, rlx); print(r); ret; } thread f;)");
  Program T = createConstProp()->run(P);
  const Instr &Cas = firstFunction(T).block(0).instructions()[2];
  EXPECT_EQ(Cas.casExpected()->constValue(), 0);
  EXPECT_EQ(Cas.casDesired()->constValue(), 2);
}

TEST(ConstPropTest, DivergentPathsNotFolded) {
  Program P = parseProgramOrDie(R"(var x atomic;
    func f { block 0: r9 := x.rlx; be r9, 1, 2;
             block 1: r2 := 7; jmp 3;
             block 2: r2 := 8; jmp 3;
             block 3: print(r2); ret; } thread f;)");
  Program T = createConstProp()->run(P);
  EXPECT_FALSE(firstFunction(T).block(3).instructions()[0].expr()->isConst());
}

TEST(ConstPropTest, PreservesBehaviorOnBranchyProgram) {
  Program P = parseProgramOrDie(R"(var x atomic;
    func f { block 0: r1 := 2; r2 := r1 * 3; be r2 == 6, 1, 2;
             block 1: x.rlx := r2; print(r2); ret;
             block 2: print(0); ret; }
    func g { block 0: r := x.rlx; print(r + 100); ret; }
    thread f; thread g;)");
  expectPassesCorrect(P, {createConstProp().get()});
}

} // namespace
} // namespace psopt
