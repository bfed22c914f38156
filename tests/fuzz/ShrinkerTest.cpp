//===- tests/fuzz/ShrinkerTest.cpp - Delta-debugging shrinker -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "explore/Refinement.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "litmus/Litmus.h"
#include "opt/Pass.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

Program parse(const char *Text) {
  ParseResult R = parseProgram(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return *R.Prog;
}

/// True while the program still stores the constant 7 somewhere — a cheap
/// structural stand-in for "the bug is still present".
bool storesSeven(const Program &P) {
  for (const auto &[F, Fn] : P.code())
    for (const auto &[L, B] : Fn.blocks())
      for (const Instr &I : B.instructions())
        if (I.isStore() && I.expr()->kind() == Expr::Kind::Const &&
            I.expr()->constValue() == 7)
          return true;
  return false;
}

TEST(ShrinkerTest, StripsEverythingIrrelevant) {
  Program P = parse(R"(
    var x; var y; var a atomic;
    func t0 { block 0: x.na := 7; y.na := 3; r0 := a.acq; print(r0); ret; }
    func t1 { block 0: a.rel := 1; y.na := 2; r1 := 1 + 2; ret; }
    thread t0; thread t1;
  )");
  ASSERT_TRUE(storesSeven(P));

  ShrinkResult R = shrinkProgram(P, storesSeven);
  EXPECT_TRUE(storesSeven(R.Prog));
  EXPECT_TRUE(isValidProgram(R.Prog));
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
  // Only the x.na := 7 store is load-bearing; everything else — including
  // the second thread — must go.
  EXPECT_EQ(R.InstrsAfter, 1u);
  EXPECT_EQ(R.Prog.threads().size(), 1u);
}

TEST(ShrinkerTest, WeakensOrderingsAndDemotesCas) {
  Program P = parse(R"(
    var a atomic;
    func t0 { block 0: r0 := a.acq; r1 := cas(a, 0, 7, acq, rel); a.rel := 7;
              print(r0); ret; }
    thread t0;
  )");
  auto StoresSevenAtomically = [](const Program &Q) {
    for (const auto &[F, Fn] : Q.code())
      for (const auto &[L, B] : Fn.blocks())
        for (const Instr &I : B.instructions())
          if (I.isStore() && I.expr()->kind() == Expr::Kind::Const &&
              I.expr()->constValue() == 7)
            return true;
    return false;
  };
  ShrinkResult R = shrinkProgram(P, StoresSevenAtomically);
  EXPECT_TRUE(isValidProgram(R.Prog));
  // The CAS is demoted to a load (then dropped) and the surviving store
  // weakens rel -> rlx: no acq/rel access may remain.
  for (const auto &[F, Fn] : R.Prog.code())
    for (const auto &[L, B] : Fn.blocks())
      for (const Instr &I : B.instructions()) {
        EXPECT_FALSE(I.isCas());
        if (I.isLoad()) {
          EXPECT_NE(I.readMode(), ReadMode::ACQ);
        }
        if (I.isStore()) {
          EXPECT_NE(I.writeMode(), WriteMode::REL);
        }
      }
}

TEST(ShrinkerTest, RespectsCheckBudget) {
  Program P = parse(R"(
    var x;
    func t0 { block 0: x.na := 7; x.na := 7; x.na := 7; x.na := 7; ret; }
    thread t0;
  )");
  ShrinkConfig C;
  C.MaxChecks = 2;
  ShrinkResult R = shrinkProgram(P, storesSeven, C);
  EXPECT_LE(R.Checks, 2u);
  EXPECT_TRUE(storesSeven(R.Prog));
}

TEST(ShrinkerTest, MinimizesFig15UnderTheRefinementOracle) {
  // The real use: shrink Fig 15's source under "unsafe DCE still breaks
  // refinement". The litmus program is already minimal-ish; the shrinker
  // must keep it failing and not blow the ≤ 8 instruction budget the
  // fuzzer's acceptance bar uses.
  const Program &Src = litmus("fig15_src").Prog;
  std::unique_ptr<Pass> Bad = createPassByName("unsafe-dce");
  ASSERT_NE(Bad, nullptr);
  auto StillFails = [&](const Program &P) {
    Program Tgt = Bad->run(P);
    if (!isValidProgram(Tgt))
      return false;
    RefinementResult R = checkRefinement(Tgt, P);
    return R.Exact && !R.Holds;
  };
  ASSERT_TRUE(StillFails(Src));
  ShrinkResult R = shrinkProgram(Src, StillFails);
  EXPECT_TRUE(StillFails(R.Prog));
  EXPECT_LE(R.InstrsAfter, 8u) << printProgram(R.Prog);
}

} // namespace
} // namespace psopt
