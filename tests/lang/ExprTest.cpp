//===- tests/lang/ExprTest.cpp - Expression tests ---------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Builder.h"
#include "lang/Expr.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

using namespace dsl;

TEST(ExprTest, EvalArithmetic) {
  RegFile Regs;
  RegId R1("et_r1"), R2("et_r2");
  Regs.set(R1, 7);
  Regs.set(R2, 3);
  EXPECT_EQ(add(reg(R1), reg(R2))->eval(Regs), 10);
  EXPECT_EQ(sub(reg(R1), reg(R2))->eval(Regs), 4);
  EXPECT_EQ(mul(reg(R1), reg(R2))->eval(Regs), 21);
  EXPECT_EQ(lt(reg(R2), reg(R1))->eval(Regs), 1);
  EXPECT_EQ(eq(reg(R1), cst(7))->eval(Regs), 1);
  EXPECT_EQ(ne(reg(R1), cst(7))->eval(Regs), 0);
}

TEST(ExprTest, UnsetRegistersReadZero) {
  RegFile Regs;
  EXPECT_EQ(reg(RegId("et_unset"))->eval(Regs), 0);
}

TEST(ExprTest, WrapAroundArithmetic) {
  RegFile Regs;
  RegId R("et_big");
  Regs.set(R, 2147483647); // INT32_MAX
  EXPECT_EQ(add(reg(R), cst(1))->eval(Regs), -2147483647 - 1);
}

TEST(RegFileTest, WritingZeroIsNeverWriting) {
  RegId R1("rf_z1"), R2("rf_z2");
  RegFile Written;
  Written.set(R1, 5);
  Written.set(R2, 0); // never nonzero
  Written.set(R1, 0); // back to the default
  RegFile Fresh;
  EXPECT_TRUE(Written == Fresh);
  EXPECT_EQ(Written.hash(), Fresh.hash());
  EXPECT_EQ(Written.str(), "{}");
  EXPECT_EQ(Written.get(R1), 0);
}

TEST(RegFileTest, EqualityAndHashIgnoreWriteOrder) {
  RegId R1("rf_o1"), R2("rf_o2"), R3("rf_o3");
  RegFile A, B;
  A.set(R1, 1);
  A.set(R2, 2);
  A.set(R3, 3);
  B.set(R3, 9);
  B.set(R2, 2);
  B.set(R1, 1);
  EXPECT_FALSE(A == B);
  B.set(R3, 3);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(RegFileTest, StrListsNonzeroRegistersInIdOrder) {
  // Interned in this order, so rf_s_b has the smaller id.
  RegId B("rf_s_b"), A("rf_s_a"), Zero("rf_s_zero");
  ASSERT_LT(B, A);
  RegFile Regs;
  Regs.set(A, 1);
  Regs.set(Zero, 0);
  Regs.set(B, -2);
  EXPECT_EQ(Regs.str(), "{rf_s_b=-2, rf_s_a=1}");
}

TEST(RegFileTest, CopyIsIndependent) {
  RegId R1("rf_c1"), R2("rf_c2");
  RegFile Src;
  Src.set(R1, 4);
  RegFile Copy = Src;
  Copy.set(R1, 0);
  Copy.set(R2, 8);
  EXPECT_EQ(Src.get(R1), 4);
  EXPECT_EQ(Src.get(R2), 0);
  EXPECT_EQ(Src.str(), "{rf_c1=4}");
  EXPECT_EQ(Copy.str(), "{rf_c2=8}");
}

TEST(ExprTest, EvalConst) {
  EXPECT_EQ(add(cst(2), mul(cst(3), cst(4)))->evalConst().value(), 14);
  EXPECT_FALSE(reg(RegId("et_r"))->evalConst().has_value());
  EXPECT_FALSE(add(cst(1), reg(RegId("et_r")))->evalConst().has_value());
}

TEST(ExprTest, StructuralEqualityAndHash) {
  RegId R("et_heq");
  ExprRef A = add(reg(R), cst(1));
  ExprRef B = add(reg(R), cst(1));
  ExprRef C = add(cst(1), reg(R));
  EXPECT_TRUE(Expr::equal(A, B));
  EXPECT_FALSE(Expr::equal(A, C)); // structural, not semantic
  EXPECT_EQ(Expr::hash(A), Expr::hash(B));
}

TEST(ExprTest, CollectRegs) {
  RegId R1("et_c1"), R2("et_c2");
  std::set<RegId> Regs;
  mul(add(reg(R1), cst(2)), reg(R2))->collectRegs(Regs);
  EXPECT_EQ(Regs.size(), 2u);
  EXPECT_TRUE(Regs.count(R1));
  EXPECT_TRUE(Regs.count(R2));
  EXPECT_TRUE(mul(reg(R1), cst(0))->usesReg(R1));
  EXPECT_FALSE(cst(3)->usesReg(R1));
}

TEST(ExprTest, SubstReg) {
  RegId R1("et_s1"), R2("et_s2");
  ExprRef E = add(reg(R1), mul(reg(R1), reg(R2)));
  ExprRef S = Expr::substReg(E, R1, cst(5));
  RegFile Regs;
  Regs.set(R2, 2);
  EXPECT_EQ(S->eval(Regs), 15);
  // Untouched expressions are shared, not copied.
  ExprRef T = Expr::substReg(E, RegId("et_absent"), cst(9));
  EXPECT_EQ(T.get(), E.get());
}

TEST(ExprTest, FoldWithRegFacts) {
  RegId R1("et_f1"), R2("et_f2");
  ExprRef E = add(reg(R1), mul(reg(R2), cst(3)));
  ExprRef F = Expr::fold(E, [&](RegId R) -> std::optional<Val> {
    if (R == R1)
      return 4;
    return std::nullopt; // R2 unknown
  });
  // R1 folds to 4 but the multiply stays symbolic.
  EXPECT_FALSE(F->evalConst().has_value());
  ExprRef G = Expr::fold(E, [&](RegId) -> std::optional<Val> { return 2; });
  EXPECT_EQ(G->constValue(), 8);
}

TEST(ExprTest, StrRendering) {
  RegId R("et_p");
  EXPECT_EQ(add(reg(R), cst(1))->str(), "(et_p + 1)");
  EXPECT_EQ(cst(-3)->str(), "-3");
}

} // namespace
} // namespace psopt
