//===- tests/sim/SimTest.cpp - Thread-local simulation tests (E7) -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// §6's simulation framework exercised on the paper's own examples:
/// the Reorder example with Iid (Fig 14d), the DCE example (1) with Idce
/// (Fig 16), and the ablations showing which ingredient each proof needs.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "sim/SimChecker.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

// --- TimestampMap / DelayedWrites unit behaviour -----------------------------

TEST(TimestampMapTest, InitialIsIdentityOnZeros) {
  Memory M = Memory::initial({VarId("st_x"), VarId("st_y")});
  TimestampMap Phi = TimestampMap::initial(M);
  EXPECT_EQ(Phi.get(VarId("st_x"), Time(0)).value(), Time(0));
  EXPECT_TRUE(Phi.domainMatches(M));
  EXPECT_TRUE(Phi.imageWithin(M));
  EXPECT_TRUE(Phi.isMonotone());
}

TEST(TimestampMapTest, MonotonicityViolationDetected) {
  Memory M = Memory::initial({VarId("st_m")});
  TimestampMap Phi = TimestampMap::initial(M);
  Phi.bind(VarId("st_m"), Time(1), Time(5));
  Phi.bind(VarId("st_m"), Time(2), Time(3)); // order inversion
  EXPECT_FALSE(Phi.isMonotone());
}

TEST(TimestampMapTest, DomainMismatchDetected) {
  Memory M = Memory::initial({VarId("st_d")});
  TimestampMap Phi = TimestampMap::initial(M);
  M.insert(Message::concrete(VarId("st_d"), 1, Time(1), Time(2), View{}));
  EXPECT_FALSE(Phi.domainMatches(M)); // new message unmapped
}

TEST(DelayedWritesTest, FuelRunsOut) {
  DelayedWrites D;
  D.add(VarId("st_f"), Time(2), 2);
  EXPECT_TRUE(D.decrementAll());
  EXPECT_TRUE(D.decrementAll());
  EXPECT_FALSE(D.decrementAll()); // index would go below zero
}

TEST(DelayedWritesTest, DischargeRemoves) {
  DelayedWrites D;
  D.add(VarId("st_g"), Time(2), 5);
  EXPECT_TRUE(D.contains(VarId("st_g"), Time(2)));
  D.discharge(VarId("st_g"), Time(2));
  EXPECT_TRUE(D.empty());
}

// --- The Reorder example (§2.3, Fig 14d) -------------------------------------

const char *ReorderSrc = R"(var x; var y;
  func f { block 0: r := x.na; y.na := 2; ret; } thread f;)";
const char *ReorderTgt = R"(var x; var y;
  func f { block 0: y.na := 2; r := x.na; ret; } thread f;)";

TEST(SimCheckerTest, ReorderWithIid) {
  Program Src = parseProgramOrDie(ReorderSrc);
  Program Tgt = parseProgramOrDie(ReorderTgt);
  auto Iid = createIdentityInvariant();
  // Environment: another thread may write x := 7 (the racy interference of
  // Fig 3 — Reorder is sound even for racy programs).
  std::vector<EnvAction> Env{{"write x:=7", VarId("x"), 7}};
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, Env);
  EXPECT_TRUE(R.Holds) << R.FailReason;
  EXPECT_FALSE(R.Bounded);
}

TEST(SimCheckerTest, BudgetCutIsBoundedNotRefuted) {
  // The pair simulates under the default budget (ReorderWithIid); one
  // configuration cuts the search right after the initial one, which
  // leaves the verdict unknown rather than refuted.
  Program Src = parseProgramOrDie(ReorderSrc);
  Program Tgt = parseProgramOrDie(ReorderTgt);
  auto Iid = createIdentityInvariant();
  std::vector<EnvAction> Env{{"write x:=7", VarId("x"), 7}};
  SimConfig C;
  C.MaxConfigs = 1;
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, Env, C);
  EXPECT_FALSE(R.Holds);
  EXPECT_TRUE(R.Bounded);
  EXPECT_EQ(R.FailReason, "");
  EXPECT_EQ(R.ConfigsVisited, 1u);
}

TEST(SimCheckerTest, IdenticalProgramsTriviallySimulate) {
  Program P = parseProgramOrDie(ReorderSrc);
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(P, P, FuncId("f"), *Iid, {});
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

TEST(SimCheckerTest, WrongValueIsRefuted) {
  // Target writes 3 where the source writes 2: no matching source step.
  Program Src = parseProgramOrDie(ReorderSrc);
  Program Tgt = parseProgramOrDie(R"(var x; var y;
    func f { block 0: y.na := 3; r := x.na; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {});
  EXPECT_FALSE(R.Holds);
  EXPECT_FALSE(R.Bounded);
  EXPECT_NE(R.FailReason, "");
}

TEST(SimCheckerTest, MissingSourceWriteIsRefuted) {
  // The target writes y but the source never does: the delayed write can
  // never be discharged, so either Iid breaks at the next switch point or
  // the fuel runs out.
  Program Src = parseProgramOrDie(R"(var x; var y;
    func f { block 0: r := x.na; ret; } thread f;)");
  Program Tgt = parseProgramOrDie(R"(var x; var y;
    func f { block 0: y.na := 2; r := x.na; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {});
  EXPECT_FALSE(R.Holds);
}

TEST(SimCheckerTest, OutValuesMustAgree) {
  Program Src = parseProgramOrDie(
      R"(func f { block 0: print(1); ret; } thread f;)");
  Program TgtOk = parseProgramOrDie(
      R"(func f { block 0: print(1); ret; } thread f;)");
  Program TgtBad = parseProgramOrDie(
      R"(func f { block 0: print(2); ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  EXPECT_TRUE(
      checkThreadSimulation(TgtOk, Src, FuncId("f"), *Iid, {}).Holds);
  EXPECT_FALSE(
      checkThreadSimulation(TgtBad, Src, FuncId("f"), *Iid, {}).Holds);
}

// --- The DCE example (1) of §7.1 with Idce (Fig 16) ---------------------------

const char *DceSrc = R"(var x;
  func f { block 0: x.na := 1; x.na := 2; ret; } thread f;)";
const char *DceTgt = R"(var x;
  func f { block 0: skip; x.na := 2; ret; } thread f;)";

TEST(SimCheckerTest, DceLockstepWithIdce) {
  Program Src = parseProgramOrDie(DceSrc);
  Program Tgt = parseProgramOrDie(DceTgt);
  auto Idce = createDceInvariant();
  std::vector<EnvAction> Env{{"env read noise: write z", VarId("z_env"), 1}};
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Idce, Env);
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

TEST(SimCheckerTest, DceNotProvableWithIid) {
  // Iid demands equal memories — impossible once the source performs the
  // dead write the target skipped. This shows why DCE needs a weaker
  // invariant than ConstProp/CSE (§8's PSSim comparison).
  Program Src = parseProgramOrDie(DceSrc);
  Program Tgt = parseProgramOrDie(DceTgt);
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {});
  EXPECT_FALSE(R.Holds);
}

TEST(SimCheckerTest, SkipOnlyDifferencesSimulateWithIdce) {
  Program Src = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 5; skip; ret; } thread f;)");
  Program Tgt = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 5; skip; ret; } thread f;)");
  auto Idce = createDceInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Idce, {});
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

// --- LICM (Fig 5a): the moved read simulates with Iid -------------------------

TEST(SimCheckerTest, LicmPairSimulatesWithIid) {
  // Csrc → Ctgt of Fig 5(a), loop bound 2. The target's extra preheader
  // read is an NA step the source answers with zero steps; the body's
  // register copy (target) is answered by the source's in-loop load.
  Program Src = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := x.na; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  Program Tgt = parseProgramOrDie(R"(var x;
    func f { block 0: r1 := 0; r9 := x.na; jmp 1;
             block 1: be r1 < 2, 2, 3;
             block 2: r2 := r9; r1 := r1 + 1; jmp 1;
             block 3: print(r2); ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  std::vector<EnvAction> Env{{"env writes x := 5", VarId("x"), 5}};
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, Env,
                                      SimConfig{});
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

// --- Fig 16's unused-interval argument -----------------------------------------

TEST(SimCheckerTest, Fig16GapClauseMatters) {
  // Environment writes x := 8. With the gap clause, a tight (gap-free)
  // source append violates Idce and is not a legal Rely move — the
  // simulation holds. With the gap clause dropped (Idce-nogap) the tight
  // append is legal, the target may then insert its write *below* 8 while
  // the source has no room below its own 8, breaking monotonicity of φ —
  // exactly the ①-cannot-go-right-of-⑧ argument of §7.1.
  Program Src = parseProgramOrDie(DceSrc);
  Program Tgt = parseProgramOrDie(DceTgt);
  std::vector<EnvAction> Env{
      {"tight write x:=8", VarId("x"), 8, /*TightOnSource=*/true}};

  auto Idce = createDceInvariant();
  SimResult WithGap = checkThreadSimulation(Tgt, Src, FuncId("f"), *Idce, Env);
  EXPECT_TRUE(WithGap.Holds) << WithGap.FailReason;

  auto NoGap = createDceInvariantNoGap();
  SimResult WithoutGap =
      checkThreadSimulation(Tgt, Src, FuncId("f"), *NoGap, Env);
  EXPECT_FALSE(WithoutGap.Holds);
}

// --- Promise steps are matched by corresponding promises (Fig 14c) -------------

TEST(SimCheckerTest, TargetPromisesAreMatched) {
  // With target promise exploration on, every target promise must be
  // answered by a source promise of the same location and value. For
  // identical programs the response always exists.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimConfig C;
  C.TargetPromises = true;
  SimResult R = checkThreadSimulation(P, P, FuncId("f"), *Iid, {}, C);
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

TEST(SimCheckerTest, TargetPromiseWithoutSourceWriteRefuted) {
  // The target can promise x := 1 (it writes x); the source never writes
  // x, so no source promise certifies — Fig 14(c) has no instance.
  Program Src = parseProgramOrDie(R"(var x; var y;
    func f { block 0: y.na := 1; ret; } thread f;)");
  Program Tgt = parseProgramOrDie(R"(var x; var y;
    func f { block 0: x.na := 1; y.na := 1; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimConfig C;
  C.TargetPromises = true;
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {}, C);
  EXPECT_FALSE(R.Holds);
}

// --- Atomic steps must be matched exactly (Fig 14b) ---------------------------

TEST(SimCheckerTest, AtomicAccessesMatchInLockstep) {
  Program Src = parseProgramOrDie(R"(var a atomic;
    func f { block 0: r := 1; a.rlx := r; ret; } thread f;)");
  // The §6.2 example: (r := 1; a.rlx := r) ⇝ a.rlx := 1.
  Program Tgt = parseProgramOrDie(R"(var a atomic;
    func f { block 0: a.rlx := 1; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {});
  EXPECT_TRUE(R.Holds) << R.FailReason;
}

TEST(SimCheckerTest, AtomicModeMismatchRefuted) {
  Program Src = parseProgramOrDie(R"(var a atomic;
    func f { block 0: a.rel := 1; ret; } thread f;)");
  Program Tgt = parseProgramOrDie(R"(var a atomic;
    func f { block 0: a.rlx := 1; ret; } thread f;)");
  auto Iid = createIdentityInvariant();
  SimResult R = checkThreadSimulation(Tgt, Src, FuncId("f"), *Iid, {});
  EXPECT_FALSE(R.Holds); // W(rlx) is not W(rel)
}

} // namespace
} // namespace psopt
