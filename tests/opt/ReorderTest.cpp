//===- tests/opt/ReorderTest.cpp - Adjacent reordering tests ---------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The Fig 3 / Fig 14 Reorder pass: loads-first normalization, the
/// acquire/release side conditions, the delayed-write fuel bound, and the
/// unsafe twin reproducing Fig 1 as a peephole.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(ReorderTest, SinksStoreBelowLoad) {
  // W; R → R; W is the delayed-write direction (Fig 14): the target's
  // early read is justified by delaying the write in the simulation.
  Program P = parseProgramOrDie(R"(var x; var y;
    func f { block 0: x.na := 1; r := y.na; print(r); ret; } thread f;)");
  Program T = createReorder()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isLoad());
  EXPECT_TRUE(B.instructions()[1].isStore());
  expectPassesCorrect(P, {createReorder().get()});
}

TEST(ReorderTest, HoistsLoadAboveReleaseStore) {
  // Allowed (§7): the released message's view only grows when the read
  // moves before it, so acquiring readers are more constrained, not less.
  Program P = parseProgramOrDie(R"(var y; var a atomic;
    func f { block 0: a.rel := 1; r := y.na; print(r); ret; } thread f;)");
  Program T = createReorder()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  EXPECT_TRUE(B.instructions()[0].isLoad());
  EXPECT_TRUE(B.instructions()[1].isStore());
  expectPassesCorrect(P, {createReorder().get()});
}

TEST(ReorderTest, NeverHoistsAcrossAnAcquireLoad) {
  // The Fig 1 restriction: the hoisted access could observe state the
  // acquire had not yet published. (The publisher thread makes d and a
  // shared — a private acquire would be no barrier.)
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: r := a.acq; r2 := d.na; print(r2); ret; }
    func g { block 0: d.na := 1; a.rel := 1; ret; }
    thread f; thread g;)");
  Program T = createReorder()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(ReorderTest, PrivateAcquireLoadIsNoHoistBarrier) {
  // a is touched only by f's thread: every message it can acquire is its
  // own, so the acquire publishes nothing and the na load hoists.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: r := a.acq; r2 := d.na; print(r2); ret; }
    func g { block 0: d.na := 1; ret; }
    thread f; thread g;)");
  Program T = createReorder()->run(P);
  const BasicBlock &B = T.function(FuncId("f")).block(0);
  ASSERT_TRUE(B.instructions()[0].isLoad());
  EXPECT_EQ(B.instructions()[0].readMode(), ReadMode::NA)
      << "the na load should hoist above the private acquire:\n"
      << printProgram(T);
  expectPassesCorrect(P, {createReorder().get()});
}

TEST(ReorderTest, RespectsRegisterDependence) {
  Program P = parseProgramOrDie(R"(var x; var y;
    func f { block 0: x.na := 2; r := y.na; x2 := r; print(x2); ret; }
    thread f;)");
  Program T = createReorder()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  // The load may hoist above the store, but r's use never crosses r's def.
  EXPECT_TRUE(B.instructions()[0].isLoad());
  EXPECT_TRUE(B.instructions()[1].isStore() || B.instructions()[2].isStore());
  ASSERT_TRUE(B.instructions()[1].isAssign() || B.instructions()[2].isAssign());
  expectPassesCorrect(P, {createReorder().get()});
}

TEST(ReorderTest, RespectsSameLocationDependence) {
  // x := 1; r := x must not become r := x; x := 1.
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; r := x.na; print(r); ret; } thread f;)");
  Program T = createReorder()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(ReorderTest, CasPrintAndFencesAreImmovable) {
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func f { block 0: r := cas(a, 0, 1, rlx, rlx); r2 := d.na;
                      print(r2); r3 := d.na; fence.acq; r4 := d.na;
                      print(r3 + r4 + r); ret; } thread f;)");
  Program T = createReorder()->run(P);
  EXPECT_TRUE(T == P) << printProgram(T);
}

TEST(ReorderTest, DelayFuelBoundsStoreSinking) {
  // A store sinks past at most DelayFuel = 8 loads (the strictly
  // decreasing delayed-write indices of Fig 14), then wedges. (The peer
  // reader makes x shared — a private store would sink without fuel.)
  std::string Src = "var x; var y; var z;\n  func f { block 0: x.na := 1;";
  for (int I = 0; I < 10; ++I)
    Src += " r" + std::to_string(I) + " := " + (I % 2 ? "y" : "z") + ".na;";
  Src += " ret; }\n  func g { block 0: r := x.na; print(r); ret; }\n"
         "  thread f; thread g;";
  Program P = parseProgramOrDie(Src);
  Program T = createReorder()->run(P);
  const BasicBlock &B = T.function(FuncId("f")).block(0);
  for (std::size_t I = 0; I < 8; ++I)
    EXPECT_TRUE(B.instructions()[I].isLoad()) << "index " << I;
  EXPECT_TRUE(B.instructions()[8].isStore()) << "fuel exhausted at 8";
  EXPECT_TRUE(B.instructions()[9].isLoad());
  EXPECT_TRUE(B.instructions()[10].isLoad());
}

TEST(ReorderTest, PrivateStoreSinksWithoutFuel) {
  // With x private to the single thread there is no delayed-write set to
  // bound: the store sinks below every load.
  std::string Src = "var x; var y; var z;\n  func f { block 0: x.na := 1;";
  for (int I = 0; I < 10; ++I)
    Src += " r" + std::to_string(I) + " := " + (I % 2 ? "y" : "z") + ".na;";
  Src += " ret; } thread f;";
  Program P = parseProgramOrDie(Src);
  Program T = createReorder()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  for (std::size_t I = 0; I < 10; ++I)
    EXPECT_TRUE(B.instructions()[I].isLoad()) << "index " << I;
  EXPECT_TRUE(B.instructions()[10].isStore()) << printProgram(T);
}

TEST(ReorderTest, UnsafeTwinHoistsAcrossAcquireAndBreaksRefinement) {
  // Fig 1 as a peephole: hoisting d.na above the acquire lets the reader
  // see the stale payload after observing the flag.
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; a.rel := 1; ret; }
    func t1 { block 0: r := a.acq; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)");
  Program T = createUnsafeReorder()->run(P);
  const BasicBlock &B = T.function(FuncId("t1")).block(0);
  ASSERT_TRUE(B.instructions()[0].isLoad());
  EXPECT_EQ(B.instructions()[0].readMode(), ReadMode::NA)
      << "unsafe variant should hoist the na load";

  BehaviorSet SrcB = exploreInterleaving(P);
  BehaviorSet TgtB = exploreInterleaving(T);
  ASSERT_TRUE(SrcB.Exhausted && TgtB.Exhausted);
  RefinementResult R = checkRefinement(TgtB, SrcB);
  EXPECT_FALSE(R.Holds) << "hoisting across an acquire must be refuted";
  // The stale-read behavior flag=1, payload=0 is the target-only witness.
  EXPECT_FALSE(SrcB.hasDone({10}));
  EXPECT_TRUE(TgtB.hasDone({10}));
}

TEST(ReorderTest, TransformedProgramsRoundTrip) {
  Program P = parseProgramOrDie(R"(var x; var y; var a atomic;
    func f { block 0: x.na := 1; r := y.na; a.rel := 2; r2 := y.na;
                      print(r + r2); ret; } thread f;)");
  Program T = createReorder()->run(P);
  ParseResult R = parseProgram(printProgram(T));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(*R.Prog == T);
}

} // namespace
} // namespace psopt
