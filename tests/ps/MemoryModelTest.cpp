//===- tests/ps/MemoryModelTest.cpp - Memory-model regression tests ----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// Focused regressions on the trickier corners of the PS2.1 implementation:
/// promise visibility, release-view contents, CAS chains, and view
/// monotonicity along executions.
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "explore/Explorer.h"
#include "lang/Parser.h"
#include "ps/ThreadStep.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

// Other threads can read a promise before it is fulfilled (the LB
// mechanism, §2.1) — here made visible with an explicit ordering print.
TEST(MemoryModelTest, PromisesAreReadableByOthers) {
  Program P = parseProgramOrDie(R"(var y atomic; var x atomic;
    func t1 { block 0: r1 := x.rlx; y.rlx := 1; ret; }
    func t2 { block 0: r2 := y.rlx; x.rlx := r2; print(r2); ret; }
    thread t1; thread t2;)");
  StepConfig SC;
  SC.EnablePromises = true;
  BehaviorSet B = exploreInterleaving(P, SC);
  ASSERT_TRUE(B.Exhausted);
  // t2 printing 1 means it read y = 1, possible only via t1's promise
  // (t1's actual write happens after reading x, and x = 1 needs t2 first).
  EXPECT_TRUE(B.hasDone({1}));
}

// A CAS chain: each CAS must read the previous one's write exactly
// (from = to), so the final value is deterministic per-location order.
TEST(MemoryModelTest, CasChainIsLinear) {
  Program P = parseProgramOrDie(R"(var c atomic;
    func f { block 0: r1 := cas(c, 0, 1, rlx, rlx);
                      r2 := cas(c, 1, 2, rlx, rlx);
                      print(r1 * 10 + r2); ret; }
    thread f;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({11}));
  EXPECT_EQ(B.Done.size(), 1u); // both succeed, deterministically
}

// Three-way CAS race on one cell: exactly one of three succeeds.
TEST(MemoryModelTest, ThreeWayCasRace) {
  Program P = parseProgramOrDie(R"(var c atomic;
    func f { block 0: r := cas(c, 0, 1, rlx, rlx); print(r); ret; }
    func g { block 0: r := cas(c, 0, 1, rlx, rlx); print(r); ret; }
    func h { block 0: r := cas(c, 0, 1, rlx, rlx); print(r); ret; }
    thread f; thread g; thread h;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDoneMultiset({1, 0, 0}));
  EXPECT_FALSE(B.hasDoneMultiset({1, 1, 0}));
  EXPECT_FALSE(B.hasDoneMultiset({1, 1, 1}));
  EXPECT_FALSE(B.hasDoneMultiset({0, 0, 0}));
}

// The release view covers everything the writer saw — including values it
// read from third parties, not just its own writes (view inheritance).
TEST(MemoryModelTest, ReleaseViewIsTransitive) {
  Program P = parseProgramOrDie(R"(var d; var f1 atomic; var f2 atomic;
    func a { block 0: d.na := 7; f1.rel := 1; ret; }
    func b { block 0: r := f1.acq; be r == 1, 1, 2;
             block 1: f2.rel := 1; ret;
             block 2: ret; }
    func c { block 0: r := f2.acq; be r == 1, 1, 2;
             block 1: v := d.na; print(v); ret;
             block 2: print(-1); ret; }
    thread a; thread b; thread c;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({7}));
  EXPECT_FALSE(B.hasDone({0})); // acq-rel chain forces visibility
}

// A relaxed link in the chain breaks the guarantee.
TEST(MemoryModelTest, RelaxedLinkBreaksTransitivity) {
  Program P = parseProgramOrDie(R"(var d; var f1 atomic; var f2 atomic;
    func a { block 0: d.na := 7; f1.rlx := 1; ret; }
    func b { block 0: r := f1.rlx; be r == 1, 1, 2;
             block 1: f2.rel := 1; ret;
             block 2: ret; }
    func c { block 0: r := f2.acq; be r == 1, 1, 2;
             block 1: v := d.na; print(v); ret;
             block 2: print(-1); ret; }
    thread a; thread b; thread c;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({0})); // stale read becomes possible
  EXPECT_TRUE(B.hasDone({7}));
}

// A thread always observes its own writes (view advances on writes).
TEST(MemoryModelTest, SelfReadsSeeOwnLatestWrite) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: x.na := 1; x.na := 2; r := x.na; print(r); ret; }
    thread f;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({2}));
  EXPECT_EQ(B.Done.size(), 1u);
}

// Reads never go backwards: after reading a new rlx message, re-reading an
// older one is impossible.
TEST(MemoryModelTest, RlxReadMonotone) {
  Program P = parseProgramOrDie(R"(var x atomic;
    func w { block 0: x.rlx := 1; ret; }
    func r { block 0: r1 := x.rlx; r2 := x.rlx; r3 := x.rlx;
             print(r1 * 100 + r2 * 10 + r3); ret; }
    thread w; thread r;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  for (const Trace &T : B.Done) {
    Val V = T[0];
    Val R1 = V / 100, R2 = (V / 10) % 10, R3 = V % 10;
    EXPECT_LE(R1, R2);
    EXPECT_LE(R2, R3);
  }
}

// Two releases on different locations: an acquire of the *second* does not
// leak the first thread's payload (no global synchronization).
TEST(MemoryModelTest, ReleasesAreticPerLocation) {
  Program P = parseProgramOrDie(R"(var d; var f1 atomic; var f2 atomic;
    func a { block 0: d.na := 7; f1.rel := 1; ret; }
    func b { block 0: f2.rel := 1; ret; }
    func c { block 0: r := f2.acq; be r == 1, 1, 2;
             block 1: v := d.na; print(v); ret;
             block 2: print(-1); ret; }
    thread a; thread b; thread c;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({0})); // b's release says nothing about d
}

// Fence-based message passing (PS1.0-style fences): fence.rel attaches the
// publisher's view to the later relaxed flag store, and the reader's
// fence.acq publishes the view its relaxed flag read banked. The stale
// read flag=1, payload=0 is forbidden — exactly rel/acq MP, via fences.
TEST(MemoryModelTest, FenceMpForbidsStaleRead) {
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; fence.rel; a.rlx := 1; ret; }
    func t1 { block 0: r := a.rlx; fence.acq; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({11}));  // synchronized pass-through
  EXPECT_FALSE(B.hasDone({10})); // stale payload after the fences: never
}

// Drop either fence and the stale read appears — both sides are
// load-bearing (this is what FenceWeaken's side conditions protect).
TEST(MemoryModelTest, FenceMpNeedsBothFences) {
  const char *NoAcq = R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; fence.rel; a.rlx := 1; ret; }
    func t1 { block 0: r := a.rlx; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)";
  const char *NoRel = R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; a.rlx := 1; ret; }
    func t1 { block 0: r := a.rlx; fence.acq; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)";
  for (const char *Src : {NoAcq, NoRel}) {
    BehaviorSet B = exploreInterleaving(parseProgramOrDie(Src));
    ASSERT_TRUE(B.Exhausted);
    EXPECT_TRUE(B.hasDone({10})) << Src;
  }
}

// An acqrel fence acts as both sides at once.
TEST(MemoryModelTest, AcqrelFenceSynchronizesBothWays) {
  Program P = parseProgramOrDie(R"(var d; var a atomic;
    func t0 { block 0: d.na := 1; fence.acqrel; a.rlx := 1; ret; }
    func t1 { block 0: r := a.rlx; fence.acqrel; r2 := d.na;
                       print((r * 10) + r2); ret; }
    thread t0; thread t1;)");
  BehaviorSet B = exploreInterleaving(P);
  ASSERT_TRUE(B.Exhausted);
  EXPECT_TRUE(B.hasDone({11}));
  EXPECT_FALSE(B.hasDone({10}));
}

// Acquire-view tracking is free without fences: at every reachable state
// of every fence-free program, the thread steps with tracking forced on
// equal those with it off except for the banked Acq view, which only an
// acquire fence ever reads. Machines leave tracking off for these
// programs (Machine::tracksAcqView), so their state graphs stay exactly
// the pre-fence ones.
TEST(MemoryModelTest, AcqViewTrackingIsFreeWithoutFences) {
  std::size_t States = 0, Banked = 0;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    if (programHasAcquireFence(NP.Prog))
      continue;
    SCOPED_TRACE(NP.Name);
    InterleavingMachine M(NP.Prog, NP.Config);
    ASSERT_FALSE(M.tracksAcqView());
    if (!M.initial())
      continue;
    MachineState Start = *M.initial();
    canonicalizeState(Start);
    std::vector<MachineSuccessor> Succs;
    auto Expand = [&](const MachineState &S, std::vector<MachineState> &Next) {
      for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T) {
        std::vector<ThreadSuccessor> Off, On;
        enumerateProgramSteps(NP.Prog, T, S.Threads[T], S.Mem, Off, false);
        enumerateProgramSteps(NP.Prog, T, S.Threads[T], S.Mem, On, true);
        ASSERT_EQ(Off.size(), On.size());
        for (std::size_t I = 0; I < Off.size(); ++I) {
          Banked += !(On[I].TS.Acq == Off[I].TS.Acq);
          ThreadState Stripped = On[I].TS;
          Stripped.Acq = Off[I].TS.Acq;
          EXPECT_TRUE(Stripped == Off[I].TS);
          EXPECT_TRUE(On[I].Ev == Off[I].Ev);
          EXPECT_TRUE(On[I].Mem == Off[I].Mem);
          EXPECT_EQ(On[I].Abort, Off[I].Abort);
        }
      }
      M.successors(S, Succs);
      for (MachineSuccessor &Succ : Succs) {
        if (Succ.Ev.K == MachineEvent::Kind::Abort)
          continue;
        canonicalizeState(Succ.State);
        Next.push_back(std::move(Succ.State));
      }
    };
    States += forEachReachableState(Start, 2000, Expand);
    if (HasFatalFailure())
      return;
  }
  EXPECT_GT(States, 1000u);
  EXPECT_GT(Banked, 0u) << "tracking never banked a view: vacuous sweep";
}

} // namespace
} // namespace psopt
