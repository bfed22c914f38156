//===- tests/ps/StoreReachTest.cpp - Unfulfillable-promise summary --------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// StoreReach, the per-control-point summary of the stores a thread can
/// still run while it holds a promise:
///
///  * hand-written cases for each way a store is (un)reachable: behind a
///    release fence, already passed, register-valued, in a callee, after a
///    call's return point, through a loop back-edge;
///  * a differential soundness check over the step-property programs and
///    the pass-sweep programs with promises on: at every reachable state,
///    every promise candidate the summary drops and every step the
///    machine's fast-fail rejects also fails certification, so the filter
///    changes no behavior.
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "lang/Parser.h"
#include "ps/Certification.h"
#include "ps/ThreadStep.h"
#include "support/PassTestSupport.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// A parsed program, its summary, and thread 0's local state at entry.
struct ReachEnv {
  Program P;
  StoreReach Reach;
  LocalState L;

  explicit ReachEnv(const std::string &Src)
      : P(parseProgramOrDie(Src)), Reach(P),
        L(*LocalState::start(P, P.threads()[0])) {}

  bool can(const char *X, Val V) const {
    return Reach.canStore(L, VarId(X), V);
  }

  /// Advances past \p N instructions.
  void skip(unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      L.advance();
  }

  /// Runs the terminator the control point sits on.
  void branch() { ASSERT_TRUE(L.applyTerminator(P)); }
};

TEST(StoreReachTest, ReleaseFenceEndsThePath) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: y.na := 2; fence.rel; x.na := 1; ret; }
             thread f;)");
  EXPECT_TRUE(E.can("y", 2));
  EXPECT_FALSE(E.can("x", 1)) << "store behind a release fence";
  E.skip(2); // past the fence: the thread held no promise there
  EXPECT_TRUE(E.can("x", 1));
  EXPECT_FALSE(E.can("y", 2));
}

TEST(StoreReachTest, AcquireFenceDoesNotBlock) {
  ReachEnv E(R"(var x;
             func f { block 0: fence.acq; x.na := 1; ret; } thread f;)");
  EXPECT_TRUE(E.can("x", 1));
}

TEST(StoreReachTest, PassedStoreIsOutOfReach) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: x.na := 1; y.na := 2; ret; } thread f;)");
  EXPECT_TRUE(E.can("x", 1));
  EXPECT_FALSE(E.can("x", 2)) << "wrong value";
  E.skip(1);
  EXPECT_FALSE(E.can("x", 1));
  EXPECT_TRUE(E.can("y", 2));
  E.skip(1); // at the terminator
  EXPECT_FALSE(E.can("y", 2));
  E.branch(); // ret: terminated
  ASSERT_TRUE(E.L.isTerminated());
  EXPECT_FALSE(E.can("y", 2));
}

TEST(StoreReachTest, ReleaseAndCasWritesCannotFulfil) {
  ReachEnv E(R"(var x atomic; var y atomic;
             func f { block 0: x.rel := 1; r := cas(y, 0, 1, rlx, rlx); ret; }
             thread f;)");
  EXPECT_FALSE(E.can("x", 1));
  EXPECT_FALSE(E.can("y", 1));
}

TEST(StoreReachTest, RegisterValuedStoreKeepsEveryValue) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: r := y.na; x.na := r + 1; y.na := 3; ret; }
             thread f;)");
  for (Val V : {0, 1, 7, 42})
    EXPECT_TRUE(E.can("x", V)) << V;
  EXPECT_TRUE(E.can("y", 3));
  EXPECT_FALSE(E.can("y", 4)) << "constant store keeps only its value";
}

TEST(StoreReachTest, StoreInCallee) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: call g, 1; block 1: ret; }
             func g { block 0: x.na := 3; call h, 1; block 1: ret; }
             func h { block 0: fence.rel; y.na := 4; ret; }
             thread f;)");
  EXPECT_TRUE(E.can("x", 3)); // through one call
  EXPECT_FALSE(E.can("y", 4)) << "callee's store sits behind a fence";
}

TEST(StoreReachTest, StoreAfterReturnPointReachedFromCallee) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: call g, 1; block 1: x.na := 4; ret; }
             func g { block 0: r := 1; ret; }
             thread f;)");
  EXPECT_TRUE(E.can("x", 4));
  E.branch(); // the call: now inside g, f:1 on the stack
  ASSERT_EQ(E.L.callStack().size(), 1u);
  EXPECT_TRUE(E.can("x", 4)) << "reached through the return point";
  EXPECT_FALSE(E.can("y", 4));

  // A callee that cannot return without a release fence, or at all, cuts
  // the return point off.
  for (const char *G : {"func g { block 0: fence.rel; ret; }",
                        "func g { block 0: jmp 0; }"}) {
    ReachEnv F(std::string(R"(var x;
               func f { block 0: call g, 1; block 1: x.na := 4; ret; })") +
               G + " thread f;");
    EXPECT_FALSE(F.can("x", 4)) << G;
    F.branch();
    EXPECT_FALSE(F.can("x", 4)) << G;
  }
}

TEST(StoreReachTest, StoreThroughLoopBackEdge) {
  ReachEnv E(R"(var x; var y atomic;
             func f { block 0: jmp 1;
                      block 1: x.na := 1; r := y.rlx; be r == 0, 1, 2;
                      block 2: ret; }
             thread f;)");
  E.branch(); // into the loop
  E.skip(1);  // past the store
  EXPECT_TRUE(E.can("x", 1)) << "the back-edge returns to the store";
  E.skip(1);
  E.L.regs().set(RegId("r"), 1);
  E.branch(); // loop exit
  EXPECT_FALSE(E.can("x", 1));
}

TEST(StoreReachTest, RecursionReachesAFixpoint) {
  ReachEnv E(R"(var x; var y;
             func f { block 0: r := 0; be r == 0, 1, 2;
                      block 1: call f, 2;
                      block 2: x.na := 5; ret; }
             thread f;)");
  EXPECT_TRUE(E.can("x", 5));
  E.skip(1);
  E.branch(); // to block 1
  E.branch(); // recursive call: f:2 on the stack
  EXPECT_TRUE(E.can("x", 5));
  EXPECT_FALSE(E.can("y", 0));
}

TEST(StoreReachTest, ViewPastThePromiseIsUnfulfillable) {
  Program P = parseProgramOrDie(R"(var x;
             func f { block 0: x.na := 1; ret; } thread f;)");
  StoreReach Reach(P);
  VarId X("x");
  ThreadState TS;
  TS.Local = *LocalState::start(P, P.threads()[0]);
  Memory M = Memory::initial({X});
  Message Prm = Message::concrete(X, 1, Time(1), Time(2), View{});
  Prm.Owner = 0;
  Prm.IsPromise = true;
  M.insert(Prm);
  EXPECT_TRUE(Reach.promisesFulfillable(0, TS, M));
  EXPECT_TRUE(Reach.promisesFulfillable(1, TS, M)) << "not thread 1's";
  TS.V.setRlxAt(X, Time(2));
  EXPECT_FALSE(Reach.promisesFulfillable(0, TS, M));
  EXPECT_FALSE(consistent(P, 0, TS, M, StepConfig{}));
}

/// The step-property programs and the 50 pass-sweep programs, those with
/// promises on.
std::vector<NamedProgram> promisePrograms() {
  std::vector<NamedProgram> Out;
  for (NamedProgram &NP : stepPropertyPrograms())
    if (NP.Config.EnablePromises)
      Out.push_back(std::move(NP));
  for (unsigned Seed = 0; Seed < 50; ++Seed)
    Out.push_back({"sweep:" + std::to_string(Seed),
                   generateRandomProgram(passSweepConfig(Seed)),
                   StepConfig{}});
  return Out;
}

TEST(StoreReachTest, EveryRejectionFailsCertification) {
  std::size_t States = 0, Dropped = 0, Rejected = 0;
  for (NamedProgram &NP : promisePrograms()) {
    SCOPED_TRACE(NP.Name);
    NP.Config.EnableCertCache = false;
    InterleavingMachine M(NP.Prog, NP.Config);
    if (!M.initial())
      continue;
    StoreReach Reach(NP.Prog);
    auto Certifies = [&](Tid T, const ThreadSuccessor &S) {
      return consistent(NP.Prog, T, S.TS, S.Mem, NP.Config, nullptr,
                        M.tracksAcqView());
    };
    MachineState Start = *M.initial();
    canonicalizeState(Start);
    std::vector<MachineSuccessor> Succs;
    std::vector<ThreadSuccessor> All, Kept;
    States += forEachReachableState(
        Start, 2000,
        [&](const MachineState &S, std::vector<MachineState> &Next) {
          for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T) {
            const ThreadState &TS = S.Threads[T];
            // PRC candidates: unfiltered (as SimChecker enumerates them)
            // against filtered.
            All.clear();
            Kept.clear();
            enumeratePrcSteps(NP.Prog, T, TS, S.Mem, M.promiseDomain(T),
                              NP.Config, All);
            enumeratePrcSteps(NP.Prog, T, TS, S.Mem, M.promiseDomain(T),
                              NP.Config, Kept, &Reach);
            std::size_t DroppedHere = 0;
            for (const ThreadSuccessor &Succ : All) {
              if (Succ.Ev.K != ThreadEvent::Kind::Promise ||
                  Reach.canStore(TS.Local, Succ.Ev.Var, Succ.Ev.WrittenVal))
                continue;
              ++DroppedHere;
              EXPECT_FALSE(Certifies(T, Succ))
                  << "dropped a certifiable promise " << Succ.Ev.Var.str()
                  << "=" << Succ.Ev.WrittenVal << "\n"
                  << S.str();
            }
            EXPECT_EQ(Kept.size() + DroppedHere, All.size());
            Dropped += DroppedHere;

            // The fast-fail on every other step: the program steps, added
            // to the PRC steps (promise steps skip it).
            enumerateProgramSteps(NP.Prog, T, TS, S.Mem, All,
                                  M.tracksAcqView());
            for (const ThreadSuccessor &Succ : All) {
              if (Succ.Abort || Succ.Ev.K == ThreadEvent::Kind::Promise ||
                  Reach.promisesFulfillable(T, Succ.TS, Succ.Mem))
                continue;
              ++Rejected;
              EXPECT_FALSE(Certifies(T, Succ))
                  << "rejected a certifiable step\n"
                  << S.str();
            }
          }
          M.successors(S, Succs);
          for (MachineSuccessor &Succ : Succs) {
            if (Succ.Ev.K == MachineEvent::Kind::Abort)
              continue;
            canonicalizeState(Succ.State);
            Next.push_back(std::move(Succ.State));
          }
        });
    if (HasFailure())
      return;
  }
  // The sweep must exercise both filters.
  EXPECT_GT(States, 20000u);
  EXPECT_GT(Dropped, 50000u);
  EXPECT_GT(Rejected, 10000u);
}

} // namespace
} // namespace psopt
