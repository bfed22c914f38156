//===- tests/nps/NPMachineTest.cpp - Switch-bit discipline tests -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// Direct successor-level tests of Fig 10's rules: which thread may step
/// when, and how each event class moves the switch bit β.
///
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "nps/NPMachine.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <set>

namespace psopt {
namespace {

struct NPEnv {
  Program P;
  NonPreemptiveMachine M;
  MachineState S;

  explicit NPEnv(const char *Src, StepConfig SC = {})
      : P(parseProgramOrDie(Src)), M(P, SC), S(*M.initial()) {}

  std::vector<MachineSuccessor> succs() {
    std::vector<MachineSuccessor> Out;
    M.successors(S, Out);
    return Out;
  }

  std::set<Tid> steppingThreads() {
    std::set<Tid> Out;
    for (const MachineSuccessor &MS : succs())
      Out.insert(MS.Ev.Thread);
    return Out;
  }
};

const char *TwoNaThreads = R"(var x; var y;
  func f { block 0: x.na := 1; x.na := 2; ret; }
  func g { block 0: y.na := 1; ret; }
  thread f; thread g;)";

TEST(NPMachineTest, InitialStateAllowsAllThreads) {
  NPEnv E(TwoNaThreads);
  EXPECT_TRUE(E.S.SwitchAllowed);
  EXPECT_EQ(E.steppingThreads(), (std::set<Tid>{0, 1}));
}

TEST(NPMachineTest, NaStepClosesTheSwitchBit) {
  StepConfig SC;
  SC.EnablePromises = false; // program steps only
  NPEnv E(TwoNaThreads, SC);
  auto Succs = E.succs();
  ASSERT_FALSE(Succs.empty());
  for (const MachineSuccessor &MS : Succs) {
    ASSERT_TRUE(MS.Ev.ThreadEv.isNA());
    EXPECT_FALSE(MS.State.SwitchAllowed);
    EXPECT_EQ(MS.State.Cur, MS.Ev.Thread);
  }
}

TEST(NPMachineTest, ClosedBitRestrictsToCurrentThread) {
  NPEnv E(TwoNaThreads);
  // Step thread 0 once (na write): β turns off.
  auto Succs = E.succs();
  for (auto &MS : Succs) {
    if (MS.Ev.Thread == 0) {
      E.S = MS.State;
      break;
    }
  }
  ASSERT_FALSE(E.S.SwitchAllowed);
  EXPECT_EQ(E.steppingThreads(), (std::set<Tid>{0}));
}

TEST(NPMachineTest, AtomicStepReopensTheSwitchBit) {
  StepConfig SC;
  SC.EnablePromises = false;
  NPEnv E(R"(var a atomic; var y;
    func f { block 0: a.rlx := 1; y.na := 1; ret; }
    func g { block 0: y.na := 2; ret; }
    thread f; thread g;)", SC);
  for (const MachineSuccessor &MS : E.succs()) {
    if (MS.Ev.Thread != 0)
      continue;
    // Thread 0's first step is the atomic write: AT class, β stays ◦.
    ASSERT_TRUE(MS.Ev.ThreadEv.isAT());
    EXPECT_TRUE(MS.State.SwitchAllowed);
  }
}

TEST(NPMachineTest, OutIsAtomicForSwitching) {
  // Fig 10: NA = {τ, R(na), W(na)}; out(v) is not in NA, so printing
  // reopens the switch bit.
  NPEnv E(R"(var x;
    func f { block 0: x.na := 1; print(1); ret; }
    func g { block 0: r := x.na; ret; }
    thread f; thread g;)");
  // Drive thread 0 through the na write (β closes) then the print.
  auto First = E.succs();
  for (auto &MS : First)
    if (MS.Ev.Thread == 0 && MS.Ev.ThreadEv.K == ThreadEvent::Kind::Write)
      E.S = MS.State;
  ASSERT_FALSE(E.S.SwitchAllowed);
  auto Second = E.succs();
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(Second[0].Ev.K, MachineEvent::Kind::Out);
  EXPECT_TRUE(Second[0].State.SwitchAllowed);
}

TEST(NPMachineTest, PromisesOnlyAtOpenSwitchBit) {
  StepConfig SC;
  SC.EnablePromises = true;
  NPEnv E(TwoNaThreads, SC);
  // Initially promises are offered.
  bool SawPromise = false;
  for (const MachineSuccessor &MS : E.succs())
    SawPromise |= MS.Ev.ThreadEv.K == ThreadEvent::Kind::Promise;
  EXPECT_TRUE(SawPromise);

  // After an na step (β = •), the running thread may not promise.
  for (const MachineSuccessor &MS : E.succs()) {
    if (MS.Ev.Thread == 0 && MS.Ev.ThreadEv.K == ThreadEvent::Kind::Write) {
      E.S = MS.State;
      break;
    }
  }
  ASSERT_FALSE(E.S.SwitchAllowed);
  for (const MachineSuccessor &MS : E.succs())
    EXPECT_NE(MS.Ev.ThreadEv.K, ThreadEvent::Kind::Promise);
}

TEST(NPMachineTest, ClosedBitEnumeratesNoPromiseCandidates) {
  // With β = •, promise candidates are not even enumerated: every thread
  // step the machine counts is one it lifts (no promise is outstanding,
  // so certification rejects nothing here).
  NPEnv E(TwoNaThreads);
  for (const MachineSuccessor &MS : E.succs()) {
    if (MS.Ev.Thread == 0 && MS.Ev.ThreadEv.K == ThreadEvent::Kind::Write &&
        !MS.State.Mem.hasConcretePromises(0)) {
      E.S = MS.State;
      break;
    }
  }
  ASSERT_FALSE(E.S.SwitchAllowed);
  StatisticSnapshot Before;
  std::vector<MachineSuccessor> Succs = E.succs();
  ASSERT_FALSE(Succs.empty());
  EXPECT_EQ(Before.delta("machine", "thread_steps"), Succs.size());
  EXPECT_EQ(Before.delta("machine", "unfulfillable_rejects"), 0u);
}

TEST(NPMachineTest, ThreadExitReopensTheSwitchBit) {
  NPEnv E(R"(var x; var y;
    func f { block 0: x.na := 1; ret; }
    func g { block 0: y.na := 1; ret; }
    thread f; thread g;)");
  // Run thread 0 to termination: write (β=•), ret (τ — but thread exit
  // reopens β so thread 1 can run).
  for (int Step = 0; Step < 2; ++Step) {
    auto Succs = E.succs();
    bool Advanced = false;
    for (auto &MS : Succs) {
      if (MS.Ev.Thread == 0) {
        E.S = MS.State;
        Advanced = true;
        break;
      }
    }
    ASSERT_TRUE(Advanced);
  }
  ASSERT_TRUE(E.S.Threads[0].Local.isTerminated());
  EXPECT_TRUE(E.S.SwitchAllowed);
  EXPECT_EQ(E.steppingThreads(), (std::set<Tid>{1}));
}

TEST(NPMachineTest, CancelKeepsTheSwitchBit) {
  StepConfig SC;
  SC.EnablePromises = false;
  SC.EnableReservations = true;
  NPEnv E(TwoNaThreads, SC);
  // Reserve (β stays ◦), then na-step the same thread (β closes), then the
  // cancel must still be offered and keep β closed.
  for (auto &MS : E.succs()) {
    if (MS.Ev.Thread == 0 && MS.Ev.ThreadEv.K == ThreadEvent::Kind::Reserve) {
      E.S = MS.State;
      break;
    }
  }
  ASSERT_TRUE(E.S.SwitchAllowed);
  for (auto &MS : E.succs()) {
    if (MS.Ev.Thread == 0 && MS.Ev.ThreadEv.K == ThreadEvent::Kind::Write) {
      E.S = MS.State;
      break;
    }
  }
  ASSERT_FALSE(E.S.SwitchAllowed);
  bool SawCancel = false;
  for (auto &MS : E.succs()) {
    if (MS.Ev.ThreadEv.K == ThreadEvent::Kind::Cancel) {
      SawCancel = true;
      EXPECT_FALSE(MS.State.SwitchAllowed) << "ccl must preserve β";
    }
  }
  EXPECT_TRUE(SawCancel);
}

} // namespace
} // namespace psopt
