//===- tests/ps/ThreadStepTest.cpp - Thread step relation tests ----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "ps/ThreadStep.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// Builds a one-thread setup for stepping the given function body.
struct StepEnv {
  Program P;
  ThreadState TS;
  Memory M;

  explicit StepEnv(const std::string &Src) {
    P = parseProgramOrDie(Src);
    std::set<VarId> Vars = P.referencedVars();
    for (VarId X : P.atomics())
      Vars.insert(X);
    M = Memory::initial(Vars);
    TS.Local = *LocalState::start(P, P.threads()[0]);
  }

  std::vector<ThreadSuccessor> programSteps() {
    std::vector<ThreadSuccessor> Out;
    enumerateProgramSteps(P, 0, TS, M, Out);
    return Out;
  }
};

TEST(ThreadStepTest, AssignIsSilentAndLocal) {
  StepEnv S(R"(func f { block 0: r := 2 + 3; ret; } thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].Ev.K, ThreadEvent::Kind::Tau);
  EXPECT_EQ(Succs[0].TS.Local.regs().get(RegId("r")), 5);
  EXPECT_EQ(Succs[0].Mem, S.M);
}

TEST(ThreadStepTest, PrintEmitsOut) {
  StepEnv S(R"(func f { block 0: print(7); ret; } thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_TRUE(Succs[0].Ev.isOut());
  EXPECT_EQ(Succs[0].Ev.OutVal, 7);
  EXPECT_TRUE(Succs[0].Ev.isAT()); // out is not in class NA (Fig 10)
}

TEST(ThreadStepTest, ReadEnumeratesAllVisibleMessages) {
  StepEnv S(R"(var x atomic; func f { block 0: r := x.rlx; ret; } thread f;)");
  VarId X("x");
  S.M.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  S.M.insert(Message::concrete(X, 2, Time(3), Time(4), View{}));
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 3u); // init 0, 1, 2
  std::set<Val> Vals;
  for (auto &Succ : Succs)
    Vals.insert(Succ.Ev.ReadVal);
  EXPECT_EQ(Vals, (std::set<Val>{0, 1, 2}));
}

TEST(ThreadStepTest, ReadBoundRespectsThreadView) {
  StepEnv S(R"(var x atomic; func f { block 0: r := x.rlx; ret; } thread f;)");
  VarId X("x");
  S.M.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  S.TS.V.setRlxAt(X, Time(2)); // already observed the second message
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].Ev.ReadVal, 1);
}

TEST(ThreadStepTest, NaReadUsesNaBoundButUpdatesRlx) {
  // §3: na reads are bounded by Tna and record the timestamp on Trlx.
  StepEnv S(R"(var x; func f { block 0: r := x.na; ret; } thread f;)");
  VarId X("x");
  S.M.insert(Message::concrete(X, 5, Time(1), Time(2), View{}));
  S.TS.V.setRlxAt(X, Time(2)); // Trlx high but Tna still 0:
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 2u); // both messages na-readable
  for (auto &Succ : Succs) {
    EXPECT_EQ(Succ.TS.V.naAt(X), Time(0));      // Tna untouched
    EXPECT_GE(Succ.TS.V.rlxAt(X), Time(2));     // Trlx never decreases
  }
}

TEST(ThreadStepTest, AcquireReadJoinsMessageView) {
  StepEnv S(R"(var x atomic; var z;
             func f { block 0: r := x.acq; ret; } thread f;)");
  VarId X("x"), Z("z");
  View MsgView;
  MsgView.setNaAt(Z, Time(9));
  MsgView.setRlxAt(Z, Time(9));
  S.M.insert(Message::concrete(X, 1, Time(1), Time(2), MsgView));
  for (auto &Succ : S.programSteps()) {
    if (Succ.Ev.ReadVal != 1)
      continue;
    EXPECT_EQ(Succ.TS.V.naAt(Z), Time(9));
    EXPECT_EQ(Succ.TS.V.rlxAt(Z), Time(9));
  }
}

TEST(ThreadStepTest, RelaxedReadIgnoresMessageView) {
  StepEnv S(R"(var x atomic; var z;
             func f { block 0: r := x.rlx; ret; } thread f;)");
  VarId X("x"), Z("z");
  View MsgView;
  MsgView.setNaAt(Z, Time(9));
  S.M.insert(Message::concrete(X, 1, Time(1), Time(2), MsgView));
  for (auto &Succ : S.programSteps())
    EXPECT_EQ(Succ.TS.V.naAt(Z), Time(0));
}

TEST(ThreadStepTest, WriteAdvancesBothViewComponents) {
  StepEnv S(R"(var x; func f { block 0: x.na := 3; ret; } thread f;)");
  VarId X("x");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u); // only the append placement on a fresh memory
  const ThreadSuccessor &W = Succs[0];
  EXPECT_EQ(W.Ev.K, ThreadEvent::Kind::Write);
  EXPECT_TRUE(W.Ev.isNA());
  EXPECT_GT(W.TS.V.naAt(X), Time(0));
  EXPECT_EQ(W.TS.V.naAt(X), W.TS.V.rlxAt(X));
  ASSERT_EQ(W.Mem.messages(X).size(), 2u);
  EXPECT_EQ(W.Mem.messages(X)[1].Value, 3);
  EXPECT_EQ(W.Mem.messages(X)[1].MsgView, View{}); // na writes carry V⊥
}

TEST(ThreadStepTest, WriteEnumeratesGapAndAppend) {
  StepEnv S(R"(var x; func f { block 0: x.na := 3; ret; } thread f;)");
  VarId X("x");
  S.M.insert(Message::concrete(X, 1, Time(4), Time(5), View{}));
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 2u); // gap (0,4) and append
}

TEST(ThreadStepTest, ReleaseWriteCarriesThreadView) {
  StepEnv S(R"(var x atomic; var z;
             func f { block 0: x.rel := 1; ret; } thread f;)");
  VarId X("x"), Z("z");
  S.TS.V.setNaAt(Z, Time(7));
  S.TS.V.setRlxAt(Z, Time(7));
  for (auto &Succ : S.programSteps()) {
    const Message &M = Succ.Mem.messages(X).back();
    EXPECT_EQ(M.MsgView.rlxAt(Z), Time(7));
    // The message view also covers the write itself.
    EXPECT_EQ(M.MsgView.rlxAt(X), M.To);
  }
}

TEST(ThreadStepTest, StoreCanFulfillMatchingPromise) {
  StepEnv S(R"(var x; func f { block 0: x.na := 3; ret; } thread f;)");
  VarId X("x");
  Message Prm = Message::concrete(X, 3, Time(1), Time(2), View{});
  Prm.Owner = 0;
  Prm.IsPromise = true;
  S.M.insert(Prm);
  auto Succs = S.programSteps();
  bool SawFulfil = false;
  for (auto &Succ : Succs) {
    if (!Succ.Mem.hasConcretePromises(0)) {
      SawFulfil = true;
      EXPECT_EQ(Succ.Mem.findConcrete(X, Time(2))->Value, 3);
    }
  }
  EXPECT_TRUE(SawFulfil);
}

TEST(ThreadStepTest, StoreCannotFulfillMismatchedPromise) {
  StepEnv S(R"(var x; func f { block 0: x.na := 4; ret; } thread f;)");
  VarId X("x");
  Message Prm = Message::concrete(X, 3, Time(1), Time(2), View{});
  Prm.Owner = 0;
  Prm.IsPromise = true;
  S.M.insert(Prm);
  for (auto &Succ : S.programSteps())
    EXPECT_TRUE(Succ.Mem.hasConcretePromises(0)); // value mismatch
}

TEST(ThreadStepTest, ReleaseWriteBlockedByOwnPromiseOnSameLocation) {
  StepEnv S(R"(var x atomic; func f { block 0: x.rel := 1; ret; } thread f;)");
  VarId X("x");
  Message Prm = Message::concrete(X, 1, Time(1), Time(2), View{});
  Prm.Owner = 0;
  Prm.IsPromise = true;
  S.M.insert(Prm);
  EXPECT_TRUE(S.programSteps().empty());
}

TEST(ThreadStepTest, CasSuccessForcesAdjacentInterval) {
  StepEnv S(R"(var x atomic;
             func f { block 0: r := cas(x, 0, 1, rlx, rlx); ret; }
             thread f;)");
  VarId X("x");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u); // only success: init value matches
  const ThreadSuccessor &U = Succs[0];
  EXPECT_EQ(U.Ev.K, ThreadEvent::Kind::Update);
  EXPECT_EQ(U.TS.Local.regs().get(RegId("r")), 1);
  const Message &NewMsg = U.Mem.messages(X).back();
  EXPECT_EQ(NewMsg.From, Time(0)); // from = read message's to
}

TEST(ThreadStepTest, CasFailureActsAsRead) {
  StepEnv S(R"(var x atomic;
             func f { block 0: r := cas(x, 5, 1, rlx, rlx); ret; }
             thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].Ev.K, ThreadEvent::Kind::Read);
  EXPECT_EQ(Succs[0].TS.Local.regs().get(RegId("r")), 0);
  EXPECT_EQ(Succs[0].Mem, S.M); // no write happened
}

TEST(ThreadStepTest, ModeMismatchAborts) {
  // x declared atomic, accessed na (validator would reject; the dynamic
  // semantics aborts).
  StepEnv S(R"(var x atomic; func f { block 0: r := x.na; ret; } thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_TRUE(Succs[0].Abort);
}

TEST(ThreadStepTest, TerminatorStepsAreSilent) {
  StepEnv S(R"(func f { block 0: jmp 1; block 1: ret; } thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].Ev.K, ThreadEvent::Kind::Tau);
  EXPECT_EQ(Succs[0].TS.Local.currentBlock(), 1u);
}

TEST(ThreadStepTest, CallAndReturn) {
  StepEnv S(R"(func f { block 0: call g, 1; block 1: ret; }
             func g { block 0: ret; }
             thread f;)");
  auto Succs = S.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  ThreadState InG = Succs[0].TS;
  EXPECT_EQ(InG.Local.currentFunc(), FuncId("g"));
  EXPECT_EQ(InG.Local.callStack().size(), 1u);

  // Step the ret of g: control returns to f at block 1.
  std::vector<ThreadSuccessor> Rets;
  enumerateProgramSteps(S.P, 0, InG, S.M, Rets);
  ASSERT_EQ(Rets.size(), 1u);
  EXPECT_EQ(Rets[0].TS.Local.currentFunc(), FuncId("f"));
  EXPECT_EQ(Rets[0].TS.Local.currentBlock(), 1u);
  EXPECT_TRUE(Rets[0].TS.Local.callStack().empty());

  // Final ret terminates the thread.
  std::vector<ThreadSuccessor> Final;
  enumerateProgramSteps(S.P, 0, Rets[0].TS, S.M, Final);
  ASSERT_EQ(Final.size(), 1u);
  EXPECT_TRUE(Final[0].TS.Local.isTerminated());

  // Terminated threads have no steps.
  std::vector<ThreadSuccessor> None;
  enumerateProgramSteps(S.P, 0, Final[0].TS, S.M, None);
  EXPECT_TRUE(None.empty());
}

TEST(ThreadStepTest, StepInPlaceDeclinesWithoutTouchingTheState) {
  auto ExpectDeclines = [](StepEnv &S) {
    ThreadState Before = S.TS;
    ThreadEvent Ev;
    EXPECT_FALSE(stepInPlace(S.P, 0, S.TS, S.M, Ev));
    EXPECT_TRUE(S.TS == Before);
  };
  // Mode mismatch: the step aborts.
  StepEnv Abort(R"(var x atomic; func f { block 0: r := x.na; ret; }
                  thread f;)");
  ExpectDeclines(Abort);
  // Two visible messages: the read branches.
  StepEnv Branch(R"(var x atomic; func f { block 0: r := x.rlx; ret; }
                   thread f;)");
  Branch.M.insert(Message::concrete(VarId("x"), 1, Time(1), Time(2), View{}));
  ExpectDeclines(Branch);
  // A store writes memory.
  StepEnv Store(R"(var x; func f { block 0: x.na := 1; ret; } thread f;)");
  ExpectDeclines(Store);
  // A release fence waits for the thread's outstanding promise.
  StepEnv Fence(R"(var x; func f { block 0: fence.rel; x.na := 1; ret; }
                  thread f;)");
  Message Prm = Message::concrete(VarId("x"), 1, Time(1), Time(2), View{});
  Prm.Owner = 0;
  Prm.IsPromise = true;
  Fence.M.insert(Prm);
  ExpectDeclines(Fence);
  // Returning to a missing block aborts after the call pushed its frame;
  // the failed return must not pop it.
  StepEnv Ret(R"(func f { block 0: call g, 9; } func g { block 0: ret; }
                thread f;)");
  ThreadEvent Ev;
  ASSERT_TRUE(stepInPlace(Ret.P, 0, Ret.TS, Ret.M, Ev)); // the call
  ASSERT_EQ(Ret.TS.Local.callStack().size(), 1u);
  ExpectDeclines(Ret);
  std::vector<ThreadSuccessor> Succs = Ret.programSteps();
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_TRUE(Succs[0].Abort);
}

TEST(ThreadStepTest, PromiseStepsRespectBounds) {
  StepEnv S(R"(var x; func f { block 0: x.na := 1; ret; } thread f;)");
  PromiseDomain D = computePromiseDomain(S.P, FuncId("f"));
  EXPECT_TRUE(D.Vars.count(VarId("x")));
  EXPECT_TRUE(D.Values.count(1));

  StepConfig C;
  C.EnablePromises = true;
  C.MaxOutstandingPromises = 1;
  std::vector<ThreadSuccessor> Out;
  enumeratePrcSteps(S.P, 0, S.TS, S.M, D, C, Out);
  ASSERT_FALSE(Out.empty());
  for (auto &Succ : Out)
    EXPECT_EQ(Succ.Ev.K, ThreadEvent::Kind::Promise);

  // With one promise outstanding, the bound forbids another.
  ThreadSuccessor First = Out[0];
  Out.clear();
  enumeratePrcSteps(S.P, 0, First.TS, First.Mem, D, C, Out);
  for (auto &Succ : Out)
    EXPECT_NE(Succ.Ev.K, ThreadEvent::Kind::Promise);
}

TEST(ThreadStepTest, PromiseDomainFollowsCalls) {
  StepEnv S(R"(var a; var b;
             func f { block 0: a.na := 1; call g, 1; block 1: ret; }
             func g { block 0: b.na := 2; ret; }
             thread f;)");
  PromiseDomain D = computePromiseDomain(S.P, FuncId("f"));
  EXPECT_TRUE(D.Vars.count(VarId("a")));
  EXPECT_TRUE(D.Vars.count(VarId("b")));
  EXPECT_TRUE(D.Values.count(2));
}

TEST(ThreadStepTest, ReleaseStoresAreNotPromisable) {
  StepEnv S(R"(var x atomic; func f { block 0: x.rel := 1; ret; } thread f;)");
  PromiseDomain D = computePromiseDomain(S.P, FuncId("f"));
  EXPECT_FALSE(D.Vars.count(VarId("x")));
}

TEST(ThreadStepTest, ReserveAndCancel) {
  StepEnv S(R"(var x; func f { block 0: x.na := 1; ret; } thread f;)");
  StepConfig C;
  C.EnablePromises = false;
  C.EnableReservations = true;
  PromiseDomain D;
  std::vector<ThreadSuccessor> Out;
  enumeratePrcSteps(S.P, 0, S.TS, S.M, D, C, Out);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out[0].Ev.K, ThreadEvent::Kind::Reserve);

  // The reservation can be cancelled.
  std::vector<ThreadSuccessor> Next;
  enumeratePrcSteps(S.P, 0, Out[0].TS, Out[0].Mem, D, C, Next);
  bool SawCancel = false;
  for (auto &Succ : Next)
    if (Succ.Ev.K == ThreadEvent::Kind::Cancel)
      SawCancel = true;
  EXPECT_TRUE(SawCancel);
}

} // namespace
} // namespace psopt
