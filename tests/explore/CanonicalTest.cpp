//===- tests/explore/CanonicalTest.cpp - Canonicalization properties -----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "explore/Reduction.h"
#include "lang/Parser.h"
#include "nps/NPMachine.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

MachineState stateOf(const char *Src) {
  static std::vector<Program> Keep; // machines borrow the program
  Keep.push_back(parseProgramOrDie(Src));
  InterleavingMachine M(Keep.back(), StepConfig{});
  return *M.initial();
}

TEST(CanonicalTest, InitialStateIsFixpoint) {
  MachineState S = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                              thread f;)");
  MachineState T = S;
  canonicalizeState(T);
  EXPECT_TRUE(S == T);
}

TEST(CanonicalTest, RenamesToSmallIntegers) {
  MachineState S = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                              thread f;)");
  VarId X("x");
  S.Mem.insert(Message::concrete(X, 1, Time(7, 2), Time(19, 3), View{}));
  S.Threads[0].V.setRlxAt(X, Time(19, 3));
  canonicalizeState(S);
  // Timestamps present: 0, 7/2, 19/3 → renamed to 0, 1, 2.
  const Message &M = S.Mem.messages(X)[1];
  EXPECT_EQ(M.From, Time(1));
  EXPECT_EQ(M.To, Time(2));
  EXPECT_EQ(S.Threads[0].V.rlxAt(X), Time(2));
}

TEST(CanonicalTest, Idempotent) {
  MachineState S = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                              thread f;)");
  VarId X("x");
  S.Mem.insert(Message::concrete(X, 1, Time(1, 3), Time(1, 2), View{}));
  canonicalizeState(S);
  MachineState T = S;
  canonicalizeState(T);
  EXPECT_TRUE(S == T);
}

TEST(CanonicalTest, PreservesOrderAndAdjacency) {
  MachineState S = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                              thread f;)");
  VarId X("x");
  // Two adjacent messages (CAS chain shape) and one with a gap.
  S.Mem.insert(Message::concrete(X, 1, Time(0), Time(1, 2), View{}));
  S.Mem.insert(Message::concrete(X, 2, Time(1, 2), Time(3, 4), View{}));
  S.Mem.insert(Message::concrete(X, 3, Time(5), Time(6), View{}));
  canonicalizeState(S);
  const auto &Ms = S.Mem.messages(X);
  ASSERT_EQ(Ms.size(), 4u);
  // Adjacency m1.To == m2.From preserved.
  EXPECT_EQ(Ms[1].To, Ms[2].From);
  // Gap between message 2 and 3 preserved.
  EXPECT_LT(Ms[2].To, Ms[3].From);
  // Order is intact.
  EXPECT_LT(Ms[0].To, Ms[1].To);
  EXPECT_LT(Ms[1].To, Ms[2].To);
}

TEST(CanonicalTest, StatesDifferingOnlyInTimestampsCollapse) {
  MachineState A = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                              thread f;)");
  MachineState B = A;
  VarId X("x");
  A.Mem.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  B.Mem.insert(Message::concrete(X, 1, Time(3, 2), Time(100), View{}));
  canonicalizeState(A);
  canonicalizeState(B);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(CanonicalTest, MessageViewsAreRenamed) {
  // z must be referenced so the initial memory covers it.
  MachineState S = stateOf(R"(var x atomic; var z;
                              func f { block 0: z.na := 1; x.rel := 1; ret; }
                              thread f;)");
  VarId X("x"), Z("z");
  View MsgView;
  MsgView.setRlxAt(Z, Time(7));
  S.Mem.insert(Message::concrete(Z, 1, Time(5), Time(7), View{}));
  S.Mem.insert(Message::concrete(X, 1, Time(1), Time(2), MsgView));
  canonicalizeState(S);
  const Message &XMsg = S.Mem.messages(X)[1];
  const Message &ZMsg = S.Mem.messages(Z)[1];
  // The view entry still names z's To-timestamp after renaming.
  EXPECT_EQ(XMsg.MsgView.rlxAt(Z), ZMsg.To);
}

/// Checks the canonical-by-construction rule (Canonical.h) and tallies
/// how often it applied.
struct RuleCount {
  std::size_t Applied = 0, Children = 0;

  /// \p Child is a successor of canonical \p Parent, projected first when
  /// the explorer would project it: if it kept the parent's memory, it
  /// must be a fixed point of canonicalizeState.
  void check(const MachineState &Parent, const MachineState &Child) {
    ++Children;
    if (!(Child.Mem == Parent.Mem))
      return;
    ++Applied;
    MachineState Renamed = Child;
    canonicalizeState(Renamed);
    EXPECT_EQ(Renamed.str(), Child.str());
    EXPECT_EQ(Renamed.hash(), Child.hash());
  }
};

/// Walks \p M's unreduced graph (no projection: terminated threads keep
/// their views) and checks the rule on every successor.
void checkUnreducedChildren(const Machine &M, RuleCount &Count) {
  if (!M.initial())
    return;
  MachineState Start = *M.initial();
  canonicalizeState(Start);
  std::vector<MachineSuccessor> Succs;
  forEachReachableState(
      Start, 2000, [&](const MachineState &S, std::vector<MachineState> &Next) {
        M.successors(S, Succs);
        for (MachineSuccessor &Succ : Succs) {
          if (Succ.Ev.K == MachineEvent::Kind::Abort)
            continue;
          Count.check(S, Succ.State);
          canonicalizeState(Succ.State);
          Next.push_back(std::move(Succ.State));
        }
      });
}

TEST(CanonicalTest, ChildrenKeepingParentMemoryAreCanonical) {
  // Walk the reduced graph of every program in the step-property set; at
  // each state check every fused and every unreduced successor. Then walk
  // the unreduced graphs of both machines.
  RuleCount Count, Interleaving, NonPreemptive;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    SCOPED_TRACE(NP.Name);
    InterleavingMachine M(NP.Prog, NP.Config);
    if (!M.initial())
      continue;
    Reducer R(M);
    ReducerScratch Scr;
    MachineState Start = *M.initial();
    R.project(Start);
    canonicalizeState(Start);
    std::vector<MachineSuccessor> Succs;
    MachineSuccessor Fused;
    forEachReachableState(
        Start, 2000,
        [&](const MachineState &S, std::vector<MachineState> &Next) {
          bool HasFused = R.selectFused(S, Scr, Fused).Len != 0;
          if (HasFused) {
            R.project(Fused.State);
            Count.check(S, Fused.State);
          }
          M.successors(S, Succs);
          for (MachineSuccessor &Succ : Succs) {
            if (Succ.Ev.K == MachineEvent::Kind::Abort)
              continue;
            R.project(Succ.State);
            Count.check(S, Succ.State);
            canonicalizeState(Succ.State);
            if (!HasFused)
              Next.push_back(std::move(Succ.State));
          }
          if (HasFused) {
            canonicalizeState(Fused.State);
            Next.push_back(std::move(Fused.State));
          }
        });
    // The rule is machine- and reduction-independent: the explorer at
    // --reduce=off, the race checker and the witness search rely on it
    // over both machines' unreduced successor relations.
    checkUnreducedChildren(M, Interleaving);
    checkUnreducedChildren(NonPreemptiveMachine(NP.Prog, NP.Config),
                           NonPreemptive);
  }
  // Most steps read or compute; the rule must cover a real share of them.
  EXPECT_GT(Count.Applied, Count.Children / 4);
  EXPECT_GT(Interleaving.Applied, Interleaving.Children / 4);
  EXPECT_GT(NonPreemptive.Applied, NonPreemptive.Children / 4);
}

} // namespace
} // namespace psopt
