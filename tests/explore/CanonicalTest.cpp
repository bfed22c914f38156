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
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <optional>

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

TEST(CanonicalTest, SuccessorFallsBackWhenTheTimestampSetIsNotConsecutive) {
  // Hand-built children of a canonical parent, one per shape the scan
  // must refuse, plus the gap-free append it must accept. Each must end
  // as the full renaming leaves it.
  MachineState Parent = stateOf(R"(var x; func f { block 0: x.na := 1; ret; }
                                   thread f;)");
  VarId X("x");
  Parent.Mem.insert(Message::reservation(X, Time(1), Time(2), 0));
  Parent.Mem.insert(Message::concrete(X, 1, Time(3), Time(4), View{}));
  ASSERT_FALSE(canonicalizeState(Parent));

  auto Expect = [&](MachineState Child, bool Renamed) {
    MachineState Full = Child;
    EXPECT_EQ(canonicalizeState(Full), Renamed);
    EXPECT_EQ(canonicalizeSuccessor(Child, Parent), Renamed);
    EXPECT_EQ(Child.str(), Full.str());
  };
  MachineState Append = Parent;
  Append.Mem.insert(Message::concrete(X, 2, Time(5), Time(6), View{}));
  Expect(Append, false);
  MachineState GapAbove = Parent; // 5 is missing above K = 4
  GapAbove.Mem.insert(Message::concrete(X, 2, Time(6), Time(7), View{}));
  Expect(GapAbove, true);
  MachineState Split = Parent; // a fractional placement in a gap
  Split.Mem.insert(Message::concrete(X, 2, Time(5, 2), Time(3), View{}));
  Expect(Split, true);
  MachineState Cancel = Parent; // 1 leaves the state with the reservation
  Cancel.Mem.removeReservation(X, Time(2));
  Expect(Cancel, true);
}

/// The successor relations the searches walk: the reduced interleaving
/// graph (fused chains, projected states) and both machines' unreduced
/// graphs.
enum class Graph { Reduced, Interleaving, NonPreemptive };

/// Walks \p G of \p NP's program and calls \p Visit(Parent, Succ) on every
/// non-abort successor of every reached canonical state, the successor
/// projected first when the explorer would project it. The reduced walk
/// visits every fused and every unreduced successor of a state and follows
/// the fused one where there is one.
template <typename VisitT>
void walkSuccessors(const NamedProgram &NP, Graph G, VisitT &&Visit) {
  InterleavingMachine IM(NP.Prog, NP.Config);
  NonPreemptiveMachine NPM(NP.Prog, NP.Config);
  const Machine &M =
      G == Graph::NonPreemptive ? static_cast<const Machine &>(NPM) : IM;
  if (!M.initial())
    return;
  std::optional<Reducer> R;
  if (G == Graph::Reduced)
    R.emplace(IM);
  ReducerScratch Scr;
  MachineState Start = *M.initial();
  if (R)
    R->project(Start);
  canonicalizeState(Start);
  std::vector<MachineSuccessor> Succs;
  MachineSuccessor Fused;
  forEachReachableState(
      Start, 2000, [&](const MachineState &S, std::vector<MachineState> &Next) {
        bool HasFused = R && R->selectFused(S, Scr, Fused).Len != 0;
        if (HasFused) {
          R->project(Fused.State);
          Visit(S, Fused);
        }
        M.successors(S, Succs);
        for (MachineSuccessor &Succ : Succs) {
          if (Succ.Ev.K == MachineEvent::Kind::Abort)
            continue;
          if (R)
            R->project(Succ.State);
          Visit(S, Succ);
          canonicalizeState(Succ.State);
          if (!HasFused)
            Next.push_back(std::move(Succ.State));
        }
        if (HasFused) {
          canonicalizeState(Fused.State);
          Next.push_back(std::move(Fused.State));
        }
      });
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

TEST(CanonicalTest, ChildrenKeepingParentMemoryAreCanonical) {
  // Walk the reduced graph of every program in the step-property set; at
  // each state check every fused and every unreduced successor. Then walk
  // the unreduced graphs of both machines: the rule is machine- and
  // reduction-independent, and the explorer at --reduce=off, the race
  // checker and the witness search rely on it over both machines'
  // unreduced successor relations.
  RuleCount Count[3];
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    SCOPED_TRACE(NP.Name);
    for (Graph G : {Graph::Reduced, Graph::Interleaving, Graph::NonPreemptive})
      walkSuccessors(NP, G,
                     [&](const MachineState &S, const MachineSuccessor &Succ) {
                       Count[int(G)].check(S, Succ.State);
                     });
  }
  // Most steps read or compute; the rule must cover a real share of them.
  for (const RuleCount &C : Count)
    EXPECT_GT(C.Applied, C.Children / 4);
}

/// The step-property programs plus one with promises on and one with
/// reservations on: promises land in gaps between messages and cancels
/// remove reservations, the two shapes only the full renaming handles.
std::vector<NamedProgram> renamingPrograms() {
  std::vector<NamedProgram> Out = stepPropertyPrograms();
  StepConfig Promises;
  Promises.EnablePromises = true;
  Out.push_back({"promises:two_plus_two_w",
                 litmus("two_plus_two_w").Prog, Promises});
  StepConfig Reservations = Promises;
  Reservations.EnableReservations = true;
  Out.push_back({"reservations:cas_exclusive",
                 litmus("cas_exclusive").Prog, Reservations});
  return Out;
}

TEST(CanonicalTest, SuccessorFastPathMatchesFullRenaming) {
  const Statistic &FullRenamings = *findStatistic("explore", "full_renamings");
  std::size_t FastPath = 0, Fallback = 0;
  for (const NamedProgram &NP : renamingPrograms()) {
    SCOPED_TRACE(NP.Name);
    for (Graph G : {Graph::Reduced, Graph::Interleaving, Graph::NonPreemptive})
      walkSuccessors(NP, G, [&](const MachineState &S,
                                const MachineSuccessor &Succ) {
        MachineState Fast = Succ.State, Full = Succ.State;
        std::uint64_t Before = FullRenamings.value();
        bool Renamed = canonicalizeSuccessor(Fast, S);
        bool FellBack = FullRenamings.value() != Before;
        canonicalizeState(Full);
        EXPECT_EQ(Fast.str(), Full.str());
        EXPECT_EQ(Fast.hash(), Full.hash());
        EXPECT_EQ(Renamed, Full.str() != Succ.State.str());
        if (FellBack)
          ++Fallback;
        else if (!(Succ.State.Mem == S.Mem))
          ++FastPath; // a changed memory settled without the full renaming
      });
  }
  EXPECT_GT(FastPath, 0u);
  EXPECT_GT(Fallback, 0u);
}

TEST(CanonicalTest, SuccessorsDifferOnlyInTheSteppingThread) {
  // The state graph reuses the parent's pooled id for every thread but
  // the stepping one whenever canonicalizing the child renamed nothing;
  // the step relations (fused chains and projection included) must never
  // touch another thread.
  std::size_t Unrenamed = 0;
  for (const NamedProgram &NP : renamingPrograms()) {
    SCOPED_TRACE(NP.Name);
    for (Graph G : {Graph::Reduced, Graph::Interleaving, Graph::NonPreemptive})
      walkSuccessors(NP, G, [&](const MachineState &S,
                                const MachineSuccessor &Succ) {
        MachineState Child = Succ.State;
        if (canonicalizeSuccessor(Child, S))
          return;
        ++Unrenamed;
        ASSERT_EQ(Child.Threads.size(), S.Threads.size());
        for (std::size_t T = 0; T < S.Threads.size(); ++T) {
          if (T != std::size_t(Succ.Ev.Thread)) {
            EXPECT_TRUE(Child.Threads[T] == S.Threads[T])
                << "thread " << T << " changed by a step of thread "
                << Succ.Ev.Thread;
          }
        }
      });
  }
  EXPECT_GT(Unrenamed, 0u);
}

} // namespace
} // namespace psopt
