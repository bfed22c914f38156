//===- tests/ps/StateShareTest.cpp - Structure-sharing state tests ------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The structure-sharing state representation (DESIGN.md §11): copying a
/// MachineState must be observationally a deep copy — mutating a successor
/// (its memory, its views) never perturbs the parent — even
/// though memory message lists are shared copy-on-write under the hood.
/// Alongside the COW-aliasing units, a randomized parent-child divergence
/// sweep drives real successor enumeration on random programs and checks
/// parent snapshots survive arbitrary child mutation.
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"
#include "ps/Machine.h"

#include <gtest/gtest.h>

#include <random>

namespace psopt {
namespace {

/// A full observational snapshot of a machine state: rendered text plus the
/// content hashes. Any later mutation of a *different* state value must
/// leave all of it unchanged.
struct StateSnapshot {
  std::string Str;
  std::size_t Hash;
  std::string MemStr;
  std::size_t MemHash;

  explicit StateSnapshot(const MachineState &S)
      : Str(S.str()), Hash(S.hash()), MemStr(S.Mem.str()),
        MemHash(S.Mem.hash()) {}

  void expectUnchanged(const MachineState &S) const {
    EXPECT_EQ(Str, S.str());
    EXPECT_EQ(Hash, S.hash());
    EXPECT_EQ(MemStr, S.Mem.str());
    EXPECT_EQ(MemHash, S.Mem.hash());
  }
};

TEST(StateShareTest, CopiedMemoryIsIndependent) {
  VarId X("ss_x"), Y("ss_y");
  Memory A = Memory::initial({X, Y});
  A.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  std::string AStr = A.str();
  std::size_t AHash = A.hash();

  Memory B = A; // cheap copy: shares message lists until a mutation
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());

  B.insert(Message::concrete(Y, 7, Time(3), Time(4), View{}));
  EXPECT_EQ(AStr, A.str()) << "mutating the copy leaked into the original";
  EXPECT_EQ(AHash, A.hash());
  EXPECT_FALSE(A == B);

  // Mutating the original's already-diverged location leaves the copy alone.
  A.insert(Message::concrete(X, 9, Time(5), Time(6), View{}));
  EXPECT_EQ(B.messages(X).size(), 2u);
  EXPECT_EQ(B.messages(Y).size(), 2u);
}

TEST(StateShareTest, InPlaceMessageRewriteDoesNotLeakAcrossCopies) {
  VarId X("ss_fp");
  Memory A = Memory::initial({X});
  Message Prm = Message::concrete(X, 7, Time(1), Time(2), View{});
  Prm.Owner = 1;
  Prm.IsPromise = true;
  A.insert(Prm);

  Memory B = A;
  std::string AStr = A.str();
  B.fulfillPromise(X, Time(2), View{});
  EXPECT_EQ(AStr, A.str()) << "fulfillPromise mutated a shared list";
  EXPECT_TRUE(A.hasConcretePromises(1));
  EXPECT_FALSE(B.hasConcretePromises(1));
}

TEST(StateShareTest, EraseAndRemoveReservationAreCopyLocal) {
  VarId X("ss_er");
  Memory A = Memory::initial({X});
  A.insert(Message::reservation(X, Time(1), Time(2), 0));
  A.insert(Message::concrete(X, 3, Time(4), Time(5), View{}));

  Memory B = A;
  B.removeReservation(X, Time(2));
  B.erase(X, Time(5));
  EXPECT_EQ(A.messages(X).size(), 3u);
  EXPECT_EQ(B.messages(X).size(), 1u);
}

TEST(StateShareTest, CappedMemoryLeavesSourceUntouched) {
  VarId X("ss_cap");
  Memory A = Memory::initial({X});
  A.insert(Message::concrete(X, 1, Time(2), Time(3), View{}));
  std::string AStr = A.str();
  std::size_t AHash = A.hash();
  Memory Capped = A.capped(0);
  EXPECT_EQ(AStr, A.str());
  EXPECT_EQ(AHash, A.hash());
  EXPECT_GT(Capped.messages(X).size(), A.messages(X).size());
}

TEST(StateShareTest, ViewCopiesAreIndependent) {
  VarId X("ss_vx"), Y("ss_vy");
  View A;
  A.setNaAt(X, Time(2));
  A.setRlxAt(X, Time(3));
  std::size_t AHash = A.hash();

  View B = A;
  EXPECT_EQ(A, B);
  B.joinRlxAt(Y, Time(9));
  B.setNaAt(X, Time(7));
  EXPECT_EQ(A.naAt(X), Time(2));
  EXPECT_EQ(A.rlxAt(Y), Time(0));
  EXPECT_EQ(AHash, A.hash());
  EXPECT_FALSE(A == B);
}

TEST(StateShareTest, SuccessorMutationNeverPerturbsParent) {
  // Drive real successor enumeration on every litmus program: snapshot the
  // parent, then canonicalize and further mutate every child.
  for (const LitmusTest &T : allLitmusTests()) {
    SCOPED_TRACE(T.Name);
    InterleavingMachine M(T.Prog, T.SuggestedConfig());
    ASSERT_TRUE(M.initial());
    MachineState Parent = *M.initial();
    canonicalizeState(Parent);
    StateSnapshot Snap(Parent);

    std::vector<MachineSuccessor> Succs;
    M.successors(Parent, Succs);
    Snap.expectUnchanged(Parent);

    for (MachineSuccessor &S : Succs) {
      canonicalizeState(S.State);
      // Arbitrary child-side abuse: join views forward, touch memory.
      for (ThreadState &TS : S.State.Threads)
        TS.V.joinRlxAt(VarId("ss_poison"), Time(99));
      S.State.Mem.insert(Message::concrete(VarId("ss_poison"), 1, Time(100),
                                           Time(101), View{}));
      (void)S.State.hash();
    }
    Snap.expectUnchanged(Parent);
  }
}

TEST(StateShareTest, RandomizedParentChildDivergence) {
  // Random-program sweep: walk a random path through the state graph; at
  // every step snapshot the parent, expand, mutate every child, and check
  // the parent (and the grandparent trail) is bit-stable.
  std::mt19937_64 Rng(20260808);
  for (unsigned I = 0; I < 12; ++I) {
    RandomProgramConfig C;
    C.Seed = 31000 + I;
    C.NumThreads = 2 + I % 2;
    C.NumNaVars = 2;
    C.NumAtomicVars = 1 + I % 2;
    C.AllowCas = I % 3 == 0;
    C.InstrsPerThread = 3;
    Program P = generateRandomProgram(C);
    StepConfig SC;
    SC.EnablePromises = I % 4 == 0;
    InterleavingMachine M(P, SC);
    ASSERT_TRUE(M.initial());
    SCOPED_TRACE("seed " + std::to_string(C.Seed));

    MachineState Cur = *M.initial();
    canonicalizeState(Cur);
    std::vector<MachineState> Trail;
    std::vector<StateSnapshot> Snaps;
    std::vector<MachineSuccessor> Succs;
    for (unsigned Depth = 0; Depth < 8; ++Depth) {
      Trail.push_back(Cur);
      Snaps.emplace_back(Trail.back());

      M.successors(Cur, Succs);
      if (Succs.empty())
        break;
      std::size_t Pick = Rng() % Succs.size();
      MachineState Next = Succs[Pick].State;
      canonicalizeState(Next);

      // Mutate every non-picked child aggressively; ancestors must hold.
      for (std::size_t J = 0; J < Succs.size(); ++J) {
        if (J == Pick)
          continue;
        MachineSuccessor &S = Succs[J];
        S.State.Mem.insert(Message::concrete(
            VarId("ss_noise"), 5, Time(500 + Depth), Time(501 + Depth),
            View{}));
        for (ThreadState &TS : S.State.Threads)
          TS.V.setRlxAt(VarId("ss_noise"), Time(501 + Depth));
        (void)S.State.hash();
      }
      for (std::size_t J = 0; J < Trail.size(); ++J)
        Snaps[J].expectUnchanged(Trail[J]);
      Cur = std::move(Next);
      if (Cur.allTerminated())
        break;
    }
    for (std::size_t J = 0; J < Trail.size(); ++J)
      Snaps[J].expectUnchanged(Trail[J]);
  }
}

TEST(StateShareTest, HashFastPathAgreesWithEquality) {
  // Value-keyed sets probe by hash, then equality: equal states must hash
  // alike and compare equal whether or not either was hashed first, and a
  // successor must compare unequal to its parent.
  const LitmusTest &T = litmus("sb");
  InterleavingMachine M(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(M.initial());
  MachineState A = *M.initial();
  MachineState B = *M.initial();
  canonicalizeState(A);
  canonicalizeState(B);
  (void)A.hash();
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.hash(), B.hash());

  std::vector<MachineSuccessor> Succs;
  M.successors(A, Succs);
  ASSERT_FALSE(Succs.empty());
  canonicalizeState(Succs[0].State);
  EXPECT_FALSE(A == Succs[0].State);
}

/// A memory over X and Y whose X list is borrowed from \p Lender, the way
/// the state graph points its states at its list pool's copies.
Memory borrowingX(const Memory &Lender, VarId X, VarId Y) {
  Memory M = Memory::initial({X, Y});
  EXPECT_EQ(M.storage()[0].var(), X);
  M.borrowListAt(0, Lender.storage()[0]);
  return M;
}

TEST(StateShareTest, BorrowedListCopyDoesNotOwn) {
  VarId X("ss_bx"), Y("ss_by");
  Memory Lender = Memory::initial({X});
  Lender.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  Memory M = borrowingX(Lender, X, Y);
  EXPECT_TRUE(M.storage()[0].sharesListWith(Lender.storage()[0]));
  EXPECT_FALSE(M.storage()[0].ownsList());
  EXPECT_TRUE(M.storage()[1].ownsList());

  Memory Copy = M;
  EXPECT_TRUE(Copy.storage()[0].sharesListWith(Lender.storage()[0]));
  EXPECT_FALSE(Copy.storage()[0].ownsList());
  EXPECT_TRUE(Copy.storage()[1].sharesListWith(M.storage()[1]));
  EXPECT_TRUE(Copy.storage()[1].ownsList());
  EXPECT_TRUE(Lender.storage()[0].ownsList());
}

TEST(StateShareTest, WritingABorrowedListClonesIt) {
  VarId X("ss_wx"), Y("ss_wy");
  Memory Lender = Memory::initial({X});
  Lender.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  const MessageList Before = Lender.messages(X);
  const std::string LenderStr = Lender.str();

  Memory A = borrowingX(Lender, X, Y);
  A.insert(Message::concrete(X, 2, Time(3), Time(4), View{}));
  EXPECT_FALSE(A.storage()[0].sharesListWith(Lender.storage()[0]));
  EXPECT_TRUE(A.storage()[0].ownsList());
  EXPECT_EQ(A.messages(X).size(), 3u);

  Memory B = borrowingX(Lender, X, Y);
  MessageList &L = B.mutableListAt(0);
  EXPECT_FALSE(B.storage()[0].sharesListWith(Lender.storage()[0]));
  EXPECT_TRUE(B.storage()[0].ownsList());
  L.back().Value = 9;

  EXPECT_EQ(Lender.messages(X), Before);
  EXPECT_EQ(Lender.str(), LenderStr);
  EXPECT_TRUE(Lender.storage()[0].ownsList());
}

TEST(StateShareTest, BorrowedAndOwnedListsCompareByContent) {
  VarId X("ss_ex"), Y("ss_ey");
  Memory Lender = Memory::initial({X});
  Lender.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  Memory Borrowing = borrowingX(Lender, X, Y);
  Memory Owning = Memory::initial({X, Y});
  Owning.insert(Message::concrete(X, 1, Time(1), Time(2), View{}));
  ASSERT_TRUE(Owning.storage()[0].ownsList());
  ASSERT_FALSE(Owning.storage()[0].sharesListWith(Borrowing.storage()[0]));

  EXPECT_TRUE(Borrowing == Owning);
  EXPECT_TRUE(Owning == Borrowing);
  EXPECT_EQ(Borrowing.hash(), Owning.hash());

  Owning.insert(Message::concrete(Y, 2, Time(1), Time(2), View{}));
  EXPECT_FALSE(Borrowing == Owning);
}

TEST(StateShareTest, CappedMemoryOwnsEveryList) {
  VarId X("ss_cx"), Y("ss_cy");
  Memory Lender = Memory::initial({X});
  Lender.insert(Message::concrete(X, 1, Time(2), Time(3), View{}));
  Memory M = borrowingX(Lender, X, Y);
  Memory Capped = M.capped(0);
  ASSERT_EQ(Capped.storage().size(), 2u);
  for (const Memory::Loc &L : Capped.storage()) {
    EXPECT_TRUE(L.ownsList());
    EXPECT_FALSE(L.sharesListWith(Lender.storage()[0]));
    EXPECT_FALSE(L.sharesListWith(M.storage()[1]));
  }
}

} // namespace
} // namespace psopt
