//===- tests/ps/StepInPlaceTest.cpp - One step semantics, two entry points ===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// stepInPlace and enumerateProgramSteps must be one step relation: at every
/// reachable state of every litmus test and a random-program sweep (with
/// promises on and off, and fence programs under acquire-view tracking), for every
/// thread,
///
///  * when stepInPlace fires, its state and event equal the single
///    successor the enumeration produces, and memory is unchanged;
///  * when it declines, the thread state is untouched, and the enumeration
///    does not offer exactly one non-aborting, memory-preserving successor
///    of a kind stepInPlace covers (everything but store and CAS).
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "ps/ThreadStep.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// True when \p TS's next step is one stepInPlace handles: a terminator or
/// any instruction but a store or CAS.
bool coveredKind(const Program &P, const ThreadState &TS) {
  const Instr *I = TS.Local.currentInstr(P);
  return !I || (I->kind() != Instr::Kind::Store &&
                I->kind() != Instr::Kind::Cas);
}

struct Tally {
  std::size_t States = 0;
  std::size_t Fired = 0;
  std::size_t FiredReads = 0;
  std::size_t FiredFences = 0;
  std::size_t Declined = 0;
};

void checkThread(const Machine &M, const MachineState &S, Tid T, Tally &N) {
  const Program &P = M.program();
  const ThreadState &TS = S.Threads[T];
  std::vector<ThreadSuccessor> Steps;
  enumerateProgramSteps(P, T, TS, S.Mem, Steps, M.tracksAcqView());

  ThreadState InPlace = TS;
  ThreadEvent Ev;
  bool Fired = stepInPlace(P, T, InPlace, S.Mem, Ev, M.tracksAcqView());
  bool Deterministic = Steps.size() == 1 && !Steps[0].Abort &&
                       Steps[0].Mem == S.Mem && coveredKind(P, TS);
  if (Fired) {
    ++N.Fired;
    N.FiredReads += Ev.K == ThreadEvent::Kind::Read;
    N.FiredFences += Ev.K == ThreadEvent::Kind::Fence;
    ASSERT_TRUE(Deterministic) << "fired where the enumeration branches";
    EXPECT_TRUE(InPlace == Steps[0].TS);
    EXPECT_EQ(InPlace.hash(), Steps[0].TS.hash());
    EXPECT_TRUE(Ev == Steps[0].Ev);
  } else {
    ++N.Declined;
    EXPECT_TRUE(InPlace == TS) << "declined but edited the thread state";
    EXPECT_EQ(InPlace.hash(), TS.hash());
    EXPECT_FALSE(Deterministic) << "declined a deterministic local step";
  }
}

TEST(StepInPlaceTest, AgreesWithEnumerationOnEveryReachableState) {
  Tally N;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    SCOPED_TRACE(NP.Name);
    InterleavingMachine M(NP.Prog, NP.Config);
    if (!M.initial())
      continue;
    MachineState Start = *M.initial();
    canonicalizeState(Start);
    std::vector<MachineSuccessor> Succs;
    N.States += forEachReachableState(
        Start, 2000,
        [&](const MachineState &S, std::vector<MachineState> &Next) {
          for (std::size_t T = 0; T < S.Threads.size(); ++T)
            checkThread(M, S, static_cast<Tid>(T), N);
          M.successors(S, Succs);
          for (MachineSuccessor &Succ : Succs) {
            if (Succ.Ev.K == MachineEvent::Kind::Abort)
              continue;
            canonicalizeState(Succ.State);
            Next.push_back(std::move(Succ.State));
          }
        });
    if (HasFatalFailure())
      return;
  }
  // The sweep must exercise every interesting branch of the primitive.
  EXPECT_GT(N.States, 1000u);
  EXPECT_GT(N.FiredReads, 0u);
  EXPECT_GT(N.FiredFences, 0u);
  EXPECT_GT(N.Declined, 0u);
  EXPECT_GT(N.Fired, N.FiredReads + N.FiredFences);
}

} // namespace
} // namespace psopt
