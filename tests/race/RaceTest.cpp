//===- tests/race/RaceTest.cpp - ww-RF / rw-race tests (E3) --------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// §5 (Fig 11) write-write race freedom, Lm 5.1 (ww-RF ⇔ ww-NPRF), the
/// promise-sensitivity of Fig 4, and the §2.5 read-write race phenomena of
/// Fig 5(b).
///
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "nps/NPMachine.h"
#include "race/RWRace.h"
#include "race/WWRace.h"
#include "support/ReachableStates.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

class WWRaceGroundTruth : public ::testing::TestWithParam<std::string> {};

TEST_P(WWRaceGroundTruth, InterleavingVerdict) {
  const LitmusTest &T = litmus(GetParam());
  RaceCheckResult R = checkWWRaceFreedom(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(R.Exact);
  EXPECT_EQ(R.RaceFree, T.IsWWRaceFree)
      << T.Name << ": "
      << (R.Witness ? R.Witness->Description : std::string("(race-free)"));
}

// Lm 5.1: the verdict agrees between the two machines.
TEST_P(WWRaceGroundTruth, NonPreemptiveVerdictAgrees) {
  const LitmusTest &T = litmus(GetParam());
  RaceCheckResult Inter = checkWWRaceFreedom(T.Prog, T.SuggestedConfig());
  RaceCheckResult NP = checkWWRaceFreedomNP(T.Prog, T.SuggestedConfig());
  ASSERT_TRUE(Inter.Exact && NP.Exact);
  EXPECT_EQ(Inter.RaceFree, NP.RaceFree) << T.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllLitmus, WWRaceGroundTruth, [] {
      std::vector<std::string> Names;
      for (const LitmusTest &T : allLitmusTests())
        Names.push_back(T.Name);
      return ::testing::ValuesIn(Names);
    }(),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

// Fig 4 in detail: the program is ww-race-free *because* races are only
// checked on reachable states with certified promises. If we (incorrectly)
// seeded the racy state by hand, the predicate itself would fire — showing
// the state predicate works and reachability is what saves the program.
TEST(WWRaceTest, Fig4StatePredicateFiresOnHandCraftedState) {
  const LitmusTest &T = litmus("fig4");
  InterleavingMachine M(T.Prog, StepConfig{});
  MachineState S = *M.initial();
  // Drive t1 to block 1 (about to write z) by force, and plant an
  // unobserved z message from t2.
  S.Threads[0].Local.regs().set(RegId("r1"), 1);
  S.Threads[0].Local.advance();               // past `r1 := y.rlx`
  S.Threads[0].Local.applyTerminator(T.Prog); // be r1==1 -> block 1
  ASSERT_EQ(S.Threads[0].Local.currentBlock(), 1u);
  S.Mem.insert(Message::concrete(VarId("z"), 2, Time(1), Time(2), View{}));
  auto W = stateHasWWRace(T.Prog, S);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Var, VarId("z"));
  EXPECT_EQ(W->Thread, 0);
}

// ... but no such state is reachable (promise certification kills it).
TEST(WWRaceTest, Fig4IsRaceFreeWithPromises) {
  const LitmusTest &T = litmus("fig4");
  StepConfig SC;
  SC.EnablePromises = true;
  RaceCheckResult R = checkWWRaceFreedom(T.Prog, SC);
  ASSERT_TRUE(R.Exact);
  EXPECT_TRUE(R.RaceFree)
      << (R.Witness ? R.Witness->Description : std::string());
}

// Observed-write writes are not racy: after an acquire-synchronized
// handoff, overwriting is fine.
TEST(WWRaceTest, SynchronizedHandoffIsRaceFree) {
  Program P = parseProgramOrDie(R"(
    var d; var f atomic;
    func t1 { block 0: d.na := 1; f.rel := 1; ret; }
    func t2 { block 0: r := f.acq; be r == 1, 1, 2;
              block 1: d.na := 2; ret;
              block 2: ret; }
    thread t1; thread t2;
  )");
  RaceCheckResult R = checkWWRaceFreedom(P);
  ASSERT_TRUE(R.Exact);
  EXPECT_TRUE(R.RaceFree)
      << (R.Witness ? R.Witness->Description : std::string());
}

// The same handoff through a relaxed flag IS racy: the acquire view is
// missing, so t2's write does not observe t1's.
TEST(WWRaceTest, RelaxedHandoffIsRacy) {
  Program P = parseProgramOrDie(R"(
    var d; var f atomic;
    func t1 { block 0: d.na := 1; f.rlx := 1; ret; }
    func t2 { block 0: r := f.rlx; be r == 1, 1, 2;
              block 1: d.na := 2; ret;
              block 2: ret; }
    thread t1; thread t2;
  )");
  RaceCheckResult R = checkWWRaceFreedom(P);
  ASSERT_TRUE(R.Exact);
  EXPECT_FALSE(R.RaceFree);
  EXPECT_EQ(R.Witness->Var, VarId("d"));
}

// One thread overwriting its own earlier write is never a race.
TEST(WWRaceTest, SelfOverwriteIsRaceFree) {
  Program P = parseProgramOrDie(R"(
    var x;
    func t1 { block 0: x.na := 1; x.na := 2; ret; }
    thread t1;
  )");
  RaceCheckResult R = checkWWRaceFreedom(P);
  EXPECT_TRUE(R.RaceFree);
}

// Atomic writes never produce ww races (the predicate is about na writes).
TEST(WWRaceTest, AtomicWritesDoNotRace) {
  Program P = parseProgramOrDie(R"(
    var x atomic;
    func t1 { block 0: x.rlx := 1; ret; }
    func t2 { block 0: x.rlx := 2; ret; }
    thread t1; thread t2;
  )");
  RaceCheckResult R = checkWWRaceFreedom(P);
  EXPECT_TRUE(R.RaceFree);
}

// --- §2.5 / Fig 5(b): LInv introduces read-write races. ----------------------

TEST(RWRaceTest, Fig5SourceIsRwRaceFree) {
  RaceCheckResult R = checkRWRaceFreedom(litmus("fig5_src").Prog);
  ASSERT_TRUE(R.Exact);
  EXPECT_TRUE(R.RaceFree)
      << (R.Witness ? R.Witness->Description : std::string());
}

TEST(RWRaceTest, Fig5TargetHasRwRace) {
  RaceCheckResult R = checkRWRaceFreedom(litmus("fig5_tgt").Prog);
  ASSERT_TRUE(R.Exact);
  EXPECT_FALSE(R.RaceFree);
  EXPECT_EQ(R.Witness->Var, VarId("x"));
}

// A ww race is found in the blunt two-writer program, with a witness.
TEST(WWRaceTest, SimpleRaceWitness) {
  RaceCheckResult R = checkWWRaceFreedom(litmus("wwrace_simple").Prog);
  ASSERT_FALSE(R.RaceFree);
  ASSERT_TRUE(R.Witness.has_value());
  EXPECT_EQ(R.Witness->Var, VarId("x"));
}

// --- The race checker walks the explorer's state table. ------------------

/// Number of canonical states reachable from \p M's initial state through
/// non-abort steps, by a plain value-keyed walk (no state table), or
/// \p Limit when the walk is cut.
std::size_t reachableStateCount(const Machine &M, std::size_t Limit) {
  MachineState Start = *M.initial();
  canonicalizeState(Start);
  std::vector<MachineSuccessor> Succs;
  return forEachReachableState(
      Start, Limit, [&](const MachineState &S, std::vector<MachineState> &Next) {
        M.successors(S, Succs);
        for (MachineSuccessor &Succ : Succs) {
          if (Succ.Ev.K == MachineEvent::Kind::Abort)
            continue;
          canonicalizeState(Succ.State);
          Next.push_back(std::move(Succ.State));
        }
      });
}

/// On every program of the step-property set (litmus registry plus random
/// programs) that is race-free within 6000 states, the check visits each
/// reachable state once, at one and at eight workers: StatesChecked
/// equals the reference count.
void expectRaceFreeChecksCoverReachableStates(
    bool NonPreemptive,
    std::optional<RaceWitness> (*Predicate)(const Program &,
                                            const MachineState &)) {
  constexpr std::size_t Limit = 6000;
  unsigned RaceFree = 0, RandomRaceFree = 0;
  for (const NamedProgram &NP : stepPropertyPrograms()) {
    SCOPED_TRACE(NP.Name);
    InterleavingMachine IM(NP.Prog, NP.Config);
    NonPreemptiveMachine NM(NP.Prog, NP.Config);
    const Machine &M = NonPreemptive ? static_cast<const Machine &>(NM) : IM;
    if (!M.initial())
      continue;
    RaceCheckConfig C;
    C.MaxNodes = Limit;
    RaceCheckResult Seq = checkRaceFreedom(M, C, Predicate);
    if (!Seq.RaceFree || !Seq.Exact)
      continue; // racy, or too large to check exhaustively here
    ++RaceFree;
    RandomRaceFree += NP.Name.rfind("rand:", 0) == 0;
    EXPECT_EQ(Seq.StatesChecked, reachableStateCount(M, Limit));
    C.Jobs = 8;
    RaceCheckResult Par = checkRaceFreedom(M, C, Predicate);
    EXPECT_TRUE(Par.RaceFree && Par.Exact);
    EXPECT_EQ(Par.StatesChecked, Seq.StatesChecked);
  }
  EXPECT_GT(RaceFree, 10u);
  EXPECT_GT(RandomRaceFree, 0u);
}

TEST(RaceStateCountTest, WWRaceFreeInterleavingChecksEveryReachableState) {
  expectRaceFreeChecksCoverReachableStates(false, stateHasWWRace);
}

TEST(RaceStateCountTest, WWRaceFreeNonPreemptiveChecksEveryReachableState) {
  expectRaceFreeChecksCoverReachableStates(true, stateHasWWRace);
}

TEST(RaceStateCountTest, RWRaceFreeInterleavingChecksEveryReachableState) {
  expectRaceFreeChecksCoverReachableStates(false, stateHasRWRace);
}

} // namespace
} // namespace psopt
