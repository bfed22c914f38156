//===- tests/analysis/LintCrossCheckTest.cpp - Static ⊇ dynamic races ------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The static race analysis is only useful if it over-approximates the
/// dynamic checkers: whenever the reachability search (race/WWRace.h,
/// race/RWRace.h) finds a racy state, the static candidates must contain
/// that (variable, orientation). This suite enforces the containment on
/// every litmus program, every checked-in corpus reproducer, and the
/// state-oracle's 50-seed random recipe, under jobs=1 and jobs=8 search
/// (the verdict is schedule-independent; running both exercises the
/// worker pool against the same static facts).
///
/// The converse (a static candidate with no dynamic race) is expected —
/// that is what "over-approximation" means — but the litmus registry's
/// IsWWRaceFree ground truth gives a precision canary: statically clean
/// litmus programs must be dynamically ww-race-free too (trivially, by
/// the containment), and we count how many ww-race-free programs the
/// static analysis also proves clean, so a precision collapse (e.g. the
/// sync-chain recognizer breaking and flagging everything) fails loudly.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticRace.h"
#include "fuzz/Corpus.h"
#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"
#include "race/RWRace.h"
#include "race/WWRace.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// Runs both dynamic checkers at jobs 1 and 8 and asserts every witness
/// is covered by a static candidate of the matching orientation.
void expectStaticCoversDynamic(const std::string &Name, const Program &P,
                               const StepConfig &SC) {
  FootprintAnalysis FA(P);
  StaticRaceAnalysis SR(FA);

  for (unsigned Jobs : {1u, 8u}) {
    RaceCheckConfig C;
    C.Jobs = Jobs;
    RaceCheckResult WW = checkWWRaceFreedom(P, SC, C);
    RaceCheckResult RW = checkRWRaceFreedom(P, SC, C);

    if (!WW.RaceFree) {
      ASSERT_TRUE(WW.Witness) << Name;
      bool Covered = false;
      for (const RaceCandidate &Cand : SR.candidates())
        Covered |= Cand.Var == WW.Witness->Var && Cand.MayWW;
      EXPECT_TRUE(Covered)
          << Name << " (jobs=" << Jobs << "): dynamic ww race on "
          << WW.Witness->Var.str() << " has no static ww candidate — "
          << WW.Witness->Description;
    }
    if (!RW.RaceFree) {
      ASSERT_TRUE(RW.Witness) << Name;
      bool Covered = false;
      for (const RaceCandidate &Cand : SR.candidates())
        Covered |= Cand.Var == RW.Witness->Var && Cand.MayRW;
      EXPECT_TRUE(Covered)
          << Name << " (jobs=" << Jobs << "): dynamic rw race on "
          << RW.Witness->Var.str() << " has no static rw candidate — "
          << RW.Witness->Description;
    }
  }
}

TEST(LintCrossCheckTest, StaticCoversDynamicOnLitmus) {
  for (const LitmusTest &T : allLitmusTests())
    expectStaticCoversDynamic("lit:" + T.Name, T.Prog, T.SuggestedConfig());
}

TEST(LintCrossCheckTest, StaticCoversDynamicOnCorpus) {
  std::vector<std::string> Files = listCorpusFiles(PSOPT_CORPUS_DIR);
  ASSERT_FALSE(Files.empty()) << "corpus dir missing: " PSOPT_CORPUS_DIR;
  for (const std::string &File : Files) {
    std::string Err;
    std::optional<CorpusEntry> E = loadCorpusEntry(File, Err);
    ASSERT_TRUE(E) << Err;
    StepConfig SC;
    SC.EnablePromises = E->Promises;
    expectStaticCoversDynamic("corpus:" + E->Name, E->Prog, SC);
  }
}

/// The state oracle's 50-seed recipe (ps/StateOracleTest.cpp), on the
/// same seed series: a mix of promise/promise-free, branch/loop, CAS,
/// and — with ExclusiveNaWriters off on odd seeds — genuinely racy
/// shapes, which is exactly the population the containment must hold on.
RandomProgramConfig randomConfig(unsigned I) {
  bool Promises = I % 5 == 0;
  RandomProgramConfig C;
  C.Seed = 17000 + I;
  C.NumThreads = Promises ? 2 : 2 + I % 2;
  C.NumNaVars = 2;
  C.NumAtomicVars = Promises ? 1 : 1 + I % 2;
  C.AllowCas = (I % 3 == 0);
  C.AllowLoop = !Promises && (I % 4 == 0);
  C.AllowBranch = !C.AllowLoop;
  C.InstrsPerThread = C.AllowLoop ? 2 : 3;
  C.ExclusiveNaWriters = (I % 2 == 0);
  return C;
}

TEST(LintCrossCheckTest, StaticCoversDynamicOnRandomPrograms) {
  for (unsigned I = 0; I < 50; ++I) {
    RandomProgramConfig C = randomConfig(I);
    StepConfig SC;
    SC.EnablePromises = I % 5 == 0;
    expectStaticCoversDynamic("rand:" + std::to_string(C.Seed),
                              generateRandomProgram(C), SC);
  }
}

TEST(LintCrossCheckTest, StaticPrecisionOnWWRaceFreeLitmus) {
  // Precision canary: at least one ww-race-free litmus program must also
  // be *statically* clean of ww candidates (today almost all of them
  // are; zero would mean the sync-chain recognizer rotted into "flag
  // everything", which the containment tests cannot see).
  unsigned RaceFree = 0, StaticallyClean = 0;
  for (const LitmusTest &T : allLitmusTests()) {
    if (!T.IsWWRaceFree)
      continue;
    ++RaceFree;
    FootprintAnalysis FA(T.Prog);
    StaticRaceAnalysis SR(FA);
    bool AnyWW = false;
    for (const RaceCandidate &C : SR.candidates())
      AnyWW |= C.MayWW;
    if (!AnyWW)
      ++StaticallyClean;
  }
  ASSERT_GT(RaceFree, 0u);
  EXPECT_GT(StaticallyClean, 0u)
      << "every ww-race-free litmus program is statically flagged";
}

} // namespace
} // namespace psopt
