//===- tests/support/PassTestSupport.h - Shared test helpers ----*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across the test tree (the psopt_test_support interface
/// library): the one Def 6.4 pass-correctness check every optimizer test
/// uses, and small file/program conveniences the fuzzer and CLI tests
/// need too.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_TESTS_SUPPORT_PASSTESTSUPPORT_H
#define PSOPT_TESTS_SUPPORT_PASSTESTSUPPORT_H

#include "explore/Explorer.h"
#include "explore/Refinement.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "litmus/RandomProgram.h"
#include "opt/Pass.h"
#include "race/WWRace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace psopt {

/// The engine matrix every pass check sweeps: jobs 1/8 × schedule
/// reduction on/off. All four must agree with each other on every
/// BehaviorSet (DESIGN.md §7/§10), so a pass is only accepted when it
/// refines under each of them.
inline std::vector<ExploreConfig> engineMatrix() {
  std::vector<ExploreConfig> Out;
  for (unsigned Jobs : {1u, 8u})
    for (bool Reduce : {true, false}) {
      ExploreConfig EC;
      EC.Jobs = Jobs;
      EC.Reduce = Reduce;
      Out.push_back(EC);
    }
  return Out;
}

/// "jobs=J reduce=on|off", for failure messages.
inline std::string engineName(const ExploreConfig &EC) {
  return "jobs=" + std::to_string(EC.Jobs) +
         " reduce=" + (EC.Reduce ? "on" : "off");
}

/// Checks the full Def 6.4 contract of every pass in \p Passes on \p Src:
/// each target validates, refines the source under every engineMatrix()
/// configuration, and (Lm 6.2) stays write-write race free when the
/// source is.
///
/// The source is explored once per configuration and race-checked once;
/// every target is judged against those results. A target equal to its
/// source holds by identity and is never explored, and passes producing
/// equal targets share one check. Every exploration and race-free verdict
/// must be exhaustive: a cut search fails the check rather than skipping
/// it. Failure messages name the passes, the configuration, the source and
/// the target.
inline void expectPassesCorrect(const Program &Src,
                                const std::vector<const Pass *> &Passes,
                                const StepConfig &SC = StepConfig{}) {
  struct Target {
    Program Prog;
    std::string PassNames; ///< every pass that produced Prog
  };
  std::vector<Target> Targets;
  for (const Pass *OptPass : Passes) {
    Program Tgt = OptPass->run(Src);
    if (!isValidProgram(Tgt)) {
      ADD_FAILURE() << OptPass->name() << " produced invalid code:\n"
                    << printProgram(Tgt);
      continue;
    }
    if (Tgt == Src)
      continue;
    auto Same = std::find_if(Targets.begin(), Targets.end(),
                             [&](const Target &T) { return T.Prog == Tgt; });
    if (Same != Targets.end())
      Same->PassNames += std::string(", ") + OptPass->name();
    else
      Targets.push_back({std::move(Tgt), OptPass->name()});
  }
  if (Targets.empty())
    return;

  const std::vector<ExploreConfig> Matrix = engineMatrix();
  std::vector<BehaviorSet> SrcB;
  for (const ExploreConfig &EC : Matrix) {
    SrcB.push_back(exploreInterleaving(Src, SC, EC));
    ASSERT_TRUE(SrcB.back().Exhausted)
        << "source exploration cut off (" << engineName(EC) << "):\n"
        << printProgram(Src);
  }
  RaceCheckResult SrcRace = checkWWRaceFreedom(Src, SC);
  ASSERT_TRUE(SrcRace.Exact || !SrcRace.RaceFree)
      << "source race check cut off:\n" << printProgram(Src);

  for (const Target &T : Targets) {
    const std::string Programs = "\nsource:\n" + printProgram(Src) +
                                 "target:\n" + printProgram(T.Prog);
    for (std::size_t I = 0; I < Matrix.size(); ++I) {
      BehaviorSet TgtB = exploreInterleaving(T.Prog, SC, Matrix[I]);
      std::string Why;
      if (!TgtB.Exhausted)
        Why = "target exploration cut off";
      else if (RefinementResult R = checkRefinement(TgtB, SrcB[I]); !R.Holds)
        Why = R.CounterExample;
      if (!Why.empty()) {
        ADD_FAILURE() << T.PassNames << " (" << engineName(Matrix[I])
                      << "): " << Why << Programs;
        break; // one counterexample is enough; don't spam the log
      }
    }
    if (!SrcRace.RaceFree)
      continue; // Def 6.4 asks nothing of racy sources
    RaceCheckResult TgtRace = checkWWRaceFreedom(T.Prog, SC);
    EXPECT_TRUE(TgtRace.Exact || !TgtRace.RaceFree)
        << T.PassNames << ": target race check cut off" << Programs;
    EXPECT_TRUE(TgtRace.RaceFree)
        << T.PassNames << " broke ww-RF: "
        << (TgtRace.Witness ? TgtRace.Witness->Description : std::string())
        << Programs;
  }
}

/// Every pass in the refinement sweep (PassInfo::InRefinementSweep), in
/// registry order.
inline const std::vector<const Pass *> &verifiedPasses() {
  static const std::vector<std::unique_ptr<Pass>> Owned =
      createAllVerifiedPasses();
  static const std::vector<const Pass *> Ptrs = [] {
    std::vector<const Pass *> Out;
    for (const std::unique_ptr<Pass> &P : Owned)
      Out.push_back(P.get());
    return Out;
  }();
  return Ptrs;
}

/// Generator shape for the pass property sweep: litmus-scale programs
/// biased toward the message-passing idioms every pass's side conditions
/// guard (release/acquire MP, fence-based MP, the reorder bait pair, and
/// redundant loads for CSE), deterministic in \p Seed.
inline RandomProgramConfig passSweepConfig(unsigned Seed) {
  RandomProgramConfig G;
  G.Seed = 7100u + Seed;
  G.NumThreads = 2;
  G.AllowLoop = Seed % 5 == 0;
  G.InstrsPerThread = G.AllowLoop ? 2 : 3;
  G.NumNaVars = 2 + Seed % 2;
  G.NumAtomicVars = 1;
  G.AllowCas = Seed % 3 == 0;
  G.AllowBranch = !G.AllowLoop;
  G.LoopTripCount = 2;
  G.ExclusiveNaWriters = true; // Def 6.4 assumes ww-RF sources
  G.AcqRelPercent = 50;
  G.RedundancyPercent = 35;
  G.LoopInvariantLoad = true;
  G.PrintLoadedRegs = true;
  G.MpSkeletonPercent = 60;
  G.FenceMpPercent = 50;
  G.FencePercent = 15;
  G.ReorderBaitPercent = 40;
  return G;
}

/// The function named "f" of \p P, for shape assertions (interned-id map
/// order is not source order, so "first" must be by name).
inline const Function &firstFunction(const Program &P) {
  return P.function(FuncId("f"));
}

/// Writes \p Contents to \p Name inside gtest's temp directory and returns
/// the full path.
inline std::string writeTempFile(const std::string &Name,
                                 const std::string &Contents) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream F(Path);
  F << Contents;
  return Path;
}

} // namespace psopt

#endif // PSOPT_TESTS_SUPPORT_PASSTESTSUPPORT_H
