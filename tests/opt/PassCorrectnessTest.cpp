//===- tests/opt/PassCorrectnessTest.cpp - Thm 6.6 empirical sweep (E6) ----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// Thm 6.6 / Def 6.4, checked exhaustively: every verified optimizer, run
/// on every ww-race-free litmus program, produces a target that refines the
/// source under the full engine matrix and preserves ww-RF (Lm 6.2's
/// conclusion). This is the workbench's end-to-end replication of the
/// paper's headline result.
///
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"
#include "support/Debug.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

struct SweepParam {
  std::string PassName;
  std::string LitmusName;
};

class PassLitmusSweep : public ::testing::TestWithParam<SweepParam> {};

std::unique_ptr<Pass> makePass(const std::string &Name) {
  std::unique_ptr<Pass> P = createPassByName(Name);
  if (!P)
    PSOPT_UNREACHABLE("unknown pass in sweep");
  return P;
}

TEST_P(PassLitmusSweep, RefinesAndPreservesWwRF) {
  const LitmusTest &T = litmus(GetParam().LitmusName);
  std::unique_ptr<Pass> P = makePass(GetParam().PassName);
  expectPassesCorrect(T.Prog, {P.get()}, T.SuggestedConfig());
}

INSTANTIATE_TEST_SUITE_P(
    AllPassesAllLitmus, PassLitmusSweep, [] {
      std::vector<SweepParam> Params;
      // Every registry pass in the refinement sweep, by CLI name.
      std::vector<std::string> PassNames;
      for (const PassInfo &Info : passRegistry())
        if (Info.InRefinementSweep)
          PassNames.push_back(Info.Name);
      for (const std::string &PassName : PassNames) {
        for (const LitmusTest &T : allLitmusTests()) {
          // Def 6.4 assumes ww-RF sources; skip the deliberately racy one.
          if (!T.IsWWRaceFree)
            continue;
          Params.push_back(SweepParam{PassName, T.Name});
        }
      }
      return ::testing::ValuesIn(Params);
    }(),
    [](const ::testing::TestParamInfo<SweepParam> &I) {
      return I.param.PassName + "_" + I.param.LitmusName;
    });

// Vertical composition (§2.6): chaining every verified optimizer is still
// correct — each pass preserves ww-RF, so the next pass's precondition
// holds (Lm 6.2).
TEST(PassCompositionTest, AllVerifiedComposed) {
  PassPipeline Pipeline("all", createAllVerifiedPasses());
  for (const char *Name : {"fig15_src", "fig16_src", "fig1_acq_src",
                           "fig5_src", "mp_rel_acq", "spinlock"}) {
    const LitmusTest &T = litmus(Name);
    expectPassesCorrect(T.Prog, {&Pipeline}, T.SuggestedConfig());
  }
}

} // namespace
} // namespace psopt
