//===- tests/fuzz/FuzzerTest.cpp - Differential fuzzer end to end ---------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "lang/Printer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

namespace psopt {
namespace {

TEST(FuzzerTest, RunSeedDerivation) {
  // Run 0 is the identity: a seed printed in a failure report replays
  // directly with --seed=<logged> --runs=1.
  EXPECT_EQ(fuzzRunSeed(1, 0), 1u);
  EXPECT_EQ(fuzzRunSeed(123456789, 0), 123456789u);
  // Later runs scramble and don't collide in a short campaign.
  std::set<std::uint64_t> Seen;
  for (unsigned Run = 0; Run < 100; ++Run)
    Seen.insert(fuzzRunSeed(1, Run));
  EXPECT_EQ(Seen.size(), 100u);
  EXPECT_NE(fuzzRunSeed(1, 1), fuzzRunSeed(2, 1));
}

TEST(FuzzerTest, VerifiedPassesSurviveACampaign) {
  FuzzConfig C;
  C.Seed = 5;
  C.Runs = 12;
  C.Shrink = false;
  FuzzReport R = runFuzzer(C);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Runs, 12u);
  EXPECT_EQ(R.BaseSeed, 5u);
  // The summary line always names the base seed.
  EXPECT_NE(R.str().find("seed=5"), std::string::npos);
}

TEST(FuzzerTest, UnsafeDcePipelineYieldsAShrunkReproducer) {
  FuzzConfig C;
  C.Seed = 11; // known to produce the MP shape on the first run
  C.Runs = 1;
  C.Differential = false;
  C.Pipeline = {"unsafe-dce"};
  std::string Dir = ::testing::TempDir() + "fuzzer_test_corpus";
  std::filesystem::create_directories(Dir);
  C.CorpusDir = Dir;

  FuzzReport R = runFuzzer(C);
  ASSERT_EQ(R.Failures.size(), 1u) << R.str();
  const FuzzFailure &F = R.Failures[0];
  EXPECT_EQ(F.K, FuzzFailure::Kind::Refinement);
  EXPECT_EQ(F.Seed, 11u);
  EXPECT_EQ(F.Pipeline, std::vector<std::string>{"unsafe-dce"});
  EXPECT_LE(F.InstrsAfter, 8u) << F.str();
  EXPECT_LT(F.InstrsAfter, F.InstrsBefore);
  // The failure block names the seed, the pipeline, and the witness check.
  std::string S = F.str();
  EXPECT_NE(S.find("seed=11"), std::string::npos);
  EXPECT_NE(S.find("pipeline=unsafe-dce"), std::string::npos);
  EXPECT_NE(F.Detail.find("witness"), std::string::npos) << F.Detail;

  // A reproducer landed in the corpus and replays to the same verdict.
  ASSERT_FALSE(F.ReproPath.empty());
  std::string Err;
  std::optional<CorpusEntry> E = loadCorpusEntry(F.ReproPath, Err);
  ASSERT_TRUE(E.has_value()) << Err;
  EXPECT_EQ(E->Seed, 11u);
  ReplayVerdict V = replayCorpusEntry(*E);
  EXPECT_TRUE(V.Match) << V.Detail;
  EXPECT_FALSE(V.RefinementHolds);
}

TEST(FuzzerTest, CampaignsAreDeterministic) {
  FuzzConfig C;
  C.Seed = 11;
  C.Runs = 1;
  C.Differential = false;
  C.Pipeline = {"unsafe-dce"};
  FuzzReport A = runFuzzer(C);
  FuzzReport B = runFuzzer(C);
  ASSERT_EQ(A.Failures.size(), B.Failures.size());
  ASSERT_EQ(A.Failures.size(), 1u);
  EXPECT_EQ(A.Failures[0].Seed, B.Failures[0].Seed);
  EXPECT_EQ(printProgram(A.Failures[0].Shrunk),
            printProgram(B.Failures[0].Shrunk));
}

TEST(FuzzerTest, TimeBudgetCutsTheCampaignShort) {
  FuzzConfig C;
  C.Seed = 3;
  C.Runs = 100000;
  C.TimeBudgetSec = 1;
  C.Shrink = false;
  C.Differential = false;
  FuzzReport R = runFuzzer(C);
  EXPECT_LT(R.Runs, 100000u);
}

} // namespace
} // namespace psopt
