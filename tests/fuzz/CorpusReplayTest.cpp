//===- tests/fuzz/CorpusReplayTest.cpp - Checked-in corpus stays green ----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// Replays every reproducer checked into tests/corpus/ (the build passes
/// the directory as PSOPT_CORPUS_DIR) and checks its recorded verdict —
/// expect-fail entries must still fail refinement, expect-hold entries
/// must still hold — under every engine configuration: jobs=1 and
/// jobs=8, certification cache on and off. A regression in a pass, the
/// explorer, or either engine dimension shows up here as a mismatch on a
/// minimized, named program.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>

namespace psopt {
namespace {

#ifndef PSOPT_CORPUS_DIR
#error "PSOPT_CORPUS_DIR must be defined by the build"
#endif

class CorpusReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplayTest, VerdictStableAcrossEngines) {
  std::string Err;
  std::optional<CorpusEntry> E = loadCorpusEntry(GetParam(), Err);
  ASSERT_TRUE(E.has_value()) << Err;

  for (unsigned Jobs : {1u, 8u})
    for (bool Cache : {true, false}) {
      ExploreConfig C;
      C.Jobs = Jobs;
      ReplayVerdict V = replayCorpusEntry(*E, C, Cache);
      EXPECT_TRUE(V.Match)
          << E->Name << " (jobs=" << Jobs << " cert-cache=" << Cache
          << "): expected refinement to "
          << (E->ExpectFail ? "fail" : "hold") << ", got: " << V.Detail;
    }
}

std::string testName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Name = Info.param;
  std::size_t Slash = Name.find_last_of('/');
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  std::string Out;
  for (char C : Name)
    Out += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplayTest,
                         ::testing::ValuesIn(listCorpusFiles(PSOPT_CORPUS_DIR)),
                         testName);

/// Completed scopes of the "opt.<Name>" phase timer (0 before its first
/// run registers it).
std::uint64_t passScopes(const std::string &Name) {
  for (const PhaseTimer *T : allPhaseTimers())
    if (std::strcmp(T->group(), "opt") == 0 && Name == T->name())
      return T->count();
  return 0;
}

TEST(CorpusReplayTelemetryTest, ReplayTimesEveryPass) {
  // Replay runs its pipeline like every other driver, so each pass lands
  // in its opt.<name> phase timer (and trace span).
  std::string Err;
  std::optional<CorpusEntry> E = loadCorpusEntry(
      std::string(PSOPT_CORPUS_DIR) + "/fig15_pipeline_hold.rtl", Err);
  ASSERT_TRUE(E.has_value()) << Err;
  ASSERT_GE(E->Pipeline.size(), 2u);
  std::map<std::string, std::uint64_t> Expected;
  for (const std::string &Name : E->Pipeline)
    Expected[Name] = passScopes(Name);
  for (const std::string &Name : E->Pipeline)
    ++Expected[Name];

  ReplayVerdict V = replayCorpusEntry(*E, ExploreConfig{}, true);
  EXPECT_TRUE(V.Match) << V.Detail;
  for (const auto &[Name, Scopes] : Expected)
    EXPECT_GE(passScopes(Name), Scopes) << "opt." << Name; // licm runs cse
}

// The corpus is meant to grow; an empty directory means the build is
// pointing somewhere wrong.
TEST(CorpusInventoryTest, CorpusIsNonTrivial) {
  EXPECT_GE(listCorpusFiles(PSOPT_CORPUS_DIR).size(), 10u);
}

} // namespace
} // namespace psopt
