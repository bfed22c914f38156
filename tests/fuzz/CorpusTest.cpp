//===- tests/fuzz/CorpusTest.cpp - Reproducer format and replay -----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "lang/Parser.h"
#include "litmus/Litmus.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace psopt {
namespace {

CorpusEntry fig15Entry() {
  CorpusEntry E;
  E.Name = "fig15_unsafe_dce";
  E.Seed = 42;
  E.Pipeline = {"unsafe-dce"};
  E.ExpectFail = true;
  E.Note = "release write must keep the payload store alive";
  E.Prog = litmus("fig15_src").Prog;
  return E;
}

TEST(CorpusTest, RenderParseRoundTrip) {
  CorpusEntry E = fig15Entry();
  std::string Text = renderCorpusEntry(E);
  std::string Err;
  std::optional<CorpusEntry> Back = parseCorpusEntry(Text, Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(Back->Name, E.Name);
  EXPECT_EQ(Back->Seed, E.Seed);
  EXPECT_EQ(Back->Pipeline, E.Pipeline);
  EXPECT_EQ(Back->ExpectFail, E.ExpectFail);
  EXPECT_EQ(Back->Promises, E.Promises);
  EXPECT_EQ(Back->Note, E.Note);
  EXPECT_TRUE(Back->Prog == E.Prog);
}

TEST(CorpusTest, ReproducerIsAPlainProgramToo) {
  // The metadata header is ordinary comments: the reproducer file must
  // parse as a standalone program with the same meaning.
  std::string Text = renderCorpusEntry(fig15Entry());
  ParseResult R = parseProgram(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(*R.Prog == litmus("fig15_src").Prog);
}

TEST(CorpusTest, ParseRejectsMalformedHeaders) {
  std::string Err;
  std::string Body = "\nfunc f { block 0: ret; }\nthread f;\n";

  EXPECT_FALSE(parseCorpusEntry("# pipeline: dce\n# expect: fail\n" + Body,
                                Err));
  EXPECT_NE(Err.find("psopt-fuzz reproducer"), std::string::npos);

  EXPECT_FALSE(parseCorpusEntry(
      "# psopt-fuzz reproducer v1\n# expect: fail\n" + Body, Err));
  EXPECT_NE(Err.find("pipeline"), std::string::npos);

  EXPECT_FALSE(parseCorpusEntry("# psopt-fuzz reproducer v1\n# pipeline: "
                                "dce\n# expect: maybe\n" + Body,
                                Err));
  EXPECT_NE(Err.find("expect"), std::string::npos);

  EXPECT_FALSE(parseCorpusEntry("# psopt-fuzz reproducer v1\n# pipeline: "
                                "dce\n# expect: fail\n# seed: banana\n" +
                                    Body,
                                Err));
  EXPECT_NE(Err.find("seed"), std::string::npos);

  EXPECT_FALSE(parseCorpusEntry("# psopt-fuzz reproducer v1\n# pipeline: "
                                "dce\n# expect: fail\n# color: red\n" + Body,
                                Err));
  EXPECT_NE(Err.find("unknown"), std::string::npos);
}

TEST(CorpusTest, StoreLoadListRoundTrip) {
  std::string Dir = ::testing::TempDir() + "corpus_test_dir";
  std::filesystem::create_directories(Dir);
  CorpusEntry E = fig15Entry();
  ASSERT_TRUE(storeCorpusEntry(E, Dir + "/b_second.rtl"));
  CorpusEntry Anon = E;
  Anon.Name.clear(); // name must default from the filename
  ASSERT_TRUE(storeCorpusEntry(Anon, Dir + "/a_first.rtl"));
  // Non-.rtl files are ignored.
  std::ofstream(Dir + "/README.md") << "not a reproducer";

  std::vector<std::string> Files = listCorpusFiles(Dir);
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_NE(Files[0].find("a_first"), std::string::npos); // sorted
  std::string Err;
  std::optional<CorpusEntry> First = loadCorpusEntry(Files[0], Err);
  ASSERT_TRUE(First.has_value()) << Err;
  EXPECT_EQ(First->Name, "a_first");
}

TEST(CorpusTest, ReplayMatchesExpectations) {
  ExploreConfig C;

  // Fig 15 + unsafe DCE: refinement must fail, which *matches* the entry.
  CorpusEntry Bad = fig15Entry();
  ReplayVerdict V1 = replayCorpusEntry(Bad, C);
  EXPECT_FALSE(V1.RefinementHolds);
  EXPECT_TRUE(V1.Match) << V1.Detail;

  // The same program under the *safe* DCE must hold.
  CorpusEntry Good = fig15Entry();
  Good.Pipeline = {"dce"};
  Good.ExpectFail = false;
  ReplayVerdict V2 = replayCorpusEntry(Good, C);
  EXPECT_TRUE(V2.RefinementHolds) << V2.Detail;
  EXPECT_TRUE(V2.Match);

  // A stale entry whose failure got fixed must be flagged as a mismatch.
  CorpusEntry Stale = Good;
  Stale.ExpectFail = true;
  EXPECT_FALSE(replayCorpusEntry(Stale, C).Match);

  // Unknown passes are reported, not crashed on.
  CorpusEntry Unknown = fig15Entry();
  Unknown.Pipeline = {"no-such-pass"};
  ReplayVerdict V3 = replayCorpusEntry(Unknown, C);
  EXPECT_FALSE(V3.Match);
  EXPECT_NE(V3.Detail.find("no-such-pass"), std::string::npos);
}

} // namespace
} // namespace psopt
