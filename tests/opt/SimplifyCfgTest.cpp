//===- tests/opt/SimplifyCfgTest.cpp - Control-flow cleanup tests ------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

TEST(SimplifyCfgTest, RemovesSkips) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 0: skip; x.na := 1; skip; ret; } thread f;)");
  Program T = createSimplifyCfg()->run(P);
  const BasicBlock &B = firstFunction(T).block(0);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_TRUE(B.instructions()[0].isStore());
}

TEST(SimplifyCfgTest, CollapsesDegenerateBranch) {
  // The print keeps block 0 non-empty so it survives jump threading.
  Program P = parseProgramOrDie(R"(
    func f { block 0: print(1); be r, 1, 1; block 1: ret; } thread f;)");
  Program T = createSimplifyCfg()->run(P);
  EXPECT_TRUE(firstFunction(T).block(0).terminator().isJmp());
}

TEST(SimplifyCfgTest, RemovesUnreachableBlocks) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: ret; block 5: print(1); ret; } thread f;)");
  Program T = createSimplifyCfg()->run(P);
  EXPECT_FALSE(firstFunction(T).hasBlock(5));
  EXPECT_TRUE(firstFunction(T).hasBlock(0));
}

TEST(SimplifyCfgTest, ThreadsJumpsThroughEmptyBlocks) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: jmp 1; block 1: jmp 2; block 2: print(3); ret; }
    thread f;)");
  Program T = createSimplifyCfg()->run(P);
  // Entry forwards all the way to the printing block; the forwarding
  // blocks become unreachable and are deleted.
  EXPECT_EQ(firstFunction(T).entry(), 2u);
  EXPECT_EQ(firstFunction(T).blocks().size(), 1u);
}

TEST(SimplifyCfgTest, JumpCyclesAreLeftAlone) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: jmp 1; block 1: jmp 0; } thread f;)");
  Program T = createSimplifyCfg()->run(P);
  EXPECT_TRUE(isValidProgram(T));
  EXPECT_EQ(firstFunction(T).blocks().size(), 2u);
}

TEST(SimplifyCfgTest, CleansUpAfterConstPropBranchFolding) {
  Program P = parseProgramOrDie(R"(
    func f { block 0: r := 1; be r == 1, 1, 2;
             block 1: print(10); ret;
             block 2: print(20); ret; } thread f;)");
  std::vector<std::unique_ptr<Pass>> Ps;
  Ps.push_back(createConstProp());
  Ps.push_back(createSimplifyCfg());
  PassPipeline Pipe("cp+scfg", std::move(Ps));
  Program T = Pipe.run(P);
  // The dead arm is gone entirely.
  EXPECT_FALSE(firstFunction(T).hasBlock(2));
  expectPassesCorrect(P, {&Pipe});
}

TEST(SimplifyCfgTest, PreservesBehaviorOnConcurrentProgram) {
  Program P = parseProgramOrDie(R"(var x; var a atomic;
    func f { block 0: skip; x.na := 1; jmp 1;
             block 1: a.rel := 1; be 0, 2, 3;
             block 2: print(99); ret;
             block 3: ret; }
    func g { block 0: r := a.acq; be r == 1, 1, 2;
             block 1: v := x.na; print(v); ret;
             block 2: print(-1); ret; }
    thread f; thread g;)");
  expectPassesCorrect(P, {createSimplifyCfg().get()});
}

TEST(SimplifyCfgTest, EntryForwardingUpdatesEntry) {
  Program P = parseProgramOrDie(R"(var x;
    func f { block 7: jmp 3; block 3: x.na := 1; ret; } thread f;)");
  Program T = createSimplifyCfg()->run(P);
  EXPECT_EQ(firstFunction(T).entry(), 3u);
}

} // namespace
} // namespace psopt
