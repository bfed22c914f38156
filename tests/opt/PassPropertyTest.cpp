//===- tests/opt/PassPropertyTest.cpp - Registry-wide property harness ----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// The shared property harness over the pass registry (DESIGN.md §12):
///
///  * every pass in the refinement sweep, run on 50 seeded random programs,
///    refines its source under the full engine matrix (jobs 1/8 × schedule
///    reduction on/off) and preserves ww-RF — sharded by seed block, each
///    source explored once per configuration for all passes;
///  * every registered unsound twin is caught at least once per suite by
///    the differential fuzzer, on a pinned seed window so the catch is
///    deterministic and fast.
///
/// Both sweeps enumerate the registry, so a new pass (or twin) registered
/// in opt/Pass.cpp is swept here with no test edits.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/PassTestSupport.h"

#include <gtest/gtest.h>

namespace psopt {
namespace {

/// The sweep's 50 seeds, sharded into blocks so ctest runs them in
/// parallel. Each block checks every sweep pass against one exploration
/// of each of its sources; block K covers seeds 5K..5K+4, and a failure
/// names its seed.
///
/// The blocks keep gtest's default index names. The ctest ids of
/// UnsafeTwinSweep below embed a byte dump of a heap copy of its
/// TwinCase (CMake's test discovery keeps the `# GetParam() = ...`
/// comment), so a name generator here, whose strings go through the
/// same allocator bins first, would change those ids.
constexpr unsigned SeedsPerBlock = 5;
constexpr unsigned NumSeedBlocks = 10;

class PassRandomSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PassRandomSweep, EveryPassRefinesAcrossEngines) {
  for (unsigned I = 0; I < SeedsPerBlock; ++I) {
    unsigned Seed = GetParam() * SeedsPerBlock + I;
    SCOPED_TRACE("seed " + std::to_string(Seed));
    expectPassesCorrect(generateRandomProgram(passSweepConfig(Seed)),
                        verifiedPasses());
  }
}

INSTANTIATE_TEST_SUITE_P(SeedBlocks, PassRandomSweep,
                         ::testing::Range(0u, NumSeedBlocks));

/// One twin's deterministic catch window: the pipeline to drive and a
/// (seed, runs) pair under which the fuzzer's generator is known to
/// produce a program the twin miscompiles.
struct TwinCase {
  std::string Twin;                  ///< registry UnsafeName under test
  std::vector<std::string> Pipeline; ///< pipeline that exposes it
  std::uint64_t Seed;
  unsigned Runs;
};

class UnsafeTwinSweep : public ::testing::TestWithParam<TwinCase> {};

TEST_P(UnsafeTwinSweep, FuzzerCatchesTheTwinAtLeastOnce) {
  const TwinCase &TC = GetParam();
  FuzzConfig C;
  C.Seed = TC.Seed;
  C.Runs = TC.Runs;
  C.Shrink = false;
  C.Differential = false;
  C.Pipeline = TC.Pipeline;
  FuzzReport R = runFuzzer(C);
  EXPECT_GE(R.Failures.size(), 1u)
      << TC.Twin << " was never caught in " << TC.Runs
      << " runs from seed " << TC.Seed << " — the generator lost its bait?";
  for (const FuzzFailure &F : R.Failures)
    EXPECT_EQ(F.K, FuzzFailure::Kind::Refinement) << F.str();
}

// Seed windows found by scanning `psopt fuzz --runs=1`; each catches
// within a couple of runs so the whole sweep stays sub-second per twin.
// unsafe-linv is special: introducing a redundant read is sound by
// itself even across an acquire (§2.5, Fig 5(b)), so the twin only
// misbehaves once CSE forwards the hoisted value into the loop body —
// drive it through the unsafe-licm composition.
std::vector<TwinCase> twinCases() {
  std::vector<TwinCase> Cases;
  for (const PassInfo &Info : passRegistry()) {
    if (!Info.UnsafeName)
      continue;
    TwinCase TC;
    TC.Twin = Info.UnsafeName;
    TC.Pipeline = {Info.UnsafeName};
    TC.Seed = 1;
    TC.Runs = 16;
    if (TC.Twin == "unsafe-dce" || TC.Twin == "unsafe-rse") {
      TC.Seed = 11;
      TC.Runs = 2;
    } else if (TC.Twin == "unsafe-cse" || TC.Twin == "unsafe-licm" ||
               TC.Twin == "unsafe-reorder") {
      TC.Seed = 8;
      TC.Runs = 2;
    } else if (TC.Twin == "unsafe-fenceweaken") {
      TC.Seed = 3;
      TC.Runs = 2;
    } else if (TC.Twin == "unsafe-linv") {
      TC.Pipeline = {"unsafe-linv", "unsafe-cse"};
      TC.Seed = 8;
      TC.Runs = 2;
    }
    Cases.push_back(TC);
  }
  return Cases;
}

std::string twinCaseName(const ::testing::TestParamInfo<TwinCase> &I) {
  std::string Name = I.param.Twin;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Registry, UnsafeTwinSweep,
                         ::testing::ValuesIn(twinCases()), twinCaseName);

} // namespace
} // namespace psopt
