//===- fuzz/Fuzzer.h - Differential optimization fuzzer ---------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential testing of the optimizer against the
/// exhaustive-exploration oracle (Thm 6.5/6.6 as an executable property):
/// generate a seeded random ww-RF program, run a pass pipeline, and check
/// that the target refines the source. Each run additionally cross-checks
/// the explorer's configurations against each other — a worker pool
/// (--jobs=N) and the certification cache must produce BehaviorSets
/// bit-identical to the jobs=1 cache-on exploration, and the schedule
/// reduction (--reduce=off) must reproduce the same behavior sets
/// (counters aside, BehaviorSet::sameBehaviors) — so any divergence in
/// that machinery surfaces as a differential failure even when refinement
/// holds.
///
/// On failure the delta-debugging shrinker (fuzz/Shrinker.h) minimizes the
/// program while the failure persists, a witness search confirms the
/// counterexample trace is executable, and a self-contained reproducer is
/// emitted into the regression corpus (fuzz/Corpus.h).
///
/// Everything is deterministic in FuzzConfig::Seed; every report line
/// carries the per-run seed and the pass pipeline, so any failure is
/// reproducible from the log alone.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_FUZZ_FUZZER_H
#define PSOPT_FUZZ_FUZZER_H

#include "fuzz/Corpus.h"
#include "fuzz/Shrinker.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psopt {

/// Fuzzing campaign configuration.
struct FuzzConfig {
  std::uint64_t Seed = 1;   ///< base seed; run i uses fuzzRunSeed(Seed, i)
  unsigned Runs = 100;      ///< programs to generate
  unsigned Jobs = 1;        ///< worker count for the differential re-explore
  bool Differential = true; ///< cross-validate parallel engine, cert cache
                            ///< and schedule reduction
  bool EnablePromises = false; ///< explore with promise steps (slower)
  bool Shrink = true;          ///< minimize failures before reporting
  unsigned TimeBudgetSec = 0;  ///< wall-clock cap; 0 = unlimited
  std::uint64_t MaxNodes = 200'000; ///< per-exploration bound; trips skip

  /// Fixed pass pipeline (names for createPassByName, unsafe-* allowed).
  /// Empty selects a fresh random pipeline of verified passes per run.
  std::vector<std::string> Pipeline;

  /// Directory to write reproducers into; empty disables corpus emission.
  std::string CorpusDir;
};

/// One fuzzer finding.
struct FuzzFailure {
  enum class Kind : std::uint8_t {
    Refinement,          ///< target exhibits a behavior the source cannot
    InvalidTarget,       ///< pipeline output fails validation
    RoundTrip,           ///< print -> parse does not reproduce the program
    ParallelDivergence,  ///< jobs=N BehaviorSet != jobs=1
    CertCacheDivergence, ///< cache-off BehaviorSet != cache-on
    ReductionDivergence, ///< reduce-off behavior sets != reduce-on
  };

  Kind K = Kind::Refinement;
  std::uint64_t Seed = 0;            ///< per-run seed (reproduces the run)
  std::vector<std::string> Pipeline; ///< pass names, applied left to right
  std::string Detail;                ///< counterexample / witness summary
  Program Source;                    ///< the generated program
  Program Shrunk;                    ///< minimized program (== Source when
                                     ///< shrinking is off or inapplicable)
  std::size_t InstrsBefore = 0, InstrsAfter = 0;
  std::string ReproPath; ///< corpus file, when one was written

  static const char *kindName(Kind K);
  std::string str() const; ///< full report block, seed + pipeline included
};

/// Campaign summary.
struct FuzzReport {
  unsigned Runs = 0;    ///< runs actually executed (time budget may cut)
  unsigned Skipped = 0; ///< oracle skipped: exploration bound tripped
  double ElapsedSec = 0;
  std::uint64_t BaseSeed = 0;
  std::vector<FuzzFailure> Failures;

  bool ok() const { return Failures.empty(); }
  std::string str() const; ///< summary + every failure block
};

/// Per-run seed derivation: run 0 uses the base seed itself, later runs a
/// splitmix64 scramble of (base, run). Because run 0 is the identity, any
/// seed printed in a failure report replays directly with
/// `psopt fuzz --seed=<logged> --runs=1` (same pipeline flags).
std::uint64_t fuzzRunSeed(std::uint64_t Base, unsigned Run);

/// Runs a fuzzing campaign.
FuzzReport runFuzzer(const FuzzConfig &C);

} // namespace psopt

#endif // PSOPT_FUZZ_FUZZER_H
