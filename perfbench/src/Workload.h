//===- perfbench/src/Workload.h - Benchmark workloads and inputs -*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads and the seeded inputs they run. An *item* is
/// one unit of user-visible work with a known answer: an exhaustive
/// exploration of a scale program (its trace-set fingerprint is recorded
/// below), or one refinement verdict of a verified pass pipeline (must
/// hold) or of a corpus reproducer (its recorded verdict).
///
/// Inputs are generated as program text and parsed back, so the harness
/// drives psopt the way a user of `psopt explore` / `psopt refine` does.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PERFBENCH_WORKLOAD_H
#define PSOPT_PERFBENCH_WORKLOAD_H

#include "explore/Explorer.h"
#include "lang/Program.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { ScaleExplore, ScaleParallel, VerifyPromises };

/// Parses a workload name ("scale_explore", ...); nullopt when unknown.
std::optional<Workload> parseWorkload(const std::string &Name);
const char *workloadName(Workload W);

/// What an item's result is checked against.
enum class Expect {
  Fingerprint, ///< scale program: behaviors match the recorded fingerprint
  Holds,       ///< refinement must hold whenever both sides are exact
  Fails,       ///< refinement must fail (an unsound twin's reproducer)
};

/// One unit of benchmark work.
struct Item {
  std::string Name;                  ///< e.g. "t4_s3#0", "rand#17", "corpus:fig15_dce_hold"
  psopt::Program Source;             ///< explored as-is (scale) or optimized (verify)
  std::vector<std::string> Pipeline; ///< verify items: pass names, left to right
  Expect Want = Expect::Fingerprint;
  std::uint64_t Fingerprint = 0;     ///< scale items: the recorded answer
  bool Promises = false;             ///< explore with promise steps
};

/// Everything a run needs, built once per set-up.
struct Inputs {
  std::vector<Item> Items;
  psopt::ExploreConfig Explore;
  double GenerateS = 0; ///< time in the litmus generators
  double ParseS = 0;    ///< time in the parser (generated text and corpus)
};

/// Builds the inputs of \p W for \p Seed. Verify workloads also load every
/// reproducer under \p CorpusDir. Returns false with \p Err on failure.
bool buildInputs(Workload W, std::uint64_t Seed, unsigned Jobs,
                 const std::string &CorpusDir, Inputs &Out, std::string &Err);

/// A stable 64-bit digest of the observable part of \p B: the Done, Abort,
/// Prefixes and Blocked trace sets and Exhausted. Node counts are left out,
/// so a change to the reduction may move them without moving this.
std::uint64_t behaviorFingerprint(const psopt::BehaviorSet &B);

} // namespace perfbench

#endif // PSOPT_PERFBENCH_WORKLOAD_H
