//===- fuzz/Corpus.h - Replayable regression corpus -------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's regression corpus: self-contained reproducer files that
/// record a (shrunk) source program together with the pass pipeline and the
/// refinement verdict it must reproduce. A reproducer is an ordinary
/// CSimpRTL source file whose leading `#` comment lines carry metadata, so
/// one file is simultaneously parseable by `psopt explore` and replayable
/// by `psopt fuzz --replay=`:
///
///   # psopt-fuzz reproducer v1
///   # seed: 17
///   # pipeline: unsafe-dce
///   # promises: off
///   # expect: fail
///   # note: release-write deletion leaks the stale value (Fig 15 shape)
///   var y; var x atomic;
///   func t1 { ... }
///   ...
///
/// Checked-in reproducers live in tests/corpus/*.rtl and replay as ctest
/// cases under every engine configuration (--jobs=1 and --jobs=8,
/// cert-cache on and off); see docs/TESTING.md.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_FUZZ_CORPUS_H
#define PSOPT_FUZZ_CORPUS_H

#include "explore/Explorer.h"
#include "lang/Program.h"

#include <optional>
#include <string>
#include <vector>

namespace psopt {

/// One reproducer: program + pipeline + recorded verdict.
struct CorpusEntry {
  std::string Name;                  ///< slug; filename stem when loaded
  std::uint64_t Seed = 0;            ///< generator seed of the original run
  std::vector<std::string> Pipeline; ///< pass names, applied left to right
  bool ExpectFail = true;            ///< recorded verdict: refinement fails
  bool Promises = false;             ///< explore with promise steps enabled
  std::string Note;                  ///< free-form provenance line
  Program Prog;                      ///< the (shrunk) source program
};

/// Renders \p E in the reproducer file format above.
std::string renderCorpusEntry(const CorpusEntry &E);

/// Parses a reproducer from \p Text. On failure returns nullopt and sets
/// \p Error. Unknown metadata keys are rejected (they are silent typos).
std::optional<CorpusEntry> parseCorpusEntry(const std::string &Text,
                                            std::string &Error);

/// Reads and parses the reproducer at \p Path; Name defaults to the
/// filename stem.
std::optional<CorpusEntry> loadCorpusEntry(const std::string &Path,
                                           std::string &Error);

/// Writes \p E to \p Path (creating parent directories is the caller's
/// job). Returns false on I/O failure.
bool storeCorpusEntry(const CorpusEntry &E, const std::string &Path);

/// All *.rtl files directly under \p Dir, sorted by name. Empty when the
/// directory does not exist.
std::vector<std::string> listCorpusFiles(const std::string &Dir);

/// Outcome of replaying one entry.
struct ReplayVerdict {
  bool Match = false;           ///< observed verdict equals the recorded one
  bool RefinementHolds = false; ///< what the oracle said this time
  std::string Detail;           ///< counterexample / error, human-readable

  explicit operator bool() const { return Match; }
};

/// Re-runs the pipeline on the entry's program and checks refinement with
/// the explorer under \p C, with the certification cache on or off per
/// \p CertCache (the entry fixes whether promises are on). Match is true
/// when the verdict equals the recorded expectation; unknown pass names,
/// validation failures and exploration bound trips all yield Match = false.
ReplayVerdict replayCorpusEntry(const CorpusEntry &E,
                                const ExploreConfig &C = {},
                                bool CertCache = true);

} // namespace psopt

#endif // PSOPT_FUZZ_CORPUS_H
