//===- litmus/ScaleWorkload.h - Scale benchmark workloads -------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator of *large* concurrent programs (3-6 threads,
/// hundreds to thousands of instructions) for the bench_scale benchmark.
/// Unlike RandomProgram, which stays litmus-scale so the oracle can afford
/// every interleaving, a scale workload is deliberately too big for
/// unreduced exploration: each thread is mostly thread-local filler
/// (register arithmetic and reads of never-written variables) woven around
/// a small number of genuine cross-thread conflict skeletons — the
/// message-passing (MP), store-buffering (SB) and load-buffering (LB)
/// shapes from the litmus registry. The schedule reduction collapses the
/// filler; the skeletons keep the reduced state space honest.
///
/// Everything is a pure function of the config (mt19937_64 on Seed), so
/// benches and tests replay identical programs.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_LITMUS_SCALEWORKLOAD_H
#define PSOPT_LITMUS_SCALEWORKLOAD_H

#include "lang/Program.h"

#include <cstdint>
#include <string>

namespace psopt {

/// Scale-workload knobs.
struct ScaleWorkloadConfig {
  std::uint64_t Seed = 1;

  /// Concurrency width; the generator supports 2..16, benches use 3-6.
  unsigned NumThreads = 4;

  /// Thread-local filler instructions per thread (register arithmetic and
  /// loads of read-only variables, fusible by the reduction layer).
  unsigned FillerPerThread = 60;

  /// Cross-thread conflict skeletons woven over adjacent thread pairs.
  /// Each skeleton contributes 2 accesses per participating thread.
  unsigned Skeletons = 2;

  /// Which conflict shape the skeletons use.
  enum class Mix : std::uint8_t {
    MP,    ///< release/acquire message passing (flag + na payload)
    SB,    ///< store buffering: both store first, then load the peer's flag
    LB,    ///< load buffering: both load first, then store their own flag
    Mixed, ///< rotate MP -> SB -> LB per skeleton
  };
  Mix Shape = Mix::Mixed;

  /// Trailing prints per thread. Keep small: every print multiplies the
  /// (state, trace) graph by the trace prefix count.
  unsigned PrintsPerThread = 1;

  /// Thread-local filler *stores* per thread: each thread repeatedly
  /// overwrites its own private variable (pv<T>, never touched by a
  /// peer). Unlike the read-only filler these are memory-mutating steps,
  /// so only the reducer's analysis-guided exclusive-write fusion
  /// (DESIGN.md §13) can collapse them. 0 keeps the historical workloads
  /// byte-identical.
  unsigned PrivateStoresPerThread = 0;
};

/// Generates the workload. Deterministic in \p C.
Program generateScaleWorkload(const ScaleWorkloadConfig &C);

/// Human-readable tag for a config ("t4_f60_s2_mixed"), used to label
/// bench cases and reports.
std::string scaleWorkloadTag(const ScaleWorkloadConfig &C);

} // namespace psopt

#endif // PSOPT_LITMUS_SCALEWORKLOAD_H
