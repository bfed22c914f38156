//===- race/WWRace.h - Write-write race freedom -----------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Write-write races in PS2.1 (§5, Fig 11). A machine state generates a
/// write-write race, W ⇒ ww-Race, when some thread t is about to perform a
/// non-atomic write to a location x (nxt(σ) = W(na, x, _)) while the memory
/// contains a concrete message on x, outside t's promise set, that t has
/// not observed (V.Trlx(x) < m.to).
///
/// The promise-sensitivity of §2.4/Fig 4 comes for free: the check runs on
/// *reachable* states only, and every machine step re-certifies the
/// stepping thread's promises, so executions whose promises can no longer
/// be fulfilled never reach the would-be racy state.
///
/// ww-RF(P) checks the interleaving machine, ww-NPRF(P) the non-preemptive
/// machine; Lm 5.1 says the two verdicts agree (tested on the suite).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_RACE_WWRACE_H
#define PSOPT_RACE_WWRACE_H

#include "ps/Machine.h"

#include <functional>
#include <optional>
#include <string>

namespace psopt {

/// Diagnostic for a detected race.
struct RaceWitness {
  Tid Thread = 0;
  VarId Var;
  std::string Description;
};

/// The Fig 11 state predicate: does \p S generate a write-write race?
std::optional<RaceWitness> stateHasWWRace(const Program &P,
                                          const MachineState &S);

/// Result of a whole-program race-freedom check.
struct RaceCheckResult {
  bool RaceFree = true;
  bool Exact = true; ///< exploration was exhaustive
  std::optional<RaceWitness> Witness;
  std::uint64_t StatesChecked = 0;

  explicit operator bool() const { return RaceFree; }
};

/// Exploration bounds for race checking (reuses the explorer's node bound).
struct RaceCheckConfig {
  std::uint64_t MaxNodes = 2'000'000;

  /// Worker threads for the reachability search; 1 runs it on the calling
  /// thread. The race-free/racy verdict is schedule-independent (the
  /// search covers the same reachable state set), but the reported witness
  /// may differ between runs when several racy states exist.
  unsigned Jobs = 1;
};

/// ww-RF(P): no reachable interleaving-machine state generates a ww race.
RaceCheckResult checkWWRaceFreedom(const Program &P, const StepConfig &SC = {},
                                   const RaceCheckConfig &C = {});

/// ww-NPRF(P): the same over the non-preemptive machine.
RaceCheckResult checkWWRaceFreedomNP(const Program &P,
                                     const StepConfig &SC = {},
                                     const RaceCheckConfig &C = {});

/// Generic form over any machine.
RaceCheckResult
checkRaceFreedom(const Machine &M, const RaceCheckConfig &C,
                 const std::function<std::optional<RaceWitness>(
                     const Program &, const MachineState &)> &Predicate);

} // namespace psopt

#endif // PSOPT_RACE_WWRACE_H
