//===- sim/SimChecker.h - Thread-local simulation checking ------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An executable rendition of the paper's thread-local simulation
/// I, ι ⊨ (TS_t, M_t) ≼^{β,D}_φ (TS_s, M_s) (§6, Def 6.1, Fig 14): a
/// bounded ∀∃ game search that checks, for a concrete function f of a
/// target/source program pair, that every target step has a matching
/// source response:
///
///  * NA step (Fig 14a)  — the source replies with zero or more na steps;
///    a target na write enters the delayed write set D and the remaining
///    delayed indices must strictly decrease (well-foundedness as fuel);
///  * AT step (Fig 14b)  — the source performs *the same* atomic access
///    (same event, modes, location, values) after an optional na prefix;
///    D must be empty, φ is extended with the new message pair, the
///    invariant I must hold again (the step re-opens the switch bit);
///  * promise (Fig 14c) — the source promises the corresponding write
///    (same location and value); I is preserved (optional, see
///    SimConfig::TargetPromises);
///  * out — the source emits the same value.
///
/// At every switch point (β = ◦) the invariant I must hold, and the
/// adversary may apply *environment actions* from a finite, user-supplied
/// model: writes by other threads appended to both memories and related by
/// φ (an action whose result violates I is not a legal Rely move and is
/// skipped). The full ∀-quantification over Rely is the Coq proof's job;
/// the checker validates the simulation technique against the supplied
/// environment (DESIGN.md §2).
///
/// Cycles in the product graph are accepted coinductively (the delayed
/// write fuel rules out the unsound stutter loops).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_SIM_SIMCHECKER_H
#define PSOPT_SIM_SIMCHECKER_H

#include "ps/ThreadStep.h"
#include "sim/DelayedWrites.h"
#include "sim/Invariant.h"

#include <string>
#include <vector>

namespace psopt {

/// One concrete environment move: another thread appends a write of
/// \p Value to \p Var in both memories (message views are V⊥ — the model
/// covers na/rlx interference, which is what the §6 examples need).
///
/// TightOnSource appends the source-side message *adjacent* to its
/// predecessor (from = predecessor's to), leaving no unused interval before
/// it. Under Idce such a move violates the invariant and is skipped; under
/// the gap-free ablation Idce-nogap it is legal and lets tests reproduce
/// Fig 16's argument for why the unused-interval clause is needed.
struct EnvAction {
  std::string Name;
  VarId Var;
  Val Value;
  bool TightOnSource = false;
};

/// Checker bounds.
struct SimConfig {
  /// Fuel assigned to a fresh delayed write (the well-founded index).
  std::uint64_t DelayFuel = 8;
  /// Maximum source steps in one response (the na* prefix).
  unsigned MaxSourceSteps = 8;
  /// Product-configuration budget. A search it cuts short reports
  /// SimResult::Bounded rather than a refutation.
  std::uint64_t MaxConfigs = 200000;
  /// Whether target promise/reserve/cancel steps are explored (Fig 14c).
  bool TargetPromises = false;
};

/// Verdict of a simulation check. Not Holds and not Bounded means the
/// simulation is refuted.
struct SimResult {
  bool Holds = false;
  /// The MaxConfigs budget cut the search before it could show the
  /// simulation; the verdict is unknown and FailReason stays empty.
  bool Bounded = false;
  std::string FailReason;       ///< first refutation, human-readable
  std::uint64_t ConfigsVisited = 0;

  explicit operator bool() const { return Holds; }
};

/// Checks I, ι ⊨ (π_t, f) ≼ (π_s, f) against the environment model \p Env.
SimResult checkThreadSimulation(const Program &Tgt, const Program &Src,
                                FuncId F, const Invariant &I,
                                const std::vector<EnvAction> &Env,
                                const SimConfig &C = {});

} // namespace psopt

#endif // PSOPT_SIM_SIMCHECKER_H
