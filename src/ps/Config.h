//===- ps/Config.h - Semantics/exploration knobs ----------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounds for the executable semantics. PS2.1's promise/reservation steps
/// are infinitely branching (any location, any value, any free interval);
/// the workbench restricts them to finite, configurable domains so that
/// exhaustive exploration terminates. See DESIGN.md §2 for why the default
/// domains preserve the behaviors the paper's examples rely on.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_CONFIG_H
#define PSOPT_PS_CONFIG_H

#include "lang/Ops.h"
#include "support/Symbol.h"

#include <set>

namespace psopt {

/// Knobs controlling the step relation and certification.
struct StepConfig {
  /// Allow promise steps at all. Promise-free exploration is complete for
  /// promise-independent behaviors and much cheaper.
  bool EnablePromises = true;

  /// Maximum simultaneous unfulfilled concrete promises per thread.
  unsigned MaxOutstandingPromises = 1;

  /// Allow reserve/cancel steps outside certification.
  bool EnableReservations = false;

  /// Certification search bounds (states visited in the capped memory).
  unsigned CertMaxStates = 20000;

  /// Memoize certification verdicts across machine steps (ps/CertCache.h).
  /// Behavior-neutral: bound-tripped searches are never cached, so every
  /// hit is bit-identical to recomputation. CLI: --cert-cache=on|off.
  bool EnableCertCache = true;
};

/// Per-thread promise candidate domain, precomputed from the program text:
/// locations the thread's code (transitively through calls) stores to with
/// mode na/rlx, and the constants those stores mention (plus 0).
struct PromiseDomain {
  std::set<VarId> Vars;
  std::set<Val> Values;
};

} // namespace psopt

#endif // PSOPT_PS_CONFIG_H
