//===- ps/Certification.h - Promise certification ---------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Promise certification (§3):
///
///   consistent(TS, M, ι) iff ∃TS'. ι ⊢ (TS, M̂) →* (TS', _) ∧ TS'.P = ∅
///
/// The thread must be able to fulfil all of its outstanding promises when
/// run in isolation from the *capped* memory M̂ (gaps filled with unowned
/// reservations plus a per-location cap reservation). The search is a
/// memoized DFS over the thread's isolated executions; no new promises are
/// made during certification, reservations may be cancelled and used.
///
/// The search is bounded by StepConfig::CertMaxStates; exceeding the bound
/// reports "not consistent" (an under-approximation, reported via the
/// statistic psopt.cert.bound_hits so suites can assert it never fired).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_CERTIFICATION_H
#define PSOPT_PS_CERTIFICATION_H

#include "ps/Config.h"
#include "ps/Memory.h"
#include "ps/ThreadState.h"

namespace psopt {

class CertCache;

/// Outcome of one certification search. BoundTripped (CertMaxStates
/// exceeded) reports "not consistent" to callers like Inconsistent does,
/// but is a *resource* verdict, not a semantic one — the certification
/// cache must never store it (see ps/CertCache.h).
enum class CertResult : std::uint8_t { Consistent, Inconsistent, BoundTripped };

/// Runs the certification search for thread \p T from (\p TS, \p Capped),
/// where \p Capped is the already-capped memory M̂, stepping with the
/// machine's acquire-view tracking \p TrackAcqView (enumerateProgramSteps).
/// No fast path and no caching — callers normally want consistent()
/// instead.
CertResult certSearch(const Program &P, Tid T, const ThreadState &TS,
                      Memory Capped, const StepConfig &C,
                      bool TrackAcqView);

/// True iff thread \p T can certify all its promises from state (\p TS, \p M).
/// Fast path: no concrete promises — trivially consistent. When \p Cache is
/// non-null, completed verdicts are memoized under the canonicalized
/// (thread state, capped memory) key; bound-tripped searches are never
/// cached, so a hit is bit-identical to recomputation. The key omits
/// \p TrackAcqView, so one cache must only ever serve one value of it;
/// each machine owns its cache and derives the flag once from its program.
bool consistent(const Program &P, Tid T, const ThreadState &TS,
                const Memory &M, const StepConfig &C,
                CertCache *Cache = nullptr, bool TrackAcqView = false);

} // namespace psopt

#endif // PSOPT_PS_CERTIFICATION_H
