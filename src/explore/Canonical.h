//===- explore/Canonical.h - Timestamp canonicalization ---------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order-isomorphic timestamp renaming. The semantics of PS2.1 depends on
/// timestamps only through (a) their relative order and (b) exact
/// from/to adjacency of intervals (CAS chaining) — both preserved by any
/// strictly monotone renaming. After every machine step the explorer
/// renames all timestamps occurring in a state onto 0, 1, 2, ..., which
///
///  * keeps rationals small (no denominator growth across long runs), and
///  * makes states that differ only in concrete timestamp choices
///    *identical*, so the reachable state graph of a finite-control
///    program is finite and memoizable.
///
/// Canonical by construction: a successor whose memory equals that of its
/// canonical parent is already canonical, so canonicalizeSuccessor skips
/// the renaming for it (one memory compare, by pointer for COW-shared
/// lists). The renaming is a function of the set of timestamps the state
/// mentions, and that set is fixed by the memory alone:
///
///  * every thread-view timestamp (V, Acq, Rel — and so every message
///    view, which is a thread-view snapshot) is 0 or the To of a concrete
///    message: views only ever join read, written or promised messages'
///    Tos, and the terminated-thread projection only resets views to ⊥;
///  * concrete messages are never removed (only reservations are), so the
///    Tos a view once named stay in memory.
///
/// Hence equal memories give equal timestamp sets, and the parent's
/// renaming — the identity, since the parent is canonical — is the
/// child's too. Nothing here depends on which machine took the step or on
/// whether the explorer reduces, so the shared state graph
/// (explore/StateGraph.h) and the witness replays canonicalize successors
/// through the one helper and call canonicalizeState only on root states.
///
/// Property-tested in tests/explore/CanonicalTest.cpp: idempotence, order
/// preservation, step-commutation on random programs, and the
/// canonical-by-construction rule over every reachable reduced, unreduced
/// and non-preemptive expansion.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_CANONICAL_H
#define PSOPT_EXPLORE_CANONICAL_H

#include "ps/Machine.h"

namespace psopt {

/// Renames every timestamp in \p S (message intervals, message views,
/// thread views) order-isomorphically onto consecutive integers.
void canonicalizeState(MachineState &S);

/// Canonicalizes \p Child, a successor of the canonical state \p Parent:
/// a child that kept its parent's memory is already canonical (see above)
/// and is left untouched.
inline void canonicalizeSuccessor(MachineState &Child,
                                  const MachineState &Parent) {
  if (!(Child.Mem == Parent.Mem))
    canonicalizeState(Child);
}

} // namespace psopt

#endif // PSOPT_EXPLORE_CANONICAL_H
