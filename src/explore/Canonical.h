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
/// Canonical by construction: a successor of a canonical parent is
/// canonicalized from what its step changed. The renaming is a function
/// of the set of timestamps the state mentions, and that set is fixed by
/// the memory's interval endpoints alone:
///
///  * every thread-view timestamp (V, Acq, Rel — and so every message
///    view, which is a thread-view snapshot) is 0 or the To of a concrete
///    message: views only ever join read, written or promised messages'
///    Tos, and the terminated-thread projection only resets views to ⊥;
///  * concrete messages are never removed (only reservations are), so the
///    Tos a view once named stay in memory.
///
/// A canonical parent's set is therefore exactly {0..K}, K its largest
/// To. canonicalizeSuccessor scans only the message lists the child does
/// not share with the parent. When every parent message of those lists is
/// still there and every new message's endpoints are integers whose values
/// above K are exactly K+1..K+j, the child's set is {0..K+j}: the renaming
/// is the identity and the child is left untouched. A child that kept its
/// parent's memory passes trivially; so does every gap-free append (new
/// messages land at integers past the location's last To). Anything else
/// (a cancelled reservation, a gap-splitting placement) falls back to the
/// full canonicalizeState. Nothing here depends on which machine took the
/// step or on whether the explorer reduces, so the shared state graph
/// (explore/StateGraph.h) and the witness replays canonicalize successors
/// through the one helper and call canonicalizeState only on root states.
/// The graph also relies on the returned flag: an unrenamed child differs
/// from its parent only in the stepping thread and the changed lists, so
/// every other thread keeps its parent's pooled id (DESIGN.md §7).
///
/// Property-tested in tests/explore/CanonicalTest.cpp: idempotence, order
/// preservation, the canonical-by-construction rule over every reachable
/// reduced, unreduced and non-preemptive expansion, and the successor
/// fast path against the full renaming on the same graphs with promises
/// and reservations on.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_CANONICAL_H
#define PSOPT_EXPLORE_CANONICAL_H

#include "ps/Machine.h"

namespace psopt {

/// Renames every timestamp in \p S (message intervals, message views,
/// thread views) order-isomorphically onto consecutive integers. Returns
/// true when the renaming changed \p S (was not the identity).
bool canonicalizeState(MachineState &S);

/// Canonicalizes \p Child, a successor of the canonical state \p Parent,
/// from the lists its step changed (see above); returns true when it
/// renamed anything.
bool canonicalizeSuccessor(MachineState &Child, const MachineState &Parent);

} // namespace psopt

#endif // PSOPT_EXPLORE_CANONICAL_H
