//===- ps/TimeRename.h - Order-isomorphic timestamp renaming ----*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-pass timestamp renamer shared by the explorer's state
/// canonicalizer (explore/Canonical.cpp) and the certification cache's key
/// derivation (ps/CertCache.cpp). Pass one *notes* every timestamp that
/// occurs in the structure to be rewritten; freeze() assigns consecutive
/// integers in order; pass two *maps* each occurrence. Any strictly
/// monotone renaming preserves PS2.1 semantics (relative order and exact
/// from/to adjacency are all that matter), and renaming onto 0, 1, 2, ...
/// additionally keeps rationals small and makes order-isomorphic states
/// bit-identical.
///
/// The table is a flat sorted vector; freeze() additionally detects the
/// *identity* renaming (the noted set is already exactly 0..n-1). States
/// derived from a canonical parent by reads, joins, and gap-free appends
/// stay canonical, so on the explorer's hot path the renaming is usually
/// the identity and the rewrite pass can be skipped wholesale (DESIGN.md
/// §11). When it does run, message lists it leaves unchanged stay shared
/// copy-on-write with the parent's.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_TIMERENAME_H
#define PSOPT_PS_TIMERENAME_H

#include "ps/Memory.h"
#include "ps/View.h"

#include <algorithm>
#include <vector>

namespace psopt {

/// Collects timestamps into an order-preserving renaming table, then
/// rewrites in a second pass.
class TimeRenamer {
public:
  void note(const Time &T) { Table.push_back(T); }

  void noteTimeMap(const TimeMap &TM) {
    for (const auto &[X, T] : TM.entries())
      note(T);
  }

  void noteView(const View &V) {
    noteTimeMap(V.na());
    noteTimeMap(V.rlx());
  }

  /// Notes every interval endpoint and message-view timestamp in \p M.
  void noteMemory(const Memory &M);

  /// Sorts and dedups the noted timestamps and assigns them consecutive
  /// integers 0, 1, 2, ... in increasing order. Must be called between the
  /// note and map passes.
  void freeze();

  /// True when the frozen renaming maps every noted timestamp to itself.
  /// Callers then skip the rewrite pass entirely.
  bool isIdentity() const { return Identity; }

  Time map(const Time &T) const {
    // Every timestamp in the structure was noted in pass one, so T is
    // present and lower_bound lands exactly on it; its index is its new
    // value.
    auto It = std::lower_bound(Table.begin(), Table.end(), T);
    return Time(static_cast<std::int64_t>(It - Table.begin()));
  }

  TimeMap mapTimeMap(const TimeMap &TM) const {
    if (Identity)
      return TM;
    TimeMap Out;
    for (const auto &[X, T] : TM.entries())
      Out.set(X, map(T));
    return Out;
  }

  /// True when mapping would change some entry of \p TM / \p V (used to
  /// leave untouched structures alone).
  bool changesTimeMap(const TimeMap &TM) const {
    for (const auto &[X, T] : TM.entries())
      if (map(T) != T)
        return true;
    return false;
  }
  bool changesView(const View &V) const {
    return changesTimeMap(V.na()) || changesTimeMap(V.rlx());
  }

  View mapView(const View &V) const {
    if (Identity || !changesView(V))
      return V;
    View Out;
    Out.setNa(mapTimeMap(V.na()));
    Out.setRlx(mapTimeMap(V.rlx()));
    return Out;
  }

  /// Rewrites every message interval and message view of \p M in place.
  /// Location lists the renaming leaves unchanged are skipped, so their
  /// (possibly COW-shared) storage survives.
  void rewriteMemory(Memory &M) const;

private:
  // Noted timestamps; sorted and deduped by freeze(). A noted timestamp's
  // index is its renamed value.
  std::vector<Time> Table;
  bool Identity = false;
};

} // namespace psopt

#endif // PSOPT_PS_TIMERENAME_H
