//===- ps/View.h - Timestamps, time maps and thread views -------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timestamp domain and thread views of PS2.1 (Fig 8):
///
///   Time ∈ Q        TimeMap ∈ Var → Time        View ::= (Tna, Trlx)
///
/// A thread's view records, per variable, the most recent write it has
/// observed; Tna bounds non-atomic reads and Trlx bounds relaxed/acquire
/// reads. Views are joined pointwise (⊔). TimeMaps are sparse: absent
/// entries are 0 (the initial timestamp), and zero entries are erased so
/// that equality/hashing coincide with the semantic total map.
///
/// Representation (DESIGN.md §11): a vector of (VarId, Time) entries sorted
/// by the dense interned variable id. Programs touch a handful of locations,
/// so reads/joins/leq are linear scans over one contiguous allocation —
/// copying a view is a single vector copy instead of a red-black-tree clone,
/// which is what makes successor states cheap to derive.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_VIEW_H
#define PSOPT_PS_VIEW_H

#include "support/Rational.h"
#include "support/Symbol.h"

#include <algorithm>
#include <string>
#include <vector>

namespace psopt {

/// A timestamp (Time ∈ Q).
using Time = Rational;

/// Sparse map Var → Time defaulting to 0, as a flat sorted vector.
class TimeMap {
public:
  /// One non-zero binding. An aggregate so that range-for call sites can
  /// keep using structured bindings (`for (const auto &[X, T] : ...)`).
  struct Entry {
    VarId Var;
    Time T;

    friend bool operator==(const Entry &A, const Entry &B) {
      return A.Var == B.Var && A.T == B.T;
    }
  };
  using EntryList = std::vector<Entry>;

  /// Reads the timestamp for \p X (0 if absent).
  Time get(VarId X) const {
    auto It = find(X);
    return It == Entries.end() || It->Var != X ? Time(0) : It->T;
  }

  /// Sets the timestamp for \p X, keeping the representation sparse.
  void set(VarId X, const Time &T) {
    auto It = find(X);
    bool Present = It != Entries.end() && It->Var == X;
    if (T == Time(0)) {
      if (Present)
        Entries.erase(It);
    } else if (Present) {
      It->T = T;
    } else {
      Entries.insert(It, Entry{X, T});
    }
  }

  /// Joins with the entry (\p X, \p T): pointwise maximum.
  void joinAt(VarId X, const Time &T) {
    if (T == Time(0))
      return;
    auto It = find(X);
    if (It != Entries.end() && It->Var == X) {
      if (T > It->T)
        It->T = T;
    } else {
      Entries.insert(It, Entry{X, T});
    }
  }

  /// Pointwise maximum with \p O: a linear merge of the two sorted entry
  /// lists. When every key of \p O is already bound here the merge runs in
  /// place without allocating.
  void join(const TimeMap &O);

  /// True if this ≤ O pointwise (linear parallel scan).
  bool leq(const TimeMap &O) const;

  /// The non-zero entries (sorted by variable id).
  const EntryList &entries() const { return Entries; }

  bool operator==(const TimeMap &O) const { return Entries == O.Entries; }

  std::size_t hash() const;
  std::string str() const;

private:
  EntryList::iterator find(VarId X) {
    return std::lower_bound(
        Entries.begin(), Entries.end(), X,
        [](const Entry &E, VarId V) { return E.Var < V; });
  }
  EntryList::const_iterator find(VarId X) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), X,
        [](const Entry &E, VarId V) { return E.Var < V; });
  }

  // Sorted by Var; no zero entries.
  EntryList Entries;
};

/// A thread view V = (Tna, Trlx). Invariant (established by the step
/// relation): Tna ≤ Trlx pointwise.
class View {
public:
  const TimeMap &na() const { return Na; }
  const TimeMap &rlx() const { return Rlx; }

  /// Shorthand reads: the recorded timestamp for \p X (0 if absent).
  Time naAt(VarId X) const { return Na.get(X); }
  Time rlxAt(VarId X) const { return Rlx.get(X); }

  void setNaAt(VarId X, const Time &T) { Na.set(X, T); }
  void setRlxAt(VarId X, const Time &T) { Rlx.set(X, T); }
  void joinNaAt(VarId X, const Time &T) { Na.joinAt(X, T); }
  void joinRlxAt(VarId X, const Time &T) { Rlx.joinAt(X, T); }

  /// Wholesale replacement (the canonicalizer rebuilds renamed maps).
  void setNa(TimeMap TM) { Na = std::move(TM); }
  void setRlx(TimeMap TM) { Rlx = std::move(TM); }

  /// Pointwise join (V1 ⊔ V2).
  void join(const View &O) {
    Na.join(O.Na);
    Rlx.join(O.Rlx);
  }

  bool operator==(const View &O) const { return Na == O.Na && Rlx == O.Rlx; }

  std::size_t hash() const;
  std::string str() const;

private:
  TimeMap Na;
  TimeMap Rlx;
};

/// The bottom view V⊥ (all zeros).
inline View bottomView() { return View{}; }

} // namespace psopt

#endif // PSOPT_PS_VIEW_H
