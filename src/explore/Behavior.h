//===- explore/Behavior.h - Observable behaviors ----------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observable event traces (Fig 8):
///
///   B ::= ϵ | done | abort | out(v) :: B
///
/// A Behavior is one trace: the sequence of printed values plus how the
/// trace ends. `Partial` covers the grammar's plain ϵ/out-prefix traces —
/// executions observed up to some point (including blocked executions and
/// exploration cutoffs). A BehaviorSet is everything a program can do: the
/// complete traces plus the set of all reachable output prefixes, with
/// bookkeeping about whether exploration was exhaustive.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_BEHAVIOR_H
#define PSOPT_EXPLORE_BEHAVIOR_H

#include "lang/Ops.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace psopt {

/// A trace of printed values.
using Trace = std::vector<Val>;

/// One observable behavior.
struct Behavior {
  Trace Outs;
  enum class End : std::uint8_t {
    Partial, ///< observed prefix (blocked execution or exploration cutoff)
    Done,    ///< all threads terminated
    Abort    ///< a dynamic error occurred
  } Ending = End::Partial;

  bool operator==(const Behavior &O) const {
    return Ending == O.Ending && Outs == O.Outs;
  }
  bool operator<(const Behavior &O) const {
    if (Outs != O.Outs)
      return Outs < O.Outs;
    return Ending < O.Ending;
  }

  std::string str() const;
};

/// The set of behaviors produced by (bounded) exhaustive exploration.
struct BehaviorSet {
  std::set<Trace> Done;     ///< complete traces ending in `done`
  std::set<Trace> Abort;    ///< traces ending in `abort`
  std::set<Trace> Prefixes; ///< every reachable output prefix (incl. ϵ)
  std::set<Trace> Blocked;  ///< prefixes of executions with no successor

  /// True when exploration finished without hitting any bound, i.e. the
  /// sets above are exact for the configured promise/reservation bounds.
  bool Exhausted = true;

  // Exploration statistics (for the benches).
  std::uint64_t NodesVisited = 0;   ///< (state, trace) pairs expanded
  std::uint64_t UniqueStates = 0;   ///< distinct canonical states expanded
  std::uint64_t Transitions = 0;    ///< machine steps taken

  /// True if the exact trace \p T ending in done was observed.
  bool hasDone(const Trace &T) const { return Done.count(T) != 0; }

  /// True if some done trace's multiset of outputs equals \p Vals —
  /// convenient for litmus outcomes where the print order across threads
  /// is irrelevant.
  bool hasDoneMultiset(const std::multiset<Val> &Vals) const;

  /// True if any abort was observed.
  bool anyAbort() const { return !Abort.empty(); }

  /// Full structural equality, statistics included. Exploration at any
  /// worker count is required to be bit-identical to jobs=1 under this
  /// comparison whenever no bound trips (ParallelEquivalenceTest).
  bool operator==(const BehaviorSet &O) const {
    return Exhausted == O.Exhausted && NodesVisited == O.NodesVisited &&
           UniqueStates == O.UniqueStates && Transitions == O.Transitions &&
           Done == O.Done && Abort == O.Abort && Prefixes == O.Prefixes &&
           Blocked == O.Blocked;
  }
  bool operator!=(const BehaviorSet &O) const { return !(*this == O); }

  /// Behavior-level equality: the observable trace sets and the Exhausted
  /// flag, counters excluded. Reduced exploration (--reduce=on) visits
  /// fewer nodes than unreduced exploration of the same program, so the
  /// two are compared with this; engines running the *same* configuration
  /// are still held to full operator== (counters included).
  bool sameBehaviors(const BehaviorSet &O) const {
    return Exhausted == O.Exhausted && Done == O.Done && Abort == O.Abort &&
           Prefixes == O.Prefixes && Blocked == O.Blocked;
  }

  std::string str() const;
};

} // namespace psopt

#endif // PSOPT_EXPLORE_BEHAVIOR_H
