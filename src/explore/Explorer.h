//===- explore/Explorer.h - Bounded exhaustive exploration ------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model checker: exhaustively enumerates the reachable (canonical
/// machine state, output trace) graph of a program under a given machine
/// (interleaving or non-preemptive) and collects its BehaviorSet.
///
/// Nodes are (state, trace) pairs — traces matter because behaviors are
/// path-dependent — and each pair is visited once. A node is two ids: a
/// state entry of the interned state graph (explore/StateGraph.h),
/// expanded once however many nodes reach it and marked with the traces
/// that reached it, and a trace entry of a hash-consed trie
/// (explore/TraceTrie.h), marked with how its nodes end. For a
/// finite-control program with bounded promises the graph is finite thanks
/// to timestamp canonicalization. The bounds below are safety nets whose
/// violation flips BehaviorSet::Exhausted to false.
///
/// The search is a ParallelBfs worker pool (explore/ParallelBfs.h). The
/// BehaviorSet is read off the trie's marks once the pool joins, so every
/// worker count yields the same BehaviorSet on exhausted runs. When a
/// bound trips, Exhausted is false at every worker count and NodesVisited
/// is exactly MaxNodes. See DESIGN.md §7.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_EXPLORER_H
#define PSOPT_EXPLORE_EXPLORER_H

#include "explore/Behavior.h"
#include "ps/Machine.h"

namespace psopt {

/// Exploration bounds and parallelism.
struct ExploreConfig {
  std::uint64_t MaxNodes = 2'000'000; ///< (state, trace) pairs visited
  unsigned MaxOuts = 32;              ///< outputs per trace (per node)

  /// Worker threads expanding the frontier; 1 runs the search on the
  /// calling thread. Every worker count produces an identical BehaviorSet
  /// (asserted across the litmus registry and random programs in
  /// tests/explore/ParallelEquivalenceTest.cpp).
  unsigned Jobs = 1;

  /// Equivalence-class schedule reduction (explore/Reduction.h): fuse
  /// deterministic thread-local chains — guided by static footprint facts
  /// (analysis/Footprint.h, DESIGN.md §13) — into single steps and
  /// collapse terminated threads' unreadable state. Behavior-preserving — the trace sets and
  /// Exhausted agree with unreduced exploration (BehaviorSet::
  /// sameBehaviors, swept in tests/explore/ReductionEquivalenceTest.cpp)
  /// — but NodesVisited/UniqueStates/Transitions shrink. Applies only to
  /// machines that opt in (Machine::supportsReduction; the interleaving
  /// machine); every worker count at the same setting stays bit-identical.
  /// CLI: --reduce=on|off.
  bool Reduce = true;
};

/// Explores \p M exhaustively (within \p C) and returns its behaviors.
BehaviorSet explore(const Machine &M, const ExploreConfig &C = {});

/// Convenience: explores \p P under the interleaving machine.
BehaviorSet exploreInterleaving(const Program &P, const StepConfig &SC = {},
                                const ExploreConfig &C = {});

/// Convenience: explores \p P under the non-preemptive machine.
BehaviorSet exploreNonPreemptive(const Program &P, const StepConfig &SC = {},
                                 const ExploreConfig &C = {});

} // namespace psopt

#endif // PSOPT_EXPLORE_EXPLORER_H
