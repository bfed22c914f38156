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
/// path-dependent — memoized globally, so each pair is visited once. Both
/// halves are interned per explore() call: canonical states in a state
/// table, traces in a hash-consed trie (explore/TraceTrie.h), so a node is
/// two ids. The state table keys a state by component ids: each distinct
/// thread state and each distinct (location, message list) is stored once
/// per call in a hash-consing pool, and a state's key is (Cur,
/// SwitchAllowed) plus one pool id per thread and per location. A child
/// reuses its parent's id for every component it shares with the parent,
/// so only the components a step changed probe a pool. A state's full
/// MachineState is kept only until the state is expanded; an expanded
/// entry is its key and its edges. Everything an expansion computes
/// except the trace bookkeeping (successors, the reducer's fused chain,
/// projection, canonicalization) depends on the state alone, so it is
/// computed once per state, the first time any node reaches it, and every
/// later node with that state only follows the stored edges under its own
/// trace. For a finite-control
/// program with bounded promises the graph is finite thanks to timestamp
/// canonicalization; spinning loops revisit canonical states and
/// terminate the search. The bounds below are safety nets whose violation
/// flips BehaviorSet::Exhausted to false.
///
/// Exploration is embarrassingly order-independent: because the visited
/// set deduplicates exactly and BehaviorSet stores ordered sets, any
/// schedule of node expansions that covers the reachable graph yields the
/// same BehaviorSet. The one search engine, a ParallelBfs worker pool
/// (explore/ParallelBfs.h), exploits this: each worker accumulates private
/// sets of trace ids, which are materialized into the BehaviorSet once
/// the pool joins. With ExploreConfig::Jobs == 1 the pool runs on the
/// calling thread and spawns nothing. When a bound trips, Exhausted is
/// false at every worker count and the sets are (possibly different)
/// under-approximations; NodesVisited is still exactly MaxNodes. See
/// DESIGN.md §7.
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
