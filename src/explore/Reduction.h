//===- explore/Reduction.h - Equivalence-class schedule reduction -*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer's reduction layer (ExploreConfig::Reduce, default on): an
/// ample-set scheduler that collapses commuting interleavings to a single
/// representative order, plus a projection of terminated threads' state.
/// Selection is a pure function of the state, so the reduced graph — and
/// with it every BehaviorSet counter — is identical at every worker count,
/// and the explorer selects once per canonical state: selectFused reports
/// the chain's facts (FusedChain) instead of counting, and the explorer
/// charges the reduction.* counters per visited node from them. Soundness
/// argument in DESIGN.md §10 and §13; the reduced == unreduced behavior
/// sweep lives in tests/explore/ReductionEquivalenceTest.
///
/// Two cooperating mechanisms:
///
///  1. Fused thread-local chains (the ample set). At a state where some
///     promise-free thread T's next step is its *unique*, non-aborting,
///     thread-local successor (a tau — skip/assign/control —, a read of a
///     location no other thread can write, or, by the static footprint
///     facts of DESIGN.md §13, a store/CAS to a location no peer touches
///     or a fusible fence), only T is scheduled, and T's whole maximal
///     deterministic chain of such steps is fused into one machine step.
///     Selection is a pure function of the state (never of the visited
///     set), so the reduction composes with parallel search.
///     A chain that revisits a local state (a register-pure spin) is
///     rejected — that thread can idle forever, so other threads' steps
///     are not postponable past it (the classic ignoring problem; this
///     state-local test replaces the cycle proviso, which would be
///     schedule-dependent under a concurrent frontier).
///
///  2. Terminated-thread projection. A terminated thread's view, residual
///     registers and control point are unreadable — no step relation ever
///     consults them — so they are canonicalized away (view to bottom,
///     LocalState::collapseTerminated), merging states that differ only
///     in how a finished thread got there.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_REDUCTION_H
#define PSOPT_EXPLORE_REDUCTION_H

#include "ps/Machine.h"
#include "support/Statistic.h"

#include <vector>

namespace psopt {

namespace detail {
/// The reduction.* counters (defined in Reduction.cpp): nodes expanded
/// through a fused chain, steps collapsed inside those chains, and sibling
/// threads skipped at them. The explorer charges them per visited node
/// from the FusedChain its state's expansion recorded.
Statistic &numReductionAmpleNodes();
Statistic &numReductionFusedSteps();
Statistic &numReductionSleepSkips();
} // namespace detail

/// What one ample-set selection found: the fused chain's length in thread
/// steps (0 when no thread is fusible and the state expands fully) and
/// how many live sibling threads the choice left unscheduled.
struct FusedChain {
  unsigned Len = 0;
  unsigned SleepSkips = 0;
};

/// Per-worker scratch buffers for the reduction layer; reused across node
/// expansions to keep the hot path allocation-free.
struct ReducerScratch {
  std::vector<ThreadSuccessor> Steps;   ///< store/CAS enumeration buffer
  ThreadState Chain;                    ///< the thread walked along a chain
  std::vector<std::size_t> ChainLocals; ///< local-state hashes along a chain
};

/// One exploration's reduction context: static per-thread facts (write
/// footprints, promise domains) consulted by the per-state ample-set
/// selection. Immutable after construction — workers share one instance
/// and pass their own ReducerScratch.
class Reducer {
public:
  /// Gathers the per-thread facts: write footprints, promise domains, and
  /// the static peer-read footprints of analysis/Footprint.h.
  explicit Reducer(const Machine &M);

  /// Ample-set selection: if some thread is fusible at \p S, writes the
  /// fused macro-successor (the whole thread-local chain collapsed into a
  /// single tau-labeled machine step) to \p Out and returns the chain's
  /// facts; otherwise returns a zero-length chain. Pure in \p S: every
  /// worker makes the same choice at the same state, so the explorer
  /// selects once per canonical state and replays the facts per node.
  FusedChain selectFused(const MachineState &S, ReducerScratch &Scr,
                         MachineSuccessor &Out) const;

  /// Applies the terminated-thread observable projection to \p S in place.
  /// Idempotent; called on every node state before canonicalization.
  void project(MachineState &S) const;

private:
  /// Longest chain the fuser will walk before giving up on a thread; a
  /// safety net against pathological register-counting loops (which the
  /// local-cycle test cannot cut because every iteration is distinct).
  static constexpr unsigned MaxChainLen = 4096;

  struct ThreadFacts {
    /// Union of every *other* thread's static write footprint: locations a
    /// read by this thread can race with. A load outside this set is
    /// thread-local for scheduling purposes.
    std::set<VarId> OthersWrite;
    /// Union of every *other* thread's static read footprint (from
    /// analysis/Footprint.h): a store to a location outside OthersWrite ∪
    /// OthersRead deposits a message no peer can ever observe.
    std::set<VarId> OthersRead;
    /// This thread's own promise location domain. When promises are
    /// enabled, a read of an own-promisable location is not fusible: the
    /// pruned "promise first, then read own promise" order is observable.
    std::set<VarId> OwnPromisable;
  };

  /// True when thread \p T's read of \p X commutes with every step any
  /// peer (or T's own promise machinery) could take.
  bool exclusiveRead(Tid T, VarId X) const;

  /// True when thread \p T's store/CAS to \p X commutes with every peer
  /// step: no peer reads or writes \p X, \p X is outside T's own promise
  /// domain, and reservations are off (a peer reservation on \p X would
  /// perturb T's placement enumeration).
  bool exclusiveWrite(Tid T, VarId X) const;

  /// True when a fence of mode \p FM by thread \p T is fusible: acq-only
  /// fences always (a pure thread-local view edit); rel-carrying fences
  /// only when T can make no promises at all (the fence rewrites the Rel
  /// snapshot that future promises' message views would carry, so the
  /// pruned "promise before the fence" order is observable otherwise).
  bool fusibleFence(Tid T, FenceMode FM) const;

  const Machine *M;
  std::vector<ThreadFacts> Facts; // indexed by thread id
};

} // namespace psopt

#endif // PSOPT_EXPLORE_REDUCTION_H
