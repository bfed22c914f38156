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
/// A chain's outcome depends only on its thread, that thread's state and
/// the message lists of the thread's exclusive locations (those no peer
/// writes), so each worker's ReducerScratch memoizes it under that key and
/// walks each distinct chain once per exploration (DESIGN.md §10). The
/// memo is a cache, not a second path: a miss runs the walk.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_REDUCTION_H
#define PSOPT_EXPLORE_REDUCTION_H

#include "ps/Machine.h"
#include "support/Statistic.h"

#include <cstdint>
#include <unordered_map>
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
/// Chain-memo lookups that found / did not find the chain's outcome. Which
/// worker first walks a chain is schedule-dependent, so at -j>1 these two
/// vary from run to run (their sum does not); no exact counter diff
/// includes them.
Statistic &numReductionChainMemoHits();
Statistic &numReductionChainMemoMisses();
} // namespace detail

/// What one ample-set selection found: the fused chain's length in thread
/// steps (0 when no thread is fusible and the state expands fully) and
/// how many live sibling threads the choice left unscheduled.
struct FusedChain {
  unsigned Len = 0;
  unsigned SleepSkips = 0;
};

/// The outcome of walking thread T's thread-local chain from some state:
/// everything the fused successor takes from the walk.
struct ChainOutcome {
  /// Fused steps; 0 when the chain revisits a local state, reaches
  /// MaxChainLen, or its first step cannot fuse.
  unsigned Len = 0;
  ThreadState End; ///< T after the chain (unused when Len is 0)
  /// The exclusive locations the chain's stores changed: storage() index
  /// and the location's new message list.
  std::vector<std::pair<std::size_t, Memory::Loc>> Stores;
};

/// One memoized chain: its key — the thread, its state at the chain
/// start, and the message lists of its exclusive locations — and outcome.
struct ChainMemoEntry {
  Tid T = 0;
  ThreadState Start;
  std::vector<Memory::Loc> Slice; ///< in the Reducer's exclusive-location order
  ChainOutcome Out;
};

/// Per-worker scratch for the reduction layer: buffers reused across node
/// expansions to keep the hot path allocation-free, and the chain memo.
/// A scratch serves one Reducer at a time; passing it to another Reducer
/// drops the memo. The memo copies the exclusive lists of the states it
/// saw, borrowed where those states borrow them (a state graph's states,
/// DESIGN.md §11), so a scratch must not outlive the graph it served.
struct ReducerScratch {
  std::vector<ThreadSuccessor> Steps;   ///< store/CAS enumeration buffer
  std::vector<std::size_t> ChainLocals; ///< local-state hashes along a chain
  /// Walked chains, by the hash of their key.
  std::unordered_multimap<std::size_t, ChainMemoEntry> Memo;
  std::uint64_t MemoOwner = 0; ///< id of the Reducer whose chains Memo holds
  std::uint64_t MemoHits = 0;   ///< lookups answered by Memo
  std::uint64_t MemoMisses = 0; ///< lookups that walked the chain
};

/// One exploration's reduction context: static per-thread facts (write
/// footprints, promise domains) consulted by the per-state ample-set
/// selection. Immutable after construction — workers share one instance
/// and pass their own ReducerScratch, which memoizes chains per worker.
class Reducer {
public:
  /// Gathers the per-thread facts: write footprints, promise domains, and
  /// the static peer-read footprints of analysis/Footprint.h.
  explicit Reducer(const Machine &M);

  /// Ample-set selection: if some thread is fusible at \p S, writes the
  /// fused macro-successor (the whole thread-local chain collapsed into a
  /// single tau-labeled machine step) to \p Out and returns the chain's
  /// facts; otherwise returns a zero-length chain. Pure in \p S — the
  /// memo in \p Scr only saves walks — so every worker makes the same
  /// choice at the same state, and the explorer selects once per
  /// canonical state and replays the facts per node.
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
    /// Union of every *other* thread's static write footprint
    /// (FootprintAnalysis::peersWrite): locations a read by this thread
    /// can race with. A load outside this set is thread-local for
    /// scheduling purposes.
    std::set<VarId> OthersWrite;
    /// Union of every *other* thread's static read footprint (from
    /// analysis/Footprint.h): a store to a location outside OthersWrite ∪
    /// OthersRead deposits a message no peer can ever observe.
    std::set<VarId> OthersRead;
    /// This thread's own promise location domain. When promises are
    /// enabled, a read of an own-promisable location is not fusible: the
    /// pruned "promise first, then read own promise" order is observable.
    std::set<VarId> OwnPromisable;
    /// storage() indices of the locations outside OthersWrite, in VarId
    /// order: every location a chain of this thread can read or write.
    std::vector<std::size_t> Exclusive;
  };

  /// The cheap locality screen on the instruction \p I that thread \p T
  /// would execute next (null: a terminator): false when that step cannot
  /// fuse, judged from its kind, location and fence mode alone.
  bool mayFuse(Tid T, const Instr *I) const;

  /// The chain of thread \p T from \p S: from \p Scr's memo, or walked
  /// and memoized there.
  const ChainOutcome &chainFrom(const MachineState &S, Tid T,
                                ReducerScratch &Scr) const;

  /// Walks thread \p T's maximal thread-local chain from \p S into \p Out,
  /// a fresh outcome.
  void walkChain(const MachineState &S, Tid T, ReducerScratch &Scr,
                 ChainOutcome &Out) const;

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
  std::size_t NumLocs = 0;        // storage() size of every state of M
  std::uint64_t Id;               // tells apart the Reducers a scratch serves
};

} // namespace psopt

#endif // PSOPT_EXPLORE_REDUCTION_H
