//===- explore/StateGraph.h - The interned state graph ----------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The configuration graph all three searches walk: explore(), the race
/// checker (race/WWRace.h) and the witness search (explore/Witness.h).
/// States are interned by pooled component ids, expanded once each, and
/// marked with the search nodes reaching them; see DESIGN.md §7.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_STATEGRAPH_H
#define PSOPT_EXPLORE_STATEGRAPH_H

#include "explore/Reduction.h"
#include "explore/Sharded.h"
#include "explore/TraceTrie.h"
#include "ps/Machine.h"
#include "support/Hashing.h"
#include "support/Statistic.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace psopt {

/// A canonical state by component ids: Cur and SwitchAllowed packed into
/// one word, then one pooled thread-state id per thread and one pooled
/// message-list id per Memory::storage() index. An id is the address of
/// the pooled copy, so ids are equal iff the components are equal, and
/// the two pools hold distinct objects, so a thread id never equals a
/// list id: two states have equal keys iff they are equal.
struct StateKey {
  const std::uintptr_t *Words;
  std::size_t Len;
  std::size_t Hash; ///< the finalized fold of the words

  bool operator==(const StateKey &O) const {
    return Hash == O.Hash && Len == O.Len &&
           std::equal(Words, Words + Len, O.Words);
  }
};

struct StateSlot;
/// An interned canonical state: its key plus the slot holding its full
/// state until expansion and then its expansion. Entries never move, so
/// the address is the id.
using StateEntry = std::pair<const StateKey, StateSlot>;

/// One machine step out of a state. Abort steps have no child.
struct Edge {
  StateEntry *Child;
  MachineEvent::Kind K;
  Val Out; ///< the printed value of an Out step
};

/// Everything expanding a state computes from the state alone: how it
/// ends (or its successors, projected, canonicalized and interned) and
/// the fused-chain facts the reduction counters are charged from.
struct Expansion {
  std::once_flag Once;
  bool Done = false; ///< all threads terminated; no edges
  FusedChain Chain;  ///< Len 0 unless the reducer fused a chain here
  std::vector<Edge> Edges; ///< empty (and not Done): blocked
};

struct StateSlot {
  /// The full state, from interning until its expansion moves it out.
  std::unique_ptr<MachineState> Pending;
  Expansion X;
  /// The trace tags the entry was reached under, guarded by its shard's
  /// lock. Most states are reached under a few traces: a flat list.
  std::vector<TraceTrie::Id> Reached;
};

/// A search worker's expansion buffers, reused across expansions, and
/// the counts it charges per state instead of writing shared counters:
/// the search sums Expanded once its workers join, and the scratch adds
/// its ThreadSteps to machine.thread_steps when it dies. It must not
/// outlive the graph: its chain memo borrows the graph's pooled lists.
struct ExpandScratch {
  ExpandScratch() = default;
  ExpandScratch(const ExpandScratch &) = delete; // would count twice
  ExpandScratch &operator=(const ExpandScratch &) = delete;
  ~ExpandScratch() { addThreadSteps(ThreadSteps); }

  std::vector<MachineSuccessor> SuccBuf;
  std::vector<std::uintptr_t> KeyBuf; // a child's key while interned
  ReducerScratch Scratch;             // reduction-layer buffers
  std::uint64_t Expanded = 0;    ///< states this worker expanded
  std::uint64_t ThreadSteps = 0; ///< its successor enumerations' steps
};

namespace detail {

/// Hashers that return a stored hash are noexcept, so the tables keep no
/// second copy of it in their nodes.
struct StateKeyHash {
  std::size_t operator()(const StateKey &K) const noexcept { return K.Hash; }
};

/// A pool's copy of a value with its finalized hash, computed once: the
/// shard pick and the set probe both use it.
template <typename T> struct Pooled {
  T Value;
  std::size_t Hash;
};

/// The copy a pool keeps of a thread state: the state itself.
inline const ThreadState &pooledCopy(const ThreadState &TS) { return TS; }
/// The copy a pool keeps of a location: one that owns its list, so the
/// pool keeps the list alive for the states that borrow it.
inline Memory::Loc pooledCopy(const Memory::Loc &L) { return L.owning(); }

/// A location's content hash, the list pool's key.
inline std::size_t listHash(const Memory::Loc &L) {
  std::size_t Seed = L.var().raw();
  for (const Message &M : L.messages())
    hashCombine(Seed, M.hash());
  return hashFinalize(Seed);
}

struct LocEq {
  bool operator()(const Memory::Loc &A, const Memory::Loc &B) const {
    return A.var() == B.var() &&
           (A.sharesListWith(B) || A.messages() == B.messages());
  }
};

/// A hash-consing pool: one copy of each distinct value per graph,
/// striped like the graph's entry map. Set nodes never move, so a pooled
/// copy's address is the value's id. Lookups probe with the caller's
/// value and hash, so a value is copied (pooledCopy) only when it is new.
template <typename T, typename EqT = std::equal_to<T>> class Pool {
public:
  Pool(unsigned Jobs, Statistic &Distinct) : Shards(Jobs), Distinct(Distinct) {}

  /// The pooled copy of \p V, whose finalized hash is \p Hash, added
  /// (and counted) on first use.
  const Pooled<T> &intern(const T &V, std::size_t Hash) {
    Shard &S = Shards.forHash(Hash);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Set.find(Probe{&V, Hash});
    if (It == S.Set.end()) {
      It = S.Set.insert(Pooled<T>{pooledCopy(V), Hash}).first;
      ++Distinct;
    }
    return *It;
  }

private:
  struct Probe {
    const T *Value;
    std::size_t Hash;
  };
  struct ProbeHash {
    using is_transparent = void;
    std::size_t operator()(const Pooled<T> &P) const noexcept {
      return P.Hash;
    }
    std::size_t operator()(const Probe &P) const noexcept { return P.Hash; }
  };
  struct ProbeEq {
    using is_transparent = void;
    bool operator()(const Pooled<T> &A, const Pooled<T> &B) const {
      return A.Hash == B.Hash && EqT{}(A.Value, B.Value);
    }
    bool operator()(const Probe &A, const Pooled<T> &B) const {
      return A.Hash == B.Hash && EqT{}(*A.Value, B.Value);
    }
    bool operator()(const Pooled<T> &A, const Probe &B) const {
      return (*this)(B, A);
    }
  };
  struct Shard {
    std::mutex M;
    std::unordered_set<Pooled<T>, ProbeHash, ProbeEq> Set;
  };
  Sharded<Shard> Shards;
  Statistic &Distinct;
};

/// Append-only storage for one shard's key words. Blocks never move, so
/// a stored key stays valid for the graph's lifetime.
class KeyArena {
public:
  const std::uintptr_t *store(const std::vector<std::uintptr_t> &W) {
    if (Blocks.empty() || Used + W.size() > BlockWords) {
      Blocks.emplace_back(new std::uintptr_t[std::max(BlockWords, W.size())]);
      Used = 0;
    }
    std::uintptr_t *Out = Blocks.back().get() + Used;
    std::copy(W.begin(), W.end(), Out);
    Used += W.size();
    return Out;
  }

private:
  static constexpr std::size_t BlockWords = 512;
  std::vector<std::unique_ptr<std::uintptr_t[]>> Blocks;
  std::size_t Used = 0;
};

} // namespace detail

/// One search's graph of \p M's canonical states, for \p Jobs workers with
/// a scratch each. Unreduced (\p Red null), edge i of an expansion is
/// successor i of Machine::successors; reduced, the reducer may fuse the
/// successors into one and projects every state.
///
/// The states the graph holds, and the states \p Admit sees, borrow their
/// message lists from the graph's list pool: copies of them must not
/// outlive the graph (DESIGN.md §11). Each expansion is counted in the
/// expanding worker's scratch (ExpandScratch::Expanded, ThreadSteps).
class StateGraph {
public:
  StateGraph(const Machine &M, const Reducer *Red, unsigned Jobs);

  /// The entry of the machine's initial state, which must exist.
  StateEntry &root(ExpandScratch &Scr);

  /// Marks \p E reached under trace tag \p Outs; true only the first time
  /// for the pair. explore() tags a node with its trace, the witness
  /// search with its printed prefix, the race check with null.
  bool reach(StateEntry &E, TraceTrie::Id Outs);

  /// \p E's expansion, computed on first call; concurrent callers wait
  /// for the one computing it, and the full state is dropped once it is
  /// done. \p Admit(State) sees the full state first: when it returns
  /// false the entry is left without edges. The expansion is counted in
  /// \p Scr.
  template <typename AdmitT>
  const Expansion &expand(StateEntry &E, ExpandScratch &Scr, AdmitT &&Admit) {
    StateSlot &Slot = E.second;
    std::call_once(Slot.X.Once, [&] {
      std::unique_ptr<MachineState> S = std::move(Slot.Pending);
      if (Admit(static_cast<const MachineState &>(*S)))
        fill(*S, E.first, Slot.X, Scr);
      ++Scr.Expanded;
    });
    return Slot.X;
  }

  const Expansion &expand(StateEntry &E, ExpandScratch &Scr) {
    return expand(E, Scr, [](const MachineState &) { return true; });
  }

private:
  /// Classifies \p S or enumerates its successors into \p X.
  void fill(const MachineState &S, const StateKey &Key, Expansion &X,
            ExpandScratch &Scr);

  /// The entry of canonical state \p S, created on first use (\p S is
  /// moved into it only then). \p Parent is the state \p S is a successor
  /// of and \p ParentKey its key, or both null for a root; \p Stepper is
  /// the thread whose step produced \p S and \p Renamed whether
  /// canonicalizing it renamed anything (every other thread of an
  /// unrenamed child is its parent's, unchecked). \p Words is the
  /// caller's scratch.
  StateEntry &intern(MachineState &&S, const MachineState *Parent,
                     const StateKey *ParentKey, Tid Stepper, bool Renamed,
                     std::vector<std::uintptr_t> &Words);

  struct Shard {
    std::mutex M;
    std::unordered_map<StateKey, StateSlot, detail::StateKeyHash> Map;
    detail::KeyArena Arena;
  };
  const Machine &M;
  const Reducer *Red;
  // Declared before Shards, so destroyed after them: the states in the
  // entries borrow the list pool's lists (DESIGN.md §11).
  detail::Pool<ThreadState> Threads;
  detail::Pool<Memory::Loc, detail::LocEq> Lists;
  Sharded<Shard> Shards;
};

} // namespace psopt

#endif // PSOPT_EXPLORE_STATEGRAPH_H
