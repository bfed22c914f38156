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
#include <atomic>
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
    return Len == O.Len && std::equal(Words, Words + Len, O.Words);
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

/// A search worker's expansion buffers, reused across expansions.
struct ExpandScratch {
  std::vector<MachineSuccessor> SuccBuf;
  std::vector<std::uintptr_t> KeyBuf; // a child's key while interned
  ReducerScratch Scratch;             // reduction-layer buffers
};

namespace detail {

struct StateKeyHash {
  std::size_t operator()(const StateKey &K) const { return K.Hash; }
};

/// A hash-consing pool: one copy of each distinct value per graph,
/// striped like the graph's entry map. Set nodes never move, so a pooled
/// copy's address is the value's id. \p HashT must give finalized hashes
/// (the shard is picked by the high bits).
template <typename T, typename HashT, typename EqT = std::equal_to<T>>
class Pool {
public:
  Pool(unsigned Jobs, Statistic &Distinct) : Shards(Jobs), Distinct(Distinct) {}

  /// The pooled copy of \p V, added (and counted) on first use.
  const T &intern(const T &V) {
    Shard &S = Shards.forHashOf([&] { return HashT{}(V); });
    std::lock_guard<std::mutex> Lock(S.M);
    auto [It, New] = S.Set.insert(V);
    if (New)
      ++Distinct;
    return *It;
  }

private:
  struct Shard {
    std::mutex M;
    std::unordered_set<T, HashT, EqT> Set;
  };
  Sharded<Shard> Shards;
  Statistic &Distinct;
};

struct ThreadStateHash {
  std::size_t operator()(const ThreadState &TS) const { return TS.hash(); }
};

/// A location's message list with its content hash, the list pool's
/// element. Holding the Loc keeps the list alive (and, being a second
/// owner, stops copy-on-write from ever writing it in place).
struct PooledList {
  Memory::Loc L;
  std::size_t Hash;

  static PooledList of(const Memory::Loc &L) {
    std::size_t Seed = L.var().raw();
    for (const Message &M : L.messages())
      hashCombine(Seed, M.hash());
    return {L, hashFinalize(Seed)};
  }
};

struct PooledListHash {
  std::size_t operator()(const PooledList &P) const { return P.Hash; }
};

struct PooledListEq {
  bool operator()(const PooledList &A, const PooledList &B) const {
    return A.L.var() == B.L.var() &&
           (A.L.sharesListWith(B.L) || A.L.messages() == B.L.messages());
  }
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
  /// false the entry is left without edges.
  template <typename AdmitT>
  const Expansion &expand(StateEntry &E, ExpandScratch &Scr, AdmitT &&Admit) {
    StateSlot &Slot = E.second;
    std::call_once(Slot.X.Once, [&] {
      std::unique_ptr<MachineState> S = std::move(Slot.Pending);
      if (Admit(static_cast<const MachineState &>(*S)))
        fill(*S, E.first, Slot.X, Scr);
      Expanded.fetch_add(1, std::memory_order_relaxed);
    });
    return Slot.X;
  }

  const Expansion &expand(StateEntry &E, ExpandScratch &Scr) {
    return expand(E, Scr, [](const MachineState &) { return true; });
  }

  /// Number of entries expanded so far.
  std::uint64_t expanded() const {
    return Expanded.load(std::memory_order_relaxed);
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
  detail::Pool<ThreadState, detail::ThreadStateHash> Threads;
  detail::Pool<detail::PooledList, detail::PooledListHash,
               detail::PooledListEq>
      Lists;
  Sharded<Shard> Shards;
  std::atomic<std::uint64_t> Expanded{0};
};

} // namespace psopt

#endif // PSOPT_EXPLORE_STATEGRAPH_H
