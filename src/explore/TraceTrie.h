//===- explore/TraceTrie.h - Hash-consed output traces ----------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer's trace representation: every output trace is one entry
/// (parent trace, last value, length) of a hash-consed trie, so a trace is
/// identified by the address of its entry. Equal traces get the same id,
/// extending a trace by one print is one table probe, and the explorer's
/// MaxOuts cut is a length compare. Ids are what explore() stores in its
/// search nodes. An entry also carries how the visited nodes with its
/// trace end (Mark bits), so the trie is explore()'s behavior sink: one
/// walk after the search materializes each marked trace once. A trace
/// only interned for a child that was never visited carries no bits.
///
/// Thread-safe: workers extend concurrently through a striped table
/// (explore/Sharded.h) and mark with relaxed atomic ORs. Entries never
/// move and live as long as the trie.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_TRACETRIE_H
#define PSOPT_EXPLORE_TRACETRIE_H

#include "explore/Behavior.h"
#include "explore/Sharded.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

namespace psopt {

class TraceTrie {
public:
  /// How visited nodes with a trace end; one BehaviorSet set per bit.
  enum Mark : std::uint8_t { Prefix = 1, Done = 2, Abort = 4, Blocked = 8 };

  /// One trace: its prefix without the last value, plus that value.
  struct Entry {
    const Entry *Parent; ///< null only for the empty trace
    Val Last;            ///< unused for the empty trace
    std::uint32_t Len;   ///< number of values in the trace
    mutable std::atomic<std::uint8_t> Marks{0}; ///< Mark bits, ORed
  };
  /// A trace's identity: equal traces of one trie have equal ids.
  using Id = const Entry *;

  /// A trie sized for \p Jobs concurrent writers.
  explicit TraceTrie(unsigned Jobs) : Shards(Jobs) {}
  TraceTrie(const TraceTrie &) = delete;
  TraceTrie &operator=(const TraceTrie &) = delete;

  /// The empty trace.
  Id empty() const { return &Root; }

  /// The trace \p Parent followed by \p V, interned on first use.
  Id extend(Id Parent, Val V);

  /// The values of the trace \p T, oldest first.
  static Trace materialize(Id T);

  /// ORs \p Bits into \p T's marks, writing only when a bit is missing,
  /// so hot traces (the empty trace) stay read-shared between workers.
  static void mark(Id T, std::uint8_t Bits) {
    if ((T->Marks.load(std::memory_order_relaxed) & Bits) != Bits)
      T->Marks.fetch_or(Bits, std::memory_order_relaxed);
  }

  /// Adds every marked trace to the sets of \p B its bits name. Call
  /// once the markers are done (after the pool joins).
  void collect(BehaviorSet &B) const;

private:
  struct KeyHash {
    std::size_t operator()(const Entry &E) const;
  };
  struct KeyEq {
    bool operator()(const Entry &A, const Entry &B) const {
      return A.Parent == B.Parent && A.Last == B.Last;
    }
  };
  struct Shard {
    std::mutex M;
    std::unordered_set<Entry, KeyHash, KeyEq> Set;
  };

  Entry Root{nullptr, 0, 0};
  Sharded<Shard> Shards;
};

} // namespace psopt

#endif // PSOPT_EXPLORE_TRACETRIE_H
