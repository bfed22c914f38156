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
/// search nodes and behavior sinks; a BehaviorSet's Trace vectors are
/// materialized from them once, after the search.
///
/// Thread-safe: workers extend concurrently through a table striped like
/// ParallelBfs's visited table (explore/Sharded.h). Entries never move
/// and live as long as the trie.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_TRACETRIE_H
#define PSOPT_EXPLORE_TRACETRIE_H

#include "explore/Behavior.h"
#include "explore/Sharded.h"

#include <cstdint>
#include <mutex>
#include <unordered_set>

namespace psopt {

class TraceTrie {
public:
  /// One trace: its prefix without the last value, plus that value.
  struct Entry {
    const Entry *Parent; ///< null only for the empty trace
    Val Last;            ///< unused for the empty trace
    std::uint32_t Len;   ///< number of values in the trace
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
