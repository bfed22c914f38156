//===- explore/Sharded.h - Lock-striped tables ------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The striping shared by every table the search workers write
/// concurrently: the state graph's entry map and its two component pools
/// (explore/StateGraph.h), and the trace trie (explore/TraceTrie.h).
/// A table is split into parallelBfsShardCount(Jobs) shards, each a
/// container behind its own mutex, and an element's shard is picked by
/// the *high* bits of its finalized hash. unordered containers place
/// buckets by the low bits, so striping does not correlate with bucket
/// placement inside a shard.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_SHARDED_H
#define PSOPT_EXPLORE_SHARDED_H

#include <cstddef>
#include <vector>

namespace psopt {

/// Number of shards for a given worker count: enough stripes that workers
/// rarely collide, bounded so empty shards stay cheap. One worker never
/// collides, so it gets one table (many small tables that each grow
/// separately slow small searches down).
inline unsigned parallelBfsShardCount(unsigned Jobs) {
  if (Jobs <= 1)
    return 1;
  unsigned Want = Jobs * 4;
  unsigned Shards = 16;
  while (Shards < Want && Shards < 256)
    Shards *= 2;
  return Shards;
}

/// parallelBfsShardCount(Jobs) default-constructed shards, indexed by hash.
template <typename ShardT> class Sharded {
public:
  explicit Sharded(unsigned Jobs) : Shards(parallelBfsShardCount(Jobs)) {
    for (std::size_t N = 1; N < Shards.size(); N *= 2)
      ++Bits;
  }

  /// The shard owning finalized hash \p H. A single shard is index 0:
  /// shifting by the full hash width would be undefined.
  ShardT &forHash(std::size_t H) {
    return Bits ? Shards[H >> (8 * sizeof(std::size_t) - Bits)] : Shards[0];
  }

  /// The shards in index order, for walks once the writers are done.
  auto begin() const { return Shards.begin(); }
  auto end() const { return Shards.end(); }

private:
  std::vector<ShardT> Shards;
  unsigned Bits = 0; ///< log2 of the shard count
};

} // namespace psopt

#endif // PSOPT_EXPLORE_SHARDED_H
