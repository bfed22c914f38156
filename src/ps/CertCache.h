//===- ps/CertCache.h - Cross-step certification cache ----------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoizing cache for promise certification verdicts. Per-machine-step
/// certification dominates exploration cost on promise-heavy programs
/// (EXPERIMENTS.md E1: ~11× wall time on LB), and successive machine steps
/// certify near-identical (thread state, capped memory) pairs — both along
/// one path (only the stepping thread's components change) and across
/// interleavings that converge on the same thread configuration.
///
/// Keys are *canonicalized* before lookup so that searches that can only
/// unfold identically share one entry:
///
///  * **thread-relative ownership** — certification runs thread T in
///    isolation and only ever distinguishes "mine" (Owner == T) from
///    "other" ownership; the key renames T to 0 and erases other owners
///    (Owner := NoTid, IsPromise := false), so the same configuration
///    reached with the roles of threads swapped hits the same entry;
///  * **order-isomorphic timestamp renaming** — the same TimeRenamer the
///    explorer's canonicalizer uses, applied to the capped memory and the
///    thread view, so timestamp-shifted instances coincide.
///
/// Soundness: a *completed* certification search (fulfilled all promises,
/// or exhausted the reachable set) is invariant under both renamings — see
/// DESIGN.md §8. A search cut off by StepConfig::CertMaxStates is a
/// *resource* verdict, not a semantic one: the number of states a bounded
/// search visits before tripping is not isomorphism-invariant (dedup of
/// intermediate states depends on concrete timestamp arithmetic), so
/// bound-tripped results are NEVER cached — a cache hit is always
/// bit-identical to recomputation. PSOPT_CERT_CACHE_AUDIT builds verify
/// this by re-running the search on every hit.
///
/// Each key carries its hash, computed once when makeCertCacheKey builds
/// it; the shard pick, the map probe and an insert all reuse it.
///
/// The cache is sharded with striped locks (same pattern as the state
/// graph's entry map, explore/Sharded.h): shard selection uses
/// the high bits of the key hash so striping does not correlate with
/// bucket placement inside a shard. Eviction is generational: when a shard
/// outgrows its budget it is cleared wholesale — correctness never depends
/// on an entry being present.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_CERTCACHE_H
#define PSOPT_PS_CERTCACHE_H

#include "ps/Config.h"
#include "ps/Memory.h"
#include "ps/ThreadState.h"

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace psopt {

/// A canonicalized certification query: the stepping thread's state, the
/// capped memory it certifies against (both thread-relative and
/// timestamp-renamed), and the only StepConfig field the search outcome
/// depends on (certification internally disables promises/reservations,
/// so the other knobs cannot influence it).
struct CertCacheKey {
  ThreadState TS;
  Memory Mem;
  unsigned CertMaxStates = 0;
  /// hash() of the fields above, filled once by makeCertCacheKey: a lookup
  /// needs it for the shard pick and the map probe, an insert twice more.
  std::size_t Hash = 0;

  bool operator==(const CertCacheKey &O) const {
    return CertMaxStates == O.CertMaxStates && TS == O.TS && Mem == O.Mem;
  }

  /// Computes the content hash (makeCertCacheKey stores it in Hash).
  std::size_t hash() const;
};

/// Builds the canonical cache key for certifying thread \p T from
/// (\p TS, \p Capped) under \p C. \p Capped must already be the capped
/// memory M̂ (Memory::capped), not the raw memory.
CertCacheKey makeCertCacheKey(Tid T, const ThreadState &TS,
                              const Memory &Capped, const StepConfig &C);

struct CertCacheKeyHash {
  std::size_t operator()(const CertCacheKey &K) const { return K.Hash; }
};

/// Sharded, striped-lock verdict cache. Thread-safe; one instance is owned
/// by each Machine and shared by all explorer workers.
class CertCache {
public:
  /// \p ShardCount is rounded up to a power of two; \p MaxEntries is the
  /// total entry budget across shards (generational clear per shard once
  /// its slice overflows).
  explicit CertCache(unsigned ShardCount = 64,
                     std::size_t MaxEntries = 1u << 20);

  CertCache(const CertCache &) = delete;
  CertCache &operator=(const CertCache &) = delete;

  /// Returns the cached verdict for \p K, or nullopt. Bumps the
  /// certcache.hits / certcache.misses statistics.
  std::optional<bool> lookup(const CertCacheKey &K) const;

  /// Records a *completed* search verdict. Callers must not insert
  /// bound-tripped results (see file comment); audit builds check the
  /// invariant on every subsequent hit.
  void insert(const CertCacheKey &K, bool Consistent);

  /// Total entries currently cached (racy snapshot under concurrency).
  std::size_t size() const;

private:
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<CertCacheKey, bool, CertCacheKeyHash> Map;
  };

  Shard &shardFor(std::size_t Hash) const {
    return Shards[Hash >> ShardShift];
  }

  mutable std::vector<Shard> Shards;
  unsigned ShardShift;
  std::size_t MaxPerShard;
};

} // namespace psopt

#endif // PSOPT_PS_CERTCACHE_H
