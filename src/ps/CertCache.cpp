//===- ps/CertCache.cpp - Cross-step certification cache --------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/CertCache.h"
#include "ps/TimeRename.h"
#include "support/Hashing.h"
#include "support/Statistic.h"

namespace psopt {

static Statistic NumCacheHits("certcache", "hits",
                              "certification verdicts served from the cache");
static Statistic NumCacheMisses("certcache", "misses",
                                "certification cache lookups that missed");
static Statistic NumCacheInserts("certcache", "inserts",
                                 "completed verdicts inserted into the cache");
static Statistic NumCacheEvictions("certcache", "evictions",
                                   "entries dropped by generational clears");

std::size_t CertCacheKey::hash() const {
  std::size_t Seed = TS.hash();
  hashCombine(Seed, Mem.hash());
  hashCombineValue(Seed, CertMaxStates);
  return hashFinalize(Seed);
}

CertCacheKey makeCertCacheKey(Tid T, const ThreadState &TS,
                              const Memory &Capped, const StepConfig &C) {
  CertCacheKey K;
  K.TS = TS;
  K.Mem = Capped;
  K.CertMaxStates = C.CertMaxStates;

  // Pass 1 of the canonicalization: thread-relative ownership. The search
  // only ever asks "is this message mine?" (promisesOf / hasConcretePromises
  // / hasPromiseOn filter on Owner == T; other owners' promise flags are
  // never read), so T maps to 0 and every other owner is erased.
  const std::vector<Memory::Loc> &Locs = K.Mem.storage();
  for (std::size_t I = 0; I < Locs.size(); ++I) {
    // Change scan first: a list with no owned/promise messages keeps its
    // COW-shared storage instead of being cloned.
    const MessageList &Ms = Locs[I].messages();
    bool Changed = false;
    for (const Message &M : Ms) {
      if (M.Owner != NoTid || M.IsPromise) {
        Changed = true;
        break;
      }
    }
    if (!Changed)
      continue;
    for (Message &M : K.Mem.mutableListAt(I)) {
      if (M.Owner == T) {
        M.Owner = 0;
      } else {
        M.Owner = NoTid;
        M.IsPromise = false;
      }
    }
  }

  // Pass 2: order-isomorphic timestamp renaming, exactly as the explorer's
  // state canonicalizer does it (Time(0) must stay least: absent view
  // entries read as 0).
  TimeRenamer R;
  R.note(Time(0));
  R.noteMemory(K.Mem);
  R.noteView(K.TS.V);
  R.noteView(K.TS.Acq);
  R.noteView(K.TS.Rel);
  R.freeze();
  R.rewriteMemory(K.Mem);
  K.TS.V = R.mapView(K.TS.V);
  K.TS.Acq = R.mapView(K.TS.Acq);
  K.TS.Rel = R.mapView(K.TS.Rel);
  K.Hash = K.hash();
  return K;
}

CertCache::CertCache(unsigned ShardCount, std::size_t MaxEntries) {
  // At least 16 shards (shardFor's high-bit shift needs N >= 2; 16 keeps
  // empty shards cheap while leaving headroom for many workers).
  unsigned N = 16;
  while (N < ShardCount && N < 256)
    N *= 2;
  Shards = std::vector<Shard>(N);
  unsigned Bits = 0;
  for (unsigned S = 1; S < N; S *= 2)
    ++Bits;
  // High bits pick the shard; unordered_map buckets use the low bits.
  ShardShift = 8 * sizeof(std::size_t) - Bits;
  MaxPerShard = MaxEntries / N;
  if (MaxPerShard == 0)
    MaxPerShard = 1;
}

std::optional<bool> CertCache::lookup(const CertCacheKey &K) const {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It == S.Map.end()) {
    ++NumCacheMisses;
    return std::nullopt;
  }
  ++NumCacheHits;
  return It->second;
}

void CertCache::insert(const CertCacheKey &K, bool Consistent) {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // Two workers raced on the same miss; both computed the same verdict.
    It->second = Consistent;
    return;
  }
  if (S.Map.size() >= MaxPerShard) {
    NumCacheEvictions += S.Map.size();
    S.Map.clear();
  }
  S.Map.emplace(K, Consistent);
  ++NumCacheInserts;
}

std::size_t CertCache::size() const {
  std::size_t Total = 0;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Map.size();
  }
  return Total;
}

} // namespace psopt
