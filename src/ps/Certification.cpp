//===- ps/Certification.cpp - Promise certification -------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/Certification.h"
#include "ps/CertCache.h"
#include "ps/ThreadStep.h"
#include "support/Debug.h"
#include "support/Hashing.h"
#include "support/Statistic.h"

#include <unordered_set>
#include <vector>

namespace psopt {

static Statistic NumCertRuns("cert", "runs", "certification searches started");
static Statistic NumCertStates("cert", "states",
                               "states visited during certification");
static Statistic NumCertBoundHits("cert", "bound_hits",
                                  "certifications cut off by the bound");

namespace {

struct CertNode {
  ThreadState TS;
  Memory Mem;

  bool operator==(const CertNode &O) const {
    return TS == O.TS && Mem == O.Mem;
  }
};

struct CertNodeHash {
  std::size_t operator()(const CertNode &N) const {
    std::size_t Seed = N.TS.hash();
    hashCombine(Seed, N.Mem.hash());
    return hashFinalize(Seed);
  }
};

} // namespace

CertResult certSearch(const Program &P, Tid T, const ThreadState &TS,
                      Memory Capped, const StepConfig &C, bool TrackAcqView) {
  ++NumCertRuns;

  std::unordered_set<CertNode, CertNodeHash> Visited;
  std::vector<CertNode> Stack;
  Stack.push_back(CertNode{TS, std::move(Capped)});

  // PRC steps inside certification: cancels only (no fresh promises or
  // reservations — fresh reservations beyond the cap cannot help fulfil).
  StepConfig CertCfg = C;
  CertCfg.EnablePromises = false;
  CertCfg.EnableReservations = false;
  PromiseDomain EmptyDomain;

  std::vector<ThreadSuccessor> Succs;
  while (!Stack.empty()) {
    CertNode Node = std::move(Stack.back());
    Stack.pop_back();
    if (!Visited.insert(Node).second)
      continue;
    if (Visited.size() > C.CertMaxStates) {
      ++NumCertBoundHits;
      return CertResult::BoundTripped;
    }
    ++NumCertStates;

    if (!Node.Mem.hasConcretePromises(T))
      return CertResult::Consistent;

    Succs.clear();
    enumerateProgramSteps(P, T, Node.TS, Node.Mem, Succs, TrackAcqView);
    enumeratePrcSteps(P, T, Node.TS, Node.Mem, EmptyDomain, CertCfg, Succs);
    for (ThreadSuccessor &S : Succs) {
      if (S.Abort)
        continue;
      Stack.push_back(CertNode{std::move(S.TS), std::move(S.Mem)});
    }
  }
  return CertResult::Inconsistent;
}

bool consistent(const Program &P, Tid T, const ThreadState &TS,
                const Memory &M, const StepConfig &C, CertCache *Cache,
                bool TrackAcqView) {
  if (!M.hasConcretePromises(T))
    return true;

  Memory Capped = M.capped(T);

  if (!Cache)
    return certSearch(P, T, TS, std::move(Capped), C, TrackAcqView) ==
           CertResult::Consistent;

  CertCacheKey Key = makeCertCacheKey(T, TS, Capped, C);
  if (std::optional<bool> Hit = Cache->lookup(Key)) {
#ifdef PSOPT_CERT_CACHE_AUDIT
    // Audit builds recompute every hit from scratch and abort on any
    // divergence. Completed verdicts are canonicalization-invariant, so a
    // hit must reproduce exactly; a bound trip here would mean one was
    // cached, which the insert path below forbids.
    CertResult Fresh =
        certSearch(P, T, TS, std::move(Capped), C, TrackAcqView);
    PSOPT_CHECK(Fresh != CertResult::BoundTripped,
                "cert cache hit for a bound-tripped search");
    PSOPT_CHECK((Fresh == CertResult::Consistent) == *Hit,
                "cert cache verdict diverges from fresh certification");
#endif
    return *Hit;
  }

  CertResult R = certSearch(P, T, TS, std::move(Capped), C, TrackAcqView);
  // A bound trip is a resource verdict; caching it would make hits depend
  // on which isomorphic instance populated the entry.
  if (R != CertResult::BoundTripped)
    Cache->insert(Key, R == CertResult::Consistent);
  return R == CertResult::Consistent;
}

} // namespace psopt
