//===- explore/TraceTrie.cpp - Hash-consed output traces ------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/TraceTrie.h"
#include "support/Hashing.h"

namespace psopt {

std::size_t TraceTrie::KeyHash::operator()(const Entry &E) const {
  std::size_t Seed = reinterpret_cast<std::uintptr_t>(E.Parent);
  hashCombineValue(Seed, E.Last);
  return hashFinalize(Seed);
}

TraceTrie::Id TraceTrie::extend(Id Parent, Val V) {
  Entry Key{Parent, V, Parent->Len + 1};
  Shard &S = Shards.forHash(KeyHash{}(Key));
  std::lock_guard<std::mutex> Lock(S.M);
  // Set elements never move, so the address is the trace's id.
  return &*S.Set.insert(Key).first;
}

Trace TraceTrie::materialize(Id T) {
  Trace Out(T->Len);
  for (; T->Parent; T = T->Parent)
    Out[T->Len - 1] = T->Last;
  return Out;
}

} // namespace psopt
