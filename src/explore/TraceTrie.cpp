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
  auto It = S.Set.find(Key);
  if (It == S.Set.end())
    It = S.Set.emplace(Parent, V, Key.Len).first;
  return &*It;
}

Trace TraceTrie::materialize(Id T) {
  Trace Out(T->Len);
  for (; T->Parent; T = T->Parent)
    Out[T->Len - 1] = T->Last;
  return Out;
}

void TraceTrie::collect(BehaviorSet &B) const {
  const std::pair<Mark, std::set<Trace> BehaviorSet::*> Sinks[] = {
      {Prefix, &BehaviorSet::Prefixes},
      {Done, &BehaviorSet::Done},
      {Abort, &BehaviorSet::Abort},
      {Blocked, &BehaviorSet::Blocked}};
  auto Add = [&](const Entry &E) {
    std::uint8_t M = E.Marks.load(std::memory_order_relaxed);
    if (!M)
      return;
    Trace T = materialize(&E);
    for (auto [Bit, Set] : Sinks)
      if (M & Bit)
        (B.*Set).insert(T);
  };
  Add(Root);
  for (const Shard &S : Shards)
    for (const Entry &E : S.Set)
      Add(E);
}

} // namespace psopt
