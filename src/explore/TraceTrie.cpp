//===- explore/TraceTrie.cpp - Hash-consed output traces ------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/TraceTrie.h"
#include "support/Hashing.h"

#include <algorithm>

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
  // Each marked trace is materialized once; sorted, each set is built by
  // appending at its end. The trie holds each trace once, so no set sees
  // a value twice.
  std::vector<std::pair<Trace, std::uint8_t>> Marked;
  auto Add = [&](const Entry &E) {
    if (std::uint8_t M = E.Marks.load(std::memory_order_relaxed))
      Marked.emplace_back(materialize(&E), M);
  };
  Add(Root);
  for (const Shard &S : Shards)
    for (const Entry &E : S.Set)
      Add(E);
  std::sort(Marked.begin(), Marked.end());

  const std::pair<Mark, std::set<Trace> BehaviorSet::*> Sinks[] = {
      {Done, &BehaviorSet::Done},
      {Abort, &BehaviorSet::Abort},
      {Blocked, &BehaviorSet::Blocked},
      {Prefix, &BehaviorSet::Prefixes}};
  for (auto [Bit, Set] : Sinks) {
    // Every visited node marks Prefix, so that sink comes last and takes
    // the traces themselves.
    const bool Last = Bit == Prefix;
    for (auto &[T, M] : Marked)
      if (M & Bit)
        (B.*Set).emplace_hint((B.*Set).end(), Last ? std::move(T) : T);
  }
}

} // namespace psopt
