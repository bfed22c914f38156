//===- explore/StateGraph.cpp - The interned state graph ---------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/StateGraph.h"
#include "explore/Canonical.h"

namespace psopt {

static Statistic NumPooledThreads("explore", "pooled_threads",
                                  "distinct thread states pooled");
static Statistic NumPooledLists("explore", "pooled_lists",
                                "distinct (location, message list) "
                                "contents pooled");

template <typename T> static std::uintptr_t idOf(const T &Pooled) {
  return reinterpret_cast<std::uintptr_t>(&Pooled);
}

StateGraph::StateGraph(const Machine &M, const Reducer *Red, unsigned Jobs)
    : M(M), Red(Red), Threads(Jobs, NumPooledThreads),
      Lists(Jobs, NumPooledLists), Shards(Jobs) {}

StateEntry &StateGraph::root(ExpandScratch &Scr) {
  MachineState Start = *M.initial();
  if (Red)
    Red->project(Start);
  canonicalizeState(Start);
  return intern(std::move(Start), nullptr, nullptr, 0, true, Scr.KeyBuf);
}

bool StateGraph::reach(StateEntry &E, TraceTrie::Id Outs) {
  std::vector<TraceTrie::Id> &Reached = E.second.Reached;
  std::lock_guard<std::mutex> Lock(Shards.forHash(E.first.Hash).M);
  if (std::find(Reached.begin(), Reached.end(), Outs) != Reached.end())
    return false;
  Reached.push_back(Outs);
  return true;
}

StateEntry &StateGraph::intern(MachineState &&S, const MachineState *Parent,
                               const StateKey *ParentKey, Tid Stepper,
                               bool Renamed,
                               std::vector<std::uintptr_t> &Words) {
  const std::vector<ThreadState> &Ts = S.Threads;
  const std::vector<Memory::Loc> &Locs = S.Mem.storage();
  // A step changes one thread and at most a few locations, so a child
  // takes its parent's id for every component it still shares with the
  // parent: every thread but the stepping one, unless canonicalizing the
  // child renamed timestamps in them, and every list that is the parent's
  // allocation. Only the rest probe a pool.
  if (Parent && (Parent->Threads.size() != Ts.size() ||
                 Parent->Mem.storage().size() != Locs.size()))
    Parent = nullptr;
  Words.resize(1 + Ts.size() + Locs.size());
  Words[0] = std::uintptr_t(S.Cur) << 1 | std::uintptr_t(S.SwitchAllowed);
  for (std::size_t T = 0; T < Ts.size(); ++T) {
    std::size_t W = 1 + T;
    Words[W] = Parent && !Renamed && T != std::size_t(Stepper)
                   ? ParentKey->Words[W]
                   : idOf(Threads.intern(Ts[T], Ts[T].hash()));
  }
  for (std::size_t I = 0; I < Locs.size(); ++I) {
    std::size_t W = 1 + Ts.size() + I;
    // The parent's lists are the pool's, borrowed.
    if (Parent && Locs[I].sharesListWith(Parent->Mem.storage()[I])) {
      Words[W] = ParentKey->Words[W];
      continue;
    }
    const detail::Pooled<Memory::Loc> &P =
        Lists.intern(Locs[I], detail::listHash(Locs[I]));
    // Point the state at the pooled list, borrowed: its own children
    // share the list with it by pointer and skip the pool, and copying
    // or dropping any of them touches no refcount (DESIGN.md §11).
    S.Mem.borrowListAt(I, P.Value);
    Words[W] = idOf(P);
  }

  std::size_t H = 0;
  for (std::uintptr_t W : Words)
    hashCombine(H, W);
  StateKey Probe{Words.data(), Words.size(), hashFinalize(H)};
  Shard &Sh = Shards.forHash(Probe.Hash);
  std::lock_guard<std::mutex> Lock(Sh.M);
  auto It = Sh.Map.find(Probe);
  if (It != Sh.Map.end())
    return *It;
  StateKey Key{Sh.Arena.store(Words), Words.size(), Probe.Hash};
  StateEntry &E = *Sh.Map.try_emplace(Key).first;
  E.second.Pending = std::make_unique<MachineState>(std::move(S));
  return E;
}

void StateGraph::fill(const MachineState &S, const StateKey &Key,
                      Expansion &X, ExpandScratch &Scr) {
  if (S.allTerminated()) {
    X.Done = true;
    return;
  }

  std::vector<MachineSuccessor> &Succs = Scr.SuccBuf;
  if (Red) {
    Succs.clear();
    Succs.resize(1);
    X.Chain = Red->selectFused(S, Scr.Scratch, Succs[0]);
  }
  if (X.Chain.Len == 0) {
    ThreadStepTally Tally(Scr.ThreadSteps);
    M.successors(S, Succs);
  }
  // Empty Edges is the blocked state. It is never a reduction artifact: a
  // fused successor always exists when selection succeeds, so emptiness
  // means the full relation is empty.
  X.Edges.reserve(Succs.size());
  for (MachineSuccessor &Succ : Succs) {
    Edge E{nullptr, Succ.Ev.K, Succ.Ev.OutVal};
    if (Succ.Ev.K != MachineEvent::Kind::Abort) {
      if (Red)
        Red->project(Succ.State);
      bool Renamed = canonicalizeSuccessor(Succ.State, S);
      E.Child = &intern(std::move(Succ.State), &S, &Key, Succ.Ev.Thread,
                        Renamed, Scr.KeyBuf);
    }
    X.Edges.push_back(E);
  }
}

} // namespace psopt
