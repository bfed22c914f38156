//===- bench/bench_state.cpp - State-representation microbenches --------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
//
// Microbenchmarks for the structure-sharing machine state (DESIGN.md §11):
// the primitive operations that dominate successor derivation, isolated
// from the explorer.
//
//   ViewJoin             — pointwise view join (flat sorted-vector merge);
//   ViewCopy             — copying a populated thread view;
//   MemoryCopy           — copying a multi-location memory (refcount bumps);
//   MemoryCopyMutate     — copy + single-location write: the COW round trip
//                          every store successor performs;
//   StateCopy            — copying a whole mid-workload MachineState;
//   Canonicalize         — canonicalizing a successor of a message-rich
//                          state with the full renaming (note, sort,
//                          identity test); only the renaming is timed;
//   CanonicalizeSuccessor — the same successors through
//                          canonicalizeSuccessor, which scans only the
//                          message lists the step changed;
//   SuccessorEnumeration — full successor derivation from a mid-workload
//                          state (items/sec = successors/sec).
//
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "litmus/ScaleWorkload.h"
#include "ps/Machine.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace psopt;

namespace {

/// The bench_scale mid workload (4 threads, ~540 instructions): the
/// representative successor-derivation load.
ScaleWorkloadConfig midConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 11;
  C.NumThreads = 4;
  C.FillerPerThread = 130;
  C.Skeletons = 3;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

/// Walks \p Steps first-successor steps from the initial state so the
/// benched state carries realistic views and message lists.
MachineState walkedState(const InterleavingMachine &M, unsigned Steps) {
  MachineState S = *M.initial();
  canonicalizeState(S);
  std::vector<MachineSuccessor> Succs;
  for (unsigned I = 0; I < Steps; ++I) {
    M.successors(S, Succs);
    if (Succs.empty())
      break;
    S = std::move(Succs.back().State); // Last: prefers write/step variety.
    canonicalizeState(S);
  }
  return S;
}

/// bench_scale's private-store program: each thread overwrites its own
/// variable 50 times, so its states accumulate messages.
ScaleWorkloadConfig privateStoreConfig() {
  ScaleWorkloadConfig C;
  C.Seed = 19;
  C.NumThreads = 3;
  C.FillerPerThread = 20;
  C.PrivateStoresPerThread = 50;
  C.Skeletons = 2;
  C.Shape = ScaleWorkloadConfig::Mix::Mixed;
  return C;
}

/// Walks \p Steps steps from the initial state, each time taking the
/// successor with the most messages (a store when one is enabled).
MachineState messageRichState(const InterleavingMachine &M, unsigned Steps) {
  auto Messages = [](const MachineState &S) {
    std::size_t N = 0;
    for (const Memory::Loc &L : S.Mem.storage())
      N += L.messages().size();
    return N;
  };
  MachineState S = *M.initial();
  canonicalizeState(S);
  std::vector<MachineSuccessor> Succs;
  for (unsigned I = 0; I < Steps; ++I) {
    M.successors(S, Succs);
    if (Succs.empty())
      break;
    auto Best = std::max_element(
        Succs.begin(), Succs.end(), [&](const auto &A, const auto &B) {
          return Messages(A.State) < Messages(B.State);
        });
    S = std::move(Best->State);
    canonicalizeState(S);
  }
  return S;
}

/// A view with \p N populated locations.
View populatedView(unsigned N, int Salt) {
  View V;
  for (unsigned I = 0; I < N; ++I) {
    VarId X("bs_v" + std::to_string(I));
    V.setNaAt(X, Time(static_cast<int>(I) + Salt));
    V.setRlxAt(X, Time(static_cast<int>(I) + Salt + 1));
  }
  return V;
}

void BM_ViewJoin(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  View A = populatedView(N, 1);
  View B = populatedView(N, 2);
  for (auto _ : State) {
    View C = A;
    C.join(B);
    benchmark::DoNotOptimize(C.rlxAt(VarId("bs_v0")));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ViewJoin)->Arg(2)->Arg(8)->Arg(32);

void BM_ViewCopy(benchmark::State &State) {
  View A = populatedView(static_cast<unsigned>(State.range(0)), 1);
  for (auto _ : State) {
    View B = A;
    benchmark::DoNotOptimize(&B);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ViewCopy)->Arg(2)->Arg(8)->Arg(32);

/// A memory with \p Locs locations of \p Msgs messages each.
Memory populatedMemory(unsigned NumLocs, unsigned Msgs) {
  std::set<VarId> Vars;
  for (unsigned I = 0; I < NumLocs; ++I)
    Vars.insert(VarId("bs_m" + std::to_string(I)));
  Memory M = Memory::initial(Vars);
  for (VarId X : Vars)
    for (unsigned J = 1; J <= Msgs; ++J)
      M.insert(Message::concrete(X, static_cast<Val>(J),
                                 Time(static_cast<int>(2 * J - 1)),
                                 Time(static_cast<int>(2 * J)), View{}));
  return M;
}

void BM_MemoryCopy(benchmark::State &State) {
  Memory M = populatedMemory(static_cast<unsigned>(State.range(0)), 6);
  for (auto _ : State) {
    Memory C = M;
    benchmark::DoNotOptimize(&C);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MemoryCopy)->Arg(4)->Arg(16)->Arg(64);

void BM_MemoryCopyMutate(benchmark::State &State) {
  Memory M = populatedMemory(static_cast<unsigned>(State.range(0)), 6);
  VarId X("bs_m0");
  Time Last = M.messages(X).back().To;
  for (auto _ : State) {
    Memory C = M;
    C.insert(Message::concrete(X, 99, Last + Time(1), Last + Time(2), View{}));
    benchmark::DoNotOptimize(C.messages(X).size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MemoryCopyMutate)->Arg(4)->Arg(16)->Arg(64);

void BM_StateCopy(benchmark::State &State) {
  Program P = generateScaleWorkload(midConfig());
  StepConfig SC;
  SC.EnablePromises = false;
  InterleavingMachine M(P, SC);
  MachineState S = walkedState(M, 40);
  for (auto _ : State) {
    MachineState C = S;
    benchmark::DoNotOptimize(&C);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StateCopy);

/// Times \p Canon(Child, Parent) on the successors of a message-rich
/// private-store state (50 steps: 43 messages over 8 locations). The
/// successors are copied a batch at a time with the timer paused, so only
/// the renaming is timed.
template <typename CanonT>
void benchCanonicalize(benchmark::State &State, CanonT Canon) {
  Program P = generateScaleWorkload(privateStoreConfig());
  StepConfig SC;
  SC.EnablePromises = false;
  InterleavingMachine M(P, SC);
  MachineState S = messageRichState(M, 50);
  std::vector<MachineSuccessor> Succs;
  M.successors(S, Succs);
  constexpr unsigned Rounds = 64;
  std::vector<MachineState> Batch;
  for (auto _ : State) {
    State.PauseTiming();
    Batch.clear();
    for (unsigned R = 0; R < Rounds; ++R)
      for (const MachineSuccessor &Succ : Succs)
        Batch.push_back(Succ.State);
    State.ResumeTiming();
    for (MachineState &C : Batch)
      benchmark::DoNotOptimize(Canon(C, S));
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * Rounds *
                          static_cast<std::int64_t>(Succs.size()));
}

void BM_Canonicalize(benchmark::State &State) {
  benchCanonicalize(State, [](MachineState &C, const MachineState &) {
    return canonicalizeState(C);
  });
}
BENCHMARK(BM_Canonicalize);

void BM_CanonicalizeSuccessor(benchmark::State &State) {
  benchCanonicalize(State, [](MachineState &C, const MachineState &Parent) {
    return canonicalizeSuccessor(C, Parent);
  });
}
BENCHMARK(BM_CanonicalizeSuccessor);

void BM_SuccessorEnumeration(benchmark::State &State) {
  Program P = generateScaleWorkload(midConfig());
  StepConfig SC;
  SC.EnablePromises = false;
  InterleavingMachine M(P, SC);
  MachineState S = walkedState(M, static_cast<unsigned>(State.range(0)));
  std::vector<MachineSuccessor> Succs;
  std::int64_t Produced = 0;
  for (auto _ : State) {
    M.successors(S, Succs);
    Produced += static_cast<std::int64_t>(Succs.size());
    benchmark::DoNotOptimize(Succs.data());
  }
  State.SetItemsProcessed(Produced);
}
BENCHMARK(BM_SuccessorEnumeration)->Arg(0)->Arg(40)->Arg(200);

} // namespace

BENCHMARK_MAIN();
