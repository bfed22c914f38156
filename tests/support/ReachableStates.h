//===- tests/support/ReachableStates.h - State-space walk helpers -*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program set and the breadth-first state walk shared by the
/// step-relation property tests (tests/ps/StepInPlaceTest.cpp,
/// MemoryModelTest's acquire-view check) and the canonical-by-construction
/// test (tests/explore/CanonicalTest.cpp): every
/// litmus test under its suggested config, plus seeded random programs
/// with promises on and off, fences (so machines track the acquire view),
/// branches, loops and CAS.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_TESTS_SUPPORT_REACHABLESTATES_H
#define PSOPT_TESTS_SUPPORT_REACHABLESTATES_H

#include "litmus/Litmus.h"
#include "litmus/RandomProgram.h"
#include "ps/Machine.h"

#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

namespace psopt {

/// A program with the step config to run it under.
struct NamedProgram {
  std::string Name;
  Program Prog;
  StepConfig Config;
};

/// Every litmus test plus 20 seeded random programs. Odd seeds enable
/// promises; every other pair of seeds sprinkles fences and a fenced
/// message-passing skeleton.
inline std::vector<NamedProgram> stepPropertyPrograms() {
  std::vector<NamedProgram> Out;
  for (const LitmusTest &T : allLitmusTests())
    Out.push_back({"lit:" + T.Name, T.Prog, T.SuggestedConfig()});
  for (unsigned I = 0; I < 20; ++I) {
    RandomProgramConfig C;
    C.Seed = 41000 + I;
    C.NumThreads = 2 + I % 2;
    C.InstrsPerThread = 4;
    C.NumAtomicVars = 1 + I % 2;
    C.AllowCas = I % 3 != 2;
    C.AllowLoop = I % 5 == 0;
    if (I % 4 >= 2) {
      C.FencePercent = 30;
      C.MpSkeletonPercent = 100;
      C.FenceMpPercent = 100;
    }
    StepConfig SC;
    SC.EnablePromises = I % 2 == 1;
    Out.push_back(
        {"rand:" + std::to_string(C.Seed), generateRandomProgram(C), SC});
  }
  return Out;
}

struct MachineStateHash {
  std::size_t operator()(const MachineState &S) const { return S.hash(); }
};

/// Breadth-first walk from \p Start: \p Expand(S, Next) is called once per
/// distinct state S and appends S's children, already normalized the way
/// the caller's explorer would store them. Stops after \p Limit states;
/// returns the number expanded.
template <typename ExpandT>
std::size_t forEachReachableState(const MachineState &Start, std::size_t Limit,
                                  ExpandT &&Expand) {
  std::unordered_set<MachineState, MachineStateHash> Seen{Start};
  std::deque<MachineState> Work{Start};
  std::vector<MachineState> Next;
  std::size_t Expanded = 0;
  while (!Work.empty() && Expanded < Limit) {
    MachineState S = std::move(Work.front());
    Work.pop_front();
    ++Expanded;
    Next.clear();
    Expand(S, Next);
    for (MachineState &N : Next)
      if (Seen.insert(N).second)
        Work.push_back(std::move(N));
  }
  return Expanded;
}

} // namespace psopt

#endif // PSOPT_TESTS_SUPPORT_REACHABLESTATES_H
