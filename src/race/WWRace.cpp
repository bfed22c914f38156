//===- race/WWRace.cpp - Write-write race freedom ----------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "race/WWRace.h"
#include "explore/ParallelBfs.h"
#include "explore/StateGraph.h"
#include "nps/NPMachine.h"

#include <mutex>

namespace psopt {

std::optional<RaceWitness> stateHasWWRace(const Program &P,
                                          const MachineState &S) {
  for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T) {
    const ThreadState &TS = S.Threads[T];
    const Instr *I = TS.Local.currentInstr(P);
    // nxt(σ) = W(na, x, _): the next operation is a non-atomic write.
    if (!I || !I->isStore() || I->writeMode() != WriteMode::NA)
      continue;
    VarId X = I->var();
    for (const Message &M : S.Mem.messages(X)) {
      if (!M.isConcrete())
        continue;
      if (M.Owner == T)
        continue; // m ∈ TP(t).P is excluded (Fig 11: m ∈ M \ P).
      if (TS.V.rlxAt(X) < M.To) {
        RaceWitness W;
        W.Thread = T;
        W.Var = X;
        W.Description = "thread t" + std::to_string(T) +
                        " is about to write " + X.str() +
                        " non-atomically while unobserved message " +
                        M.str() + " exists";
        return W;
      }
    }
  }
  return std::nullopt;
}

/// Race detection is trace-insensitive: the search nodes are the entries
/// of the state graph, each visited when it is first reached under the
/// null trace tag, and the predicate sees each full state inside its one
/// expansion. The pool stops as soon as any worker finds a witness;
/// the verdict is the same at every worker count on unbounded runs
/// because racy-state reachability does not depend on search order.
RaceCheckResult
checkRaceFreedom(const Machine &M, const RaceCheckConfig &C,
                 const std::function<std::optional<RaceWitness>(
                     const Program &, const MachineState &)> &Predicate) {
  RaceCheckResult R;
  if (!M.initial())
    return R; // No execution, no race.

  ParallelBfs<StateEntry *> Engine(C.Jobs, C.MaxNodes);
  StateGraph States(M, nullptr, Engine.jobs());
  std::vector<ExpandScratch> Scratch(Engine.jobs());
  std::mutex WitnessMutex;

  auto Visit = [&](unsigned W, StateEntry *E, auto &&Push) {
    if (!States.reach(*E, nullptr) || !Engine.claim())
      return;
    std::optional<RaceWitness> Witness;
    const Expansion &X =
        States.expand(*E, Scratch[W], [&](const MachineState &S) {
          Witness = Predicate(M.program(), S);
          return !Witness;
        });
    if (Witness) {
      std::lock_guard<std::mutex> Lock(WitnessMutex);
      if (!R.Witness) {
        R.RaceFree = false;
        R.Witness = std::move(Witness);
      }
      Engine.stop();
      return;
    }
    for (const Edge &Step : X.Edges)
      if (StateEntry *Child = Step.Child) // abort steps have no child
        Push(std::move(Child));
  };

  auto Stats = Engine.run(&States.root(Scratch[0]), Visit);
  R.StatesChecked = Stats.Expanded;
  // A found witness is a definite verdict even though the search stopped
  // early; only the node bound makes the answer approximate.
  R.Exact = !Stats.NodeBoundHit;
  return R;
}

RaceCheckResult checkWWRaceFreedom(const Program &P, const StepConfig &SC,
                                   const RaceCheckConfig &C) {
  InterleavingMachine M(P, SC);
  return checkRaceFreedom(M, C, stateHasWWRace);
}

RaceCheckResult checkWWRaceFreedomNP(const Program &P, const StepConfig &SC,
                                     const RaceCheckConfig &C) {
  NonPreemptiveMachine M(P, SC);
  return checkRaceFreedom(M, C, stateHasWWRace);
}

} // namespace psopt
