//===- explore/Witness.cpp - Execution witness reconstruction -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Witness.h"
#include "explore/Canonical.h"
#include "explore/StateGraph.h"
#include "explore/TraceTrie.h"

#include <algorithm>

namespace psopt {

std::string Witness::str() const {
  std::string Out;
  for (const WitnessStep &S : Steps)
    Out.append("  ").append(S.str()).append("\n");
  Out.append("  => ").append(Observed.str()).append("\n");
  return Out;
}

WitnessResult findWitness(const Machine &M, const Trace &Outs,
                          Behavior::End Ending, const ExploreConfig &C) {
  WitnessResult R;
  if (!M.initial())
    return R;

  /// A node: a state entry and how many values of the requested trace
  /// were printed on the way there, plus the parent link the schedule is
  /// rebuilt from.
  struct SearchNode {
    StateEntry *State; ///< null for a final abort step
    std::size_t Printed;
    std::size_t Parent;  ///< arena index; the root is its own parent
    std::size_t EdgeIdx; ///< the parent's edge that led here
  };

  StateGraph States(M, nullptr, 1);
  ExpandScratch Scratch;
  // A node is tagged in the graph with the id of its printed prefix.
  TraceTrie Traces(1);
  std::vector<TraceTrie::Id> Prefix{Traces.empty()};
  for (Val V : Outs)
    Prefix.push_back(Traces.extend(Prefix.back(), V));
  // The arena doubles as the FIFO queue: nodes are appended once, when
  // first reached, and visited in order, so the path found is shortest.
  std::vector<SearchNode> Arena{{&States.root(Scratch), 0, 0, 0}};
  States.reach(*Arena[0].State, Prefix[0]);

  // The witness ending at node Idx: the edge indices along the parent
  // links, replayed forward through Machine::successors (the search is
  // unreduced, so edge i is successor i).
  auto Found = [&](std::size_t Idx) {
    std::vector<std::size_t> Path;
    for (std::size_t I = Idx; I != 0; I = Arena[I].Parent)
      Path.push_back(Arena[I].EdgeIdx);
    R.emplace(Witness{{}, Behavior{Outs, Ending}});
    MachineState S = *M.initial();
    canonicalizeState(S);
    std::vector<MachineSuccessor> Succs;
    for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
      M.successors(S, Succs);
      MachineSuccessor &Succ = Succs[*It];
      R->Steps.push_back(WitnessStep{Succ.Ev.Thread, Succ.Ev.ThreadEv});
      if (Succ.Ev.K == MachineEvent::Kind::Abort)
        break; // only ever the last step
      canonicalizeSuccessor(Succ.State, S);
      S = std::move(Succ.State);
    }
    return R;
  };

  for (std::size_t Idx = 0; Idx < Arena.size(); ++Idx) {
    if (Idx == C.MaxNodes) {
      R.Bounded = true;
      return R;
    }
    const SearchNode Cur = Arena[Idx]; // the arena grows below
    bool AtEnd = Cur.Printed == Outs.size();
    if (Ending == Behavior::End::Partial && AtEnd)
      return Found(Idx);

    const Expansion &X = States.expand(*Cur.State, Scratch);
    if (X.Done) {
      if (Ending == Behavior::End::Done && AtEnd)
        return Found(Idx);
      continue;
    }
    for (std::size_t I = 0; I < X.Edges.size(); ++I) {
      const Edge &E = X.Edges[I];
      std::size_t Printed = Cur.Printed;
      switch (E.K) {
      case MachineEvent::Kind::Abort:
        if (Ending != Behavior::End::Abort || !AtEnd)
          continue;
        Arena.push_back({nullptr, Printed, Idx, I});
        return Found(Arena.size() - 1);
      case MachineEvent::Kind::Out:
        if (AtEnd || Outs[Printed] != E.Out)
          continue; // Only follow the requested trace.
        ++Printed;
        break;
      case MachineEvent::Kind::Tau:
        break;
      }
      if (States.reach(*E.Child, Prefix[Printed]))
        Arena.push_back({E.Child, Printed, Idx, I});
    }
  }
  return R;
}

ReplayResult replayWitness(const Machine &M, const Witness &W) {
  ReplayResult R;
  if (!M.initial()) {
    R.Error = "machine has no initial state";
    return R;
  }

  MachineState Init = *M.initial();
  canonicalizeState(Init);
  std::vector<MachineState> Cur{std::move(Init)};
  bool Aborted = false;

  std::vector<MachineSuccessor> Succs;
  for (std::size_t I = 0; I < W.Steps.size(); ++I) {
    const WitnessStep &Step = W.Steps[I];
    if (Aborted) {
      R.Error = "step " + std::to_string(I) + " scheduled after abort";
      return R;
    }
    std::vector<MachineState> Next;
    for (const MachineState &S : Cur) {
      M.successors(S, Succs);
      for (MachineSuccessor &Succ : Succs) {
        if (Succ.Ev.Thread != Step.Thread || Succ.Ev.ThreadEv != Step.Ev)
          continue;
        if (Succ.Ev.K == MachineEvent::Kind::Abort) {
          // The aborting step consumes the schedule without a new state.
          Aborted = true;
          continue;
        }
        canonicalizeSuccessor(Succ.State, S);
        if (std::find(Next.begin(), Next.end(), Succ.State) == Next.end())
          Next.push_back(std::move(Succ.State));
      }
    }
    if (Step.Ev.isOut())
      R.Observed.Outs.push_back(Step.Ev.OutVal);
    if (Next.empty() && !Aborted) {
      R.Error = "step " + std::to_string(I) + " (" + Step.str() +
                ") matches no enabled transition";
      return R;
    }
    Cur = std::move(Next);
  }

  R.Observed.Ending = Behavior::End::Partial;
  if (Aborted)
    R.Observed.Ending = Behavior::End::Abort;
  else
    for (const MachineState &S : Cur)
      if (S.allTerminated()) {
        R.Observed.Ending = Behavior::End::Done;
        break;
      }
  R.Ok = true;
  return R;
}

} // namespace psopt
