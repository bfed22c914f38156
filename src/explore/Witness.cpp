//===- explore/Witness.cpp - Execution witness reconstruction -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Witness.h"
#include "explore/Canonical.h"
#include "support/Hashing.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace psopt {

std::string Witness::str() const {
  std::string Out;
  for (const WitnessStep &S : Steps)
    Out += "  " + S.str() + "\n";
  Out += "  => " + Observed.str() + "\n";
  return Out;
}

namespace {

/// A (canonical state, output trace) node of the witness search. Traces
/// are part of the identity because behaviors are path-dependent: the same
/// machine state reached after different prints leads to different traces.
struct ExploreNode {
  MachineState State; // canonical
  Trace Outs;

  bool operator==(const ExploreNode &O) const {
    return Outs == O.Outs && State == O.State;
  }
};

struct ExploreNodeHash {
  std::size_t operator()(const ExploreNode &N) const {
    std::size_t Seed = N.State.hash();
    for (Val V : N.Outs)
      hashCombineValue(Seed, V);
    return hashFinalize(Seed);
  }
};

/// An explore node plus the parent link the reconstruction follows.
struct SearchNode {
  ExploreNode Node;
  std::int64_t Parent = -1;
  WitnessStep Step;
};

/// The visited set holds pointers into the arena, compared as the explore
/// nodes they point to.
struct NodeRefHash {
  std::size_t operator()(const ExploreNode *N) const {
    return ExploreNodeHash{}(*N);
  }
};

struct NodeRefEq {
  bool operator()(const ExploreNode *A, const ExploreNode *B) const {
    return *A == *B;
  }
};

} // namespace

std::optional<Witness> findWitness(const Machine &M, const Trace &Outs,
                                   Behavior::End Ending,
                                   const ExploreConfig &C) {
  if (!M.initial())
    return std::nullopt;

  // Arena of nodes; the visited set stores pointers into it.
  std::deque<SearchNode> Arena;
  std::unordered_set<const ExploreNode *, NodeRefHash, NodeRefEq> Visited;
  std::deque<std::int64_t> Work;

  auto Reconstruct = [&](std::int64_t Idx, Behavior::End End) {
    Witness W;
    W.Observed.Outs = Arena[Idx].Node.Outs;
    W.Observed.Ending = End;
    std::vector<WitnessStep> Rev;
    for (std::int64_t I = Idx; Arena[I].Parent >= 0; I = Arena[I].Parent)
      Rev.push_back(Arena[I].Step);
    W.Steps.assign(Rev.rbegin(), Rev.rend());
    return W;
  };

  SearchNode Start;
  Start.Node.State = *M.initial();
  canonicalizeState(Start.Node.State);
  Arena.push_back(std::move(Start));
  Work.push_back(0);

  std::vector<MachineSuccessor> Succs;
  while (!Work.empty()) {
    std::int64_t Idx = Work.front();
    Work.pop_front();
    if (!Visited.insert(&Arena[Idx].Node).second)
      continue;
    if (Visited.size() > C.MaxNodes)
      return std::nullopt;

    // The arena grows below; deque references survive push_back.
    const ExploreNode &Cur = Arena[Idx].Node;

    if (Ending == Behavior::End::Partial && Cur.Outs == Outs)
      return Reconstruct(Idx, Behavior::End::Partial);
    if (Ending == Behavior::End::Done && Cur.State.allTerminated() &&
        Cur.Outs == Outs)
      return Reconstruct(Idx, Behavior::End::Done);
    if (Cur.State.allTerminated())
      continue;

    M.successors(Cur.State, Succs);
    for (MachineSuccessor &S : Succs) {
      if (S.Ev.K == MachineEvent::Kind::Abort) {
        if (Ending == Behavior::End::Abort && Cur.Outs == Outs) {
          // Append the aborting step itself.
          SearchNode N;
          N.Node = Cur;
          N.Parent = Idx;
          N.Step = WitnessStep{S.Ev.Thread, S.Ev.ThreadEv};
          Arena.push_back(std::move(N));
          return Reconstruct(static_cast<std::int64_t>(Arena.size()) - 1,
                             Behavior::End::Abort);
        }
        continue;
      }
      SearchNode N;
      N.Node.State = std::move(S.State);
      canonicalizeSuccessor(N.Node.State, Cur.State);
      N.Node.Outs = Cur.Outs;
      if (S.Ev.K == MachineEvent::Kind::Out) {
        if (Cur.Outs.size() >= Outs.size() ||
            Outs[Cur.Outs.size()] != S.Ev.OutVal)
          continue; // Only follow the requested trace.
        N.Node.Outs.push_back(S.Ev.OutVal);
      }
      N.Parent = Idx;
      N.Step = WitnessStep{S.Ev.Thread, S.Ev.ThreadEv};
      Arena.push_back(std::move(N));
      Work.push_back(static_cast<std::int64_t>(Arena.size()) - 1);
    }
  }
  return std::nullopt;
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
