//===- explore/Witness.h - Execution witness reconstruction -----*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs a concrete execution (a schedule of labeled thread steps)
/// producing a given observable behavior — the "why" behind a refinement
/// counterexample. Used by the CLI (`psopt witness`) and by tests that
/// want to assert not just that a behavior exists but how it arises
/// (e.g. that LB's {1,1} outcome really does promise first). The search
/// uses the state-graph module of explore() and the race checker
/// (explore/StateGraph.h), unreduced.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_WITNESS_H
#define PSOPT_EXPLORE_WITNESS_H

#include "explore/Behavior.h"
#include "explore/Explorer.h"
#include "ps/Machine.h"

#include <optional>

namespace psopt {

/// One scheduled step of a witness execution.
struct WitnessStep {
  Tid Thread = 0;
  ThreadEvent Ev;

  std::string str() const {
    std::string Out = "t";
    Out.append(std::to_string(Thread)).append(": ").append(Ev.str());
    return Out;
  }
};

/// A complete witness.
struct Witness {
  std::vector<WitnessStep> Steps;
  Behavior Observed;

  std::string str() const;
};

/// findWitness's answer. No witness and not Bounded (the node bound cut
/// the search first) means no such execution exists.
struct WitnessResult : std::optional<Witness> {
  bool Bounded = false;
};

/// Searches \p M for a shortest execution with outputs \p Outs ending in
/// \p Ending (Done/Abort; Partial matches any reachable point with that
/// output prefix): a FIFO walk of the unreduced state graph
/// (explore/StateGraph.h) over (state, printed prefix) nodes, deduplicated
/// by the graph's marks, of which \p C.MaxNodes are visited at most.
WitnessResult findWitness(const Machine &M, const Trace &Outs,
                          Behavior::End Ending, const ExploreConfig &C = {});

/// Outcome of re-executing a stored witness schedule (replayWitness).
struct ReplayResult {
  bool Ok = false;      ///< every step matched an enabled transition
  Behavior Observed;    ///< outputs gathered and the ending reached
  std::string Error;    ///< on failure: the first step with no match

  explicit operator bool() const { return Ok; }
};

/// Re-executes \p W on \p M: starting from the initial state, each recorded
/// (thread, event) step must match an enabled machine transition. Event
/// labels carry no timestamps, so one label can admit several successor
/// states (e.g. a write inserted at different memory positions); the replay
/// tracks the full set of label-consistent states, and succeeds when the
/// schedule runs to completion and some reached state exhibits the recorded
/// ending. This is the oracle the fuzzer's shrinker uses to confirm that a
/// counterexample trace is genuinely executable.
ReplayResult replayWitness(const Machine &M, const Witness &W);

} // namespace psopt

#endif // PSOPT_EXPLORE_WITNESS_H
