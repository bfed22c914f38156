//===- explore/ExploreNode.h - Search-graph node ----------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (canonical state, output trace) node of the explorer's search graph
/// (explore/Explorer.h). Traces are part of the node identity because
/// behaviors are path-dependent: the same machine state reached after
/// different prints contributes different prefixes.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_EXPLORENODE_H
#define PSOPT_EXPLORE_EXPLORENODE_H

#include "explore/Behavior.h"
#include "ps/Machine.h"
#include "support/Hashing.h"

namespace psopt {

/// One node of the exploration graph.
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

} // namespace psopt

#endif // PSOPT_EXPLORE_EXPLORENODE_H
