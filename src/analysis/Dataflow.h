//===- analysis/Dataflow.h - Worklist dataflow solver -----------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic block-level worklist solver in the abstract-interpretation
/// style the paper inherits from CompCert (§7.1: "Lv_Analyzer is verified
/// following the abstract interpretation framework in CompCert").
///
/// A problem supplies a semilattice fact (join + equality), a boundary fact
/// for the entry (forward) or exit blocks (backward), and a block transfer
/// function. The solver iterates in (reverse) RPO until fixpoint and
/// returns the fact at each block *entry* (forward) or block *exit*
/// (backward); passes then replay the per-instruction transfer inside a
/// block to get point-wise facts.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_ANALYSIS_DATAFLOW_H
#define PSOPT_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"

#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace psopt {

/// Solves a forward problem whose transfer is *edge-sensitive*: a branch
/// may push different facts down its then- and else-edges (e.g. "the flag
/// is confirmed non-zero" only on the taken edge of `be r, L1, L2`).
/// \p TransferEdges maps a block-entry fact to a list of
/// (successor label, fact on that edge) pairs — one entry per CFG edge the
/// block actually has; unknown labels are ignored.
///
/// Returns block-entry facts for every reachable block.
template <typename Fact, typename JoinFn, typename TransferFn>
std::map<BlockLabel, Fact> solveForwardEdges(const Function &F, const Cfg &G,
                                             Fact Boundary, JoinFn Join,
                                             TransferFn TransferEdges) {
  std::map<BlockLabel, Fact> In;
  In.emplace(G.entry(), std::move(Boundary));

  std::deque<BlockLabel> Work(G.rpo().begin(), G.rpo().end());
  std::set<BlockLabel> InWork(Work.begin(), Work.end());
  while (!Work.empty()) {
    BlockLabel L = Work.front();
    Work.pop_front();
    InWork.erase(L);
    auto InIt = In.find(L);
    if (InIt == In.end())
      continue; // Not yet reached; a predecessor will enqueue it.
    if (!F.hasBlock(L))
      continue; // Dangling branch target: no out-edges to propagate.
    std::vector<std::pair<BlockLabel, Fact>> Edges =
        TransferEdges(L, F.block(L), InIt->second);
    for (auto &[S, Out] : Edges) {
      auto [SIt, Inserted] = In.emplace(S, Out);
      bool Changed = Inserted || Join(SIt->second, Out);
      if (Changed && InWork.insert(S).second)
        Work.push_back(S);
    }
  }
  return In;
}

/// Solves a forward problem. \p Boundary is the fact at the function entry;
/// \p Join merges facts (in-place into its first argument, returning true
/// when it changed); \p TransferBlock maps a block-entry fact to the
/// block-exit fact, which every CFG successor receives. Returns
/// block-entry facts for every reachable block.
template <typename Fact, typename JoinFn, typename TransferFn>
std::map<BlockLabel, Fact> solveForward(const Function &F, const Cfg &G,
                                        Fact Boundary, JoinFn Join,
                                        TransferFn TransferBlock) {
  return solveForwardEdges(
      F, G, std::move(Boundary), Join,
      [&](BlockLabel L, const BasicBlock &B, const Fact &In) {
        Fact Out = TransferBlock(L, B, In);
        std::vector<std::pair<BlockLabel, Fact>> Edges;
        for (BlockLabel S : G.successors(L))
          Edges.emplace_back(S, Out);
        return Edges;
      });
}

/// Solves a backward problem. \p Boundary is the fact after `ret`;
/// \p Bottom seeds every other block exit (blocks that never reach a ret —
/// infinite loops — still iterate to their fixpoint from Bottom);
/// \p TransferBlock maps a block-exit fact to the block-entry fact.
///
/// Returns block-exit facts for every reachable block.
template <typename Fact, typename JoinFn, typename TransferFn>
std::map<BlockLabel, Fact> solveBackward(const Function &F, const Cfg &G,
                                         const Fact &Boundary,
                                         const Fact &Bottom, JoinFn Join,
                                         TransferFn TransferBlock) {
  std::map<BlockLabel, Fact> Out;
  for (BlockLabel L : G.rpo())
    Out.emplace(L, F.block(L).terminator().isRet() ? Boundary : Bottom);

  std::deque<BlockLabel> Work(G.rpo().rbegin(), G.rpo().rend());
  std::set<BlockLabel> InWork(Work.begin(), Work.end());
  while (!Work.empty()) {
    BlockLabel L = Work.front();
    Work.pop_front();
    InWork.erase(L);
    Fact NewIn = TransferBlock(L, F.block(L), Out.at(L));
    for (BlockLabel P : G.predecessors(L)) {
      if (Join(Out.at(P), NewIn) && InWork.insert(P).second)
        Work.push_back(P);
    }
  }
  return Out;
}

} // namespace psopt

#endif // PSOPT_ANALYSIS_DATAFLOW_H
