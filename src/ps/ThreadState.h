//===- ps/ThreadState.h - Per-thread machine state --------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread state TS = (σ, V, P) of Fig 8. The promise set P lives inside
/// the global memory as ownership marks (see ps/Message.h), so ThreadState
/// bundles just σ and the view V.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_THREADSTATE_H
#define PSOPT_PS_THREADSTATE_H

#include "ps/LocalState.h"
#include "ps/View.h"
#include "support/Hashing.h"

namespace psopt {

/// TS = (σ, V); P is recovered from the memory via ownership marks.
///
/// Two auxiliary views support fences (PS1.0 style; the paper's fragment
/// has none):
///  * Acq accumulates the message views of relaxed reads; `fence.acq`
///    joins it into V and resets it. It is only maintained when the
///    program contains an acquire-side fence (Machine::tracksAcqView),
///    so fence-free programs keep their exact pre-fence state graphs.
///  * Rel snapshots V at a `fence.rel`; subsequent na/rlx messages and
///    promises carry it as their message view. It stays ⊥ in fence-free
///    programs (only fences write it), so no gate is needed.
struct ThreadState {
  LocalState Local;
  View V;
  View Acq;
  View Rel;

  bool operator==(const ThreadState &O) const {
    return Local == O.Local && V == O.V && Acq == O.Acq && Rel == O.Rel;
  }

  std::size_t hash() const {
    std::size_t Seed = Local.hash();
    hashCombine(Seed, V.hash());
    hashCombine(Seed, Acq.hash());
    hashCombine(Seed, Rel.hash());
    return hashFinalize(Seed);
  }
};

} // namespace psopt

#endif // PSOPT_PS_THREADSTATE_H
