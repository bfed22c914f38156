//===- ps/ThreadStep.h - The labeled thread step relation -------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread step relation ι ⊢ (TS, M) --te--> (TS', M') of PS2.1 (§3),
/// implemented as successor *enumeration*: given a thread's state and the
/// memory, produce every canonical successor together with its event label.
///
/// Two entry points mirror Fig 10's step classes:
///  * enumerateProgramSteps — instruction and terminator execution
///    (classes NA and AT), with stepInPlace as its deterministic,
///    memory-preserving fragment;
///  * enumeratePrcSteps — promise / reserve / cancel steps (class PRC),
///    bounded by a StepConfig and a PromiseDomain, and filtered by a
///    StoreReach summary when the caller certifies its steps.
///
/// Dynamic mode violations (the validator's rules broken at run time)
/// produce successors flagged Abort, which machines turn into the abort
/// behavior (§3: B may end with abort; Safe(P) = abort unreachable).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_THREADSTEP_H
#define PSOPT_PS_THREADSTEP_H

#include "ps/Config.h"
#include "ps/Event.h"
#include "ps/Memory.h"
#include "ps/ThreadState.h"

#include <map>
#include <set>
#include <vector>

namespace psopt {

/// One enumerated successor of a thread step.
struct ThreadSuccessor {
  ThreadEvent Ev;
  ThreadState TS;
  Memory Mem;
  bool Abort = false;
};

/// Enumerates all instruction/terminator steps of thread \p T.
/// Terminated threads have no steps. \p TrackAcqView maintains the
/// per-thread acquire view (ThreadState::Acq): relaxed reads bank the read
/// message's view so a later `fence.acq` can publish it into V. It is a
/// property of the program, not a caller choice: machines set it to
/// programHasAcquireFence(P), so fence-free programs keep their exact
/// pre-fence state graphs (and the checked-in state oracle fingerprints);
/// direct callers may rely on the fence-free default.
void enumerateProgramSteps(const Program &P, Tid T, const ThreadState &TS,
                           const Memory &M, std::vector<ThreadSuccessor> &Out,
                           bool TrackAcqView = false);

/// Advances thread \p T's state \p TS in place by its next program step,
/// provided that step is the thread's only successor, does not abort, and
/// leaves memory unchanged: skip, assign, print, a terminator, a load with
/// exactly one readable message, or an enabled fence. Stores \p Ev and
/// returns true on success. Returns false — with \p TS untouched — for
/// stores and CAS, aborting steps, loads with several (or no) readable
/// messages, fences blocked by outstanding promises, and terminated
/// threads. enumerateProgramSteps builds its successors for these
/// instruction kinds from the same code, so the two cannot disagree; the
/// explorer's chain fuser walks thread-local chains with it without
/// materializing a ThreadSuccessor per step.
bool stepInPlace(const Program &P, Tid T, ThreadState &TS, const Memory &M,
                 ThreadEvent &Ev, bool TrackAcqView = false);

/// True when any instruction of \p P is a fence with an acquire component.
/// Machines use this to switch on acquire-view tracking (TrackAcqView).
bool programHasAcquireFence(const Program &P);

/// The stores a thread can still run while it holds a promise, per
/// control point of every function of a program: the non-release stores
/// (location, and the stored constant or "any value" when the expression
/// does not fold) reachable through block successors and callees, and —
/// when the frame can reach its `ret` — through the call stack's return
/// points. A release-side fence ends every path: it blocks while the
/// thread holds a concrete promise (stepInPlace).
///
/// A promise can only be fulfilled by a non-release store of its value to
/// its location whose To exceeds the thread's relaxed view
/// (enumerateProgramSteps), and certification makes no new promises. So a
/// promise that no reachable store can write, or that the thread's view
/// has already passed, fails certification: the machine rejects such
/// candidates and steps before building their capped memory.
class StoreReach {
public:
  explicit StoreReach(const Program &P);

  /// True when a thread at \p L can still run a store of \p V to \p X
  /// without passing a release-side fence. False for terminated threads.
  bool canStore(const LocalState &L, VarId X, Val V) const;

  /// True unless some concrete promise of thread \p T in \p M is already
  /// out of reach from \p TS: no reachable store writes its value, or the
  /// relaxed view has reached its To (views only grow).
  bool promisesFulfillable(Tid T, const ThreadState &TS,
                           const Memory &M) const;

private:
  /// The stores reachable from one control point within its frame.
  struct Stores {
    std::set<VarId> AnyValue;
    std::set<std::pair<VarId, Val>> Consts;
    /// Control can leave the frame through `ret` without a release fence.
    bool ReachesRet = false;

    bool has(VarId X, Val V) const {
      return AnyValue.count(X) || Consts.count({X, V});
    }
    void join(const Stores &O);
    /// Steps the fact backward over \p I.
    void transfer(const Instr &I);
    bool operator==(const Stores &) const = default;
  };

  /// The stores at instruction \p Idx of block \p B of \p F (Idx equal to
  /// the block size is the terminator); null for a missing block.
  const Stores *at(FuncId F, BlockLabel B, unsigned Idx) const;

  std::vector<Stores> Facts; // Distinct facts, shared by control points.
  /// Function → block → one index into Facts per control point.
  std::map<FuncId, std::map<BlockLabel, std::vector<std::uint32_t>>> Points;
};

/// Enumerates promise/reserve/cancel steps of thread \p T under the given
/// bounds. Terminated threads have no PRC steps (they could never fulfil).
/// When \p Reach is given, promise candidates (x, v) that no store
/// reachable from \p TS can write are skipped before their placements are
/// enumerated; returns how many were skipped.
unsigned enumeratePrcSteps(const Program &P, Tid T, const ThreadState &TS,
                           const Memory &M, const PromiseDomain &D,
                           const StepConfig &C,
                           std::vector<ThreadSuccessor> &Out,
                           const StoreReach *Reach = nullptr);

/// Computes the promise domain of thread entry \p F: na/rlx store targets
/// and store constants of every function reachable from \p F through calls.
PromiseDomain computePromiseDomain(const Program &P, FuncId F);

} // namespace psopt

#endif // PSOPT_PS_THREADSTEP_H
