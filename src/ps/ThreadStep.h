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
///    bounded by a StepConfig and a PromiseDomain.
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

/// Enumerates promise/reserve/cancel steps of thread \p T under the given
/// bounds. Terminated threads have no PRC steps (they could never fulfil).
void enumeratePrcSteps(const Program &P, Tid T, const ThreadState &TS,
                       const Memory &M, const PromiseDomain &D,
                       const StepConfig &C, std::vector<ThreadSuccessor> &Out);

/// Computes the promise domain of thread entry \p F: na/rlx store targets
/// and store constants of every function reachable from \p F through calls.
PromiseDomain computePromiseDomain(const Program &P, FuncId F);

} // namespace psopt

#endif // PSOPT_PS_THREADSTEP_H
