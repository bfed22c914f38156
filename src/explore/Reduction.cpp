//===- explore/Reduction.cpp - Equivalence-class schedule reduction ----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Reduction.h"

#include "analysis/Footprint.h"

#include <algorithm>

namespace psopt {

static Statistic NumAmpleNodes("reduction", "ample_nodes",
                               "nodes expanded through a fused chain");
static Statistic NumFusedSteps("reduction", "fused_steps",
                               "thread steps collapsed into fused chains");
static Statistic NumSleepSkips("reduction", "sleep_skips",
                               "sibling thread schedules pruned at ample nodes");

namespace detail {
Statistic &numReductionAmpleNodes() { return NumAmpleNodes; }
Statistic &numReductionFusedSteps() { return NumFusedSteps; }
Statistic &numReductionSleepSkips() { return NumSleepSkips; }
} // namespace detail

Reducer::Reducer(const Machine &M) : M(&M) {
  const Program &P = M.program();
  const std::vector<FuncId> &Threads = P.threads();
  std::vector<std::set<VarId>> Footprints(Threads.size());
  for (std::size_t T = 0; T < Threads.size(); ++T)
    Footprints[T] = computeWriteFootprint(P, Threads[T]);
  Facts.resize(Threads.size());
  for (std::size_t T = 0; T < Threads.size(); ++T) {
    for (std::size_t U = 0; U < Threads.size(); ++U)
      if (U != T)
        Facts[T].OthersWrite.insert(Footprints[U].begin(),
                                    Footprints[U].end());
    if (M.config().EnablePromises)
      Facts[T].OwnPromisable = M.promiseDomain(static_cast<Tid>(T)).Vars;
  }
  FootprintAnalysis FA(P);
  for (std::size_t T = 0; T < Threads.size(); ++T)
    Facts[T].OthersRead = FA.peersRead(static_cast<Tid>(T));
}

bool Reducer::exclusiveRead(Tid T, VarId X) const {
  const ThreadFacts &F = Facts[T];
  if (F.OthersWrite.count(X))
    return false;
  // With promises on, T itself could promise on X and later read that
  // promise; hoisting the read past the promise would prune that behavior.
  if (F.OwnPromisable.count(X))
    return false;
  return true;
}

bool Reducer::exclusiveWrite(Tid T, VarId X) const {
  // A peer reservation on X (reserve steps range over all of storage)
  // would perturb T's placement enumeration; stay out when they exist.
  if (M->config().EnableReservations)
    return false;
  const ThreadFacts &F = Facts[T];
  if (F.OthersWrite.count(X) || F.OthersRead.count(X))
    return false;
  // With promises on, T itself could promise on X and fulfil it with this
  // very store; fusing the fresh-placement order would prune that path.
  if (F.OwnPromisable.count(X))
    return false;
  return true;
}

bool Reducer::fusibleFence(Tid T, FenceMode FM) const {
  // fence.acq only publishes the banked Acq view into V — thread-local.
  if (!fenceHasRel(FM))
    return true;
  // A rel-carrying fence rewrites the Rel snapshot that a future promise's
  // message view would carry; deferring such a promise past the fence is
  // observable. Safe exactly when T can make no promises at all. (The
  // fence step itself is never blocked here: chains only start and stay
  // promise-free.)
  return Facts[T].OwnPromisable.empty();
}

FusedChain Reducer::selectFused(const MachineState &S, ReducerScratch &Scr,
                                MachineSuccessor &Out) const {
  const Program &P = M->program();
  const Tid NumThreads = static_cast<Tid>(S.Threads.size());
  for (Tid T = 0; T < NumThreads; ++T) {
    const ThreadState &TS0 = S.Threads[T];
    if (TS0.Local.isTerminated())
      continue;
    // An outstanding promise entangles T with certification at every peer
    // state; only promise-free threads are candidates. (Reservations are
    // fine: they are invisible to readable() and their reserve/cancel
    // steps commute with the chain — they stay enabled at the fused node.)
    if (S.Mem.hasConcretePromises(T))
      continue;

    // Walk T's maximal deterministic thread-local chain. Each step's
    // locality is decided from the current instruction alone; skip,
    // assign, control, read and fence steps then advance Cur in place.
    // Fused stores deposit messages, so the chain threads its own memory
    // copy (lazily: untouched until the first memory-writing fused step).
    ThreadState &Cur = Scr.Chain;
    Cur = TS0;
    Memory ChainMem;
    bool MemChanged = false;
    Scr.ChainLocals.clear();
    Scr.ChainLocals.push_back(Cur.Local.hash());
    unsigned Len = 0;
    for (;;) {
      const Memory &Mem = MemChanged ? ChainMem : S.Mem;
      const Instr *I = Cur.Local.currentInstr(P);
      Instr::Kind K = I ? I->kind() : Instr::Kind::Skip; // terminator: tau
      if (K == Instr::Kind::Store || K == Instr::Kind::Cas) {
        // A store/CAS on a location no peer reads, writes, or reserves:
        // the new message is invisible to every peer step and to every
        // peer's certification search, and the placement enumeration is
        // peer-independent, so the write commutes like a tau. A CAS that
        // can only fail is a read and needs just exclusiveRead.
        Scr.Steps.clear();
        enumerateProgramSteps(P, T, Cur, Mem, Scr.Steps, M->config());
        if (Scr.Steps.size() != 1 || Scr.Steps[0].Abort)
          break; // chain ends before a branch point / abort
        ThreadSuccessor &Step = Scr.Steps[0];
        bool Writes = Step.Ev.K == ThreadEvent::Kind::Write ||
                      Step.Ev.K == ThreadEvent::Kind::Update;
        if (Writes ? !exclusiveWrite(T, Step.Ev.Var)
                   : !exclusiveRead(T, Step.Ev.Var))
          break;
        Cur = std::move(Step.TS);
        if (Writes) {
          ChainMem = std::move(Step.Mem);
          MemChanged = true;
        }
      } else {
        // Skip/assign/terminator touch neither memory nor the view. A read
        // of a location no peer can write has a schedule-independent
        // readable set, so a unique read now is the same unique read under
        // any peer order, whether or not it moves the view. Fences edit
        // only the thread's own views (see fusibleFence for the rel-side
        // promise caveat). Output is observable and never fused.
        if (K == Instr::Kind::Print ||
            (K == Instr::Kind::Load && !exclusiveRead(T, I->var())) ||
            (K == Instr::Kind::Fence && !fusibleFence(T, I->fenceMode())))
          break;
        ThreadEvent Ev;
        if (!stepInPlace(P, T, Cur, Mem, Ev, M->config()))
          break; // a branch point (several readable messages) or an abort
      }
      ++Len;
      if (Cur.Local.isTerminated())
        break; // chain ran the thread to completion
      if (Len >= MaxChainLen) {
        Len = 0; // counting loop too long to certify cycle-free: full expand
        break;
      }
      std::size_t H = Cur.Local.hash();
      if (std::find(Scr.ChainLocals.begin(), Scr.ChainLocals.end(), H) !=
          Scr.ChainLocals.end()) {
        // Local-state cycle: T can spin forever without its peers, so
        // peer steps must not be postponed past it (ignoring problem).
        // Hash collisions only make this test conservative.
        Len = 0;
        break;
      }
      Scr.ChainLocals.push_back(H);
    }
    if (Len == 0)
      continue;

    // Fuse: the chain becomes one tau-labeled machine step. Every other
    // thread is untouched; memory changes only by the chain's own fused
    // stores; Cur/SwitchAllowed keep their fixed interleaving values.
    // Per-step certification is vacuous throughout (T holds no promises),
    // so skipping it loses nothing.
    Out.State = S;
    Out.State.Threads[T] = Cur;
    if (MemChanged)
      Out.State.Mem = std::move(ChainMem);
    Out.State.invalidateHash();
    Out.Ev = MachineEvent{};
    Out.Ev.K = MachineEvent::Kind::Tau;
    Out.Ev.Thread = T;
    Out.Ev.ThreadEv = ThreadEvent::tau();

    unsigned Live = 0;
    for (const ThreadState &TS : S.Threads)
      if (!TS.Local.isTerminated())
        ++Live;
    return FusedChain{Len, Live - 1};
  }
  return FusedChain{};
}

void Reducer::project(MachineState &S) const {
  bool Changed = false;
  for (ThreadState &TS : S.Threads) {
    if (!TS.Local.isTerminated())
      continue;
    bool ThreadChanged = TS.Local.collapseTerminated();
    if (!(TS.V == View{})) {
      TS.V = View{};
      ThreadChanged = true;
    }
    if (!(TS.Acq == View{})) {
      TS.Acq = View{};
      ThreadChanged = true;
    }
    if (!(TS.Rel == View{})) {
      TS.Rel = View{};
      ThreadChanged = true;
    }
    if (ThreadChanged) {
      TS.invalidateHash();
      Changed = true;
    }
  }
  if (Changed)
    S.invalidateHash();
}

} // namespace psopt
