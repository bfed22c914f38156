//===- explore/Reduction.cpp - Equivalence-class schedule reduction ----------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Reduction.h"

#include "analysis/Footprint.h"
#include "support/Debug.h"

#include <algorithm>
#include <atomic>

namespace psopt {

static Statistic NumAmpleNodes("reduction", "ample_nodes",
                               "nodes expanded through a fused chain");
static Statistic NumFusedSteps("reduction", "fused_steps",
                               "thread steps collapsed into fused chains");
static Statistic NumSleepSkips("reduction", "sleep_skips",
                               "sibling thread schedules pruned at ample nodes");
static Statistic NumChainMemoHits("reduction", "chain_memo_hits",
                                  "chain outcomes found in the chain memo");
static Statistic NumChainMemoMisses("reduction", "chain_memo_misses",
                                    "chains walked and memoized");

namespace detail {
Statistic &numReductionAmpleNodes() { return NumAmpleNodes; }
Statistic &numReductionFusedSteps() { return NumFusedSteps; }
Statistic &numReductionSleepSkips() { return NumSleepSkips; }
Statistic &numReductionChainMemoHits() { return NumChainMemoHits; }
Statistic &numReductionChainMemoMisses() { return NumChainMemoMisses; }
} // namespace detail

static std::uint64_t nextReducerId() {
  static std::atomic<std::uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

Reducer::Reducer(const Machine &M) : M(&M), Id(nextReducerId()) {
  const Program &P = M.program();
  // Peer footprints cover reachable blocks only. A peer's promise domain
  // is syntactic (it may name a location the peer stores to only in an
  // unreachable block), but such a promise can never be certified — the
  // fulfilling store never runs — so it never enters a reachable state.
  FootprintAnalysis FA(P);
  Facts.resize(P.threads().size());
  for (std::size_t T = 0; T < Facts.size(); ++T) {
    Tid Self = static_cast<Tid>(T);
    Facts[T].OthersWrite = FA.peersWrite(Self);
    Facts[T].OthersRead = FA.peersRead(Self);
    if (M.config().EnablePromises)
      Facts[T].OwnPromisable = M.promiseDomain(Self).Vars;
  }
  // Every state of M has the initial memory's locations (it covers every
  // referenced variable), so storage() indices name the same variables in
  // all of them.
  if (!M.initial())
    return;
  const std::vector<Memory::Loc> &Locs = M.initial()->Mem.storage();
  NumLocs = Locs.size();
  for (ThreadFacts &F : Facts)
    for (std::size_t I = 0; I < NumLocs; ++I)
      if (!F.OthersWrite.count(Locs[I].var()))
        F.Exclusive.push_back(I);
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

bool Reducer::mayFuse(Tid T, const Instr *I) const {
  if (!I)
    return true; // a terminator: a control step
  switch (I->kind()) {
  case Instr::Kind::Print:
    return false; // output is observable and never fused
  case Instr::Kind::Load:
    return exclusiveRead(T, I->var());
  case Instr::Kind::Store:
    return exclusiveWrite(T, I->var());
  case Instr::Kind::Cas:
    // Fusible as a read (it can only fail) or as an update; the update
    // additionally needs exclusiveWrite, which implies exclusiveRead.
    return exclusiveRead(T, I->var());
  case Instr::Kind::Fence:
    return fusibleFence(T, I->fenceMode());
  case Instr::Kind::Skip:
  case Instr::Kind::Assign:
    return true;
  }
  PSOPT_UNREACHABLE("unknown instruction kind");
}

void Reducer::walkChain(const MachineState &S, Tid T, ReducerScratch &Scr,
                        ChainOutcome &Out) const {
  // Walk T's maximal deterministic thread-local chain. Each step's
  // locality is screened from the current instruction alone; skip,
  // assign, control, read and fence steps then advance Cur in place.
  // Fused stores deposit messages, so the chain threads its own memory
  // copy (lazily: untouched until the first memory-writing fused step).
  const Program &P = M->program();
  ThreadState &Cur = Out.End;
  Cur = S.Threads[T];
  Memory ChainMem;
  bool MemChanged = false;
  Scr.ChainLocals.clear();
  Scr.ChainLocals.push_back(Cur.Local.hash());
  unsigned Len = 0;
  for (;;) {
    const Memory &Mem = MemChanged ? ChainMem : S.Mem;
    const Instr *I = Cur.Local.currentInstr(P);
    if (!mayFuse(T, I))
      break;
    Instr::Kind K = I ? I->kind() : Instr::Kind::Skip; // terminator: tau
    if (K == Instr::Kind::Store || K == Instr::Kind::Cas) {
      // A store/CAS on a location no peer reads, writes, or reserves:
      // the new message is invisible to every peer step and to every
      // peer's certification search, and the placement enumeration is
      // peer-independent, so the write commutes like a tau. mayFuse
      // cleared a CAS as a read; a CAS that succeeds must also be an
      // exclusive write.
      Scr.Steps.clear();
      enumerateProgramSteps(P, T, Cur, Mem, Scr.Steps, M->tracksAcqView());
      if (Scr.Steps.size() != 1 || Scr.Steps[0].Abort)
        break; // chain ends before a branch point / abort
      ThreadSuccessor &Step = Scr.Steps[0];
      bool Writes = Step.Ev.K == ThreadEvent::Kind::Write ||
                    Step.Ev.K == ThreadEvent::Kind::Update;
      if (Writes && !exclusiveWrite(T, Step.Ev.Var))
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
      // promise caveat).
      ThreadEvent Ev;
      if (!stepInPlace(P, T, Cur, Mem, Ev, M->tracksAcqView()))
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

  Out.Len = Len;
  if (Len == 0 || !MemChanged)
    return;
  // Fused stores only touch exclusiveWrite locations, a subset of T's
  // exclusive ones; every other list is still S.Mem's.
  const std::vector<Memory::Loc> &Before = S.Mem.storage();
  const std::vector<Memory::Loc> &After = ChainMem.storage();
  PSOPT_CHECK(After.size() == Before.size(), "fused store added a location");
  for (std::size_t I : Facts[T].Exclusive)
    if (!After[I].sharesListWith(Before[I]))
      Out.Stores.emplace_back(I, After[I]);
}

const ChainOutcome &Reducer::chainFrom(const MachineState &S, Tid T,
                                       ReducerScratch &Scr) const {
  // The walk reads memory only at T's exclusive locations (loads and CAS
  // need exclusiveRead, stores exclusiveWrite; T's lack of promises, the
  // one global fact a step consults, is checked before every lookup), and
  // otherwise only the static program, config and Facts. So the outcome
  // is a function of (T, T's state, T's exclusive lists) — peer states,
  // peer-written lists and peer reservations elsewhere do not enter it.
  const ThreadState &TS0 = S.Threads[T];
  const std::vector<Memory::Loc> &Locs = S.Mem.storage();
  const std::vector<std::size_t> &Excl = Facts[T].Exclusive;
  // The hash is cheap and the compare below exact. T's views stay out of
  // it: entries that agree on T's local state and lists rarely differ in
  // views alone. The lists are hashed by address: the state graph points
  // every state it holds at the pooled copy of each list, so within one
  // exploration equal lists share an address. (States built outside the
  // graph may miss an equal entry and walk the chain again.)
  std::size_t Key = TS0.Local.hash();
  hashCombineValue(Key, T);
  for (std::size_t I : Excl)
    hashCombineValue(Key, &Locs[I].messages());

  auto [First, Last] = Scr.Memo.equal_range(Key);
  for (auto It = First; It != Last; ++It) {
    const ChainMemoEntry &E = It->second;
    if (E.T != T || !(E.Start == TS0))
      continue;
    bool Same = true;
    for (std::size_t K = 0; K < Excl.size() && Same; ++K) {
      const Memory::Loc &A = E.Slice[K], &B = Locs[Excl[K]];
      Same = A.sharesListWith(B) || A.messages() == B.messages();
    }
    if (Same) {
      ++Scr.MemoHits;
      return E.Out;
    }
  }

  ++Scr.MemoMisses;
  ChainMemoEntry E;
  E.T = T;
  E.Start = TS0;
  E.Slice.reserve(Excl.size());
  for (std::size_t I : Excl)
    E.Slice.push_back(Locs[I]);
  walkChain(S, T, Scr, E.Out);
  return Scr.Memo.emplace(Key, std::move(E))->second.Out;
}

FusedChain Reducer::selectFused(const MachineState &S, ReducerScratch &Scr,
                                MachineSuccessor &Out) const {
  if (Scr.MemoOwner != Id) {
    Scr.Memo.clear();
    Scr.MemoOwner = Id;
  }
  PSOPT_CHECK(S.Mem.storage().size() == NumLocs,
              "state memory does not match the reducer's machine");
  const Program &P = M->program();
  const bool Promises = M->config().EnablePromises;
  const Tid NumThreads = static_cast<Tid>(S.Threads.size());
  for (Tid T = 0; T < NumThreads; ++T) {
    const ThreadState &TS0 = S.Threads[T];
    if (TS0.Local.isTerminated())
      continue;
    // An outstanding promise entangles T with certification at every peer
    // state; only promise-free threads are candidates. (Reservations are
    // fine: they are invisible to readable() and their reserve/cancel
    // steps commute with the chain — they stay enabled at the fused node.)
    // Without promise steps no concrete promise exists: skip the scan.
    if (Promises && S.Mem.hasConcretePromises(T))
      continue;
    // Screen before the memo: most non-fusible threads are known to be so
    // from their next instruction alone.
    if (!mayFuse(T, TS0.Local.currentInstr(P)))
      continue;
    const ChainOutcome &C = chainFrom(S, T, Scr);
    if (C.Len == 0)
      continue;

    // Fuse: the chain becomes one tau-labeled machine step. Every other
    // thread is untouched; memory changes only by the chain's own fused
    // stores; Cur/SwitchAllowed keep their fixed interleaving values.
    // Per-step certification is vacuous throughout (T holds no promises),
    // so skipping it loses nothing.
    Out.State = S;
    Out.State.Threads[T] = C.End;
    for (const auto &[I, L] : C.Stores)
      Out.State.Mem.installListAt(I, L);
    Out.Ev = MachineEvent{};
    Out.Ev.K = MachineEvent::Kind::Tau;
    Out.Ev.Thread = T;
    Out.Ev.ThreadEv = ThreadEvent::tau();

    unsigned Live = 0;
    for (const ThreadState &TS : S.Threads)
      if (!TS.Local.isTerminated())
        ++Live;
    return FusedChain{C.Len, Live - 1};
  }
  return FusedChain{};
}

void Reducer::project(MachineState &S) const {
  for (ThreadState &TS : S.Threads) {
    if (!TS.Local.isTerminated())
      continue;
    TS.Local.collapseTerminated();
    TS.V = View{};
    TS.Acq = View{};
    TS.Rel = View{};
  }
}

} // namespace psopt
