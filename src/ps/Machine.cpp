//===- ps/Machine.cpp - Whole-program machines ------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/Machine.h"
#include "support/Hashing.h"
#include "support/Statistic.h"

namespace psopt {

static Statistic NumMachineSteps("machine", "thread_steps",
                                 "thread steps lifted to machine steps");
static Statistic NumCertRejects("machine", "cert_rejects",
                                "successors rejected by certification");
static Statistic NumUnfulfillable(
    "machine", "unfulfillable_rejects",
    "promise candidates and steps rejected before certification: a "
    "promise no reachable store can fulfil");

/// Where the calling thread's thread steps go: a ThreadStepTally's sink,
/// or null for the shared statistic.
static thread_local std::uint64_t *ThreadStepSink = nullptr;

ThreadStepTally::ThreadStepTally(std::uint64_t &Sink) : Prev(ThreadStepSink) {
  ThreadStepSink = &Sink;
}

ThreadStepTally::~ThreadStepTally() { ThreadStepSink = Prev; }

void addThreadSteps(std::uint64_t N) {
  if (N)
    NumMachineSteps += N;
}

std::size_t MachineState::hash() const {
  std::size_t Seed = Mem.hash();
  for (const ThreadState &TS : Threads)
    hashCombine(Seed, TS.hash());
  hashCombineValue(Seed, Cur);
  hashCombineValue(Seed, SwitchAllowed);
  return hashFinalize(Seed);
}

bool MachineState::allTerminated() const {
  for (const ThreadState &TS : Threads)
    if (!TS.Local.isTerminated())
      return false;
  return true;
}

std::string MachineState::str() const {
  std::string Out;
  for (std::size_t I = 0; I < Threads.size(); ++I) {
    Out.append("t").append(std::to_string(I)).append(": ");
    Out.append(Threads[I].Local.str()).append(" V=");
    Out.append(Threads[I].V.str()).append("\n");
  }
  Out += Mem.str();
  Out.append("cur=t").append(std::to_string(Cur));
  Out += SwitchAllowed ? " sw=o\n" : " sw=x\n";
  return Out;
}

Machine::Machine(const Program &Prog, StepConfig C)
    : P(&Prog), Cfg(C), TrackAcqView(programHasAcquireFence(Prog)) {
  if (Cfg.EnableCertCache)
    Cert = std::make_unique<CertCache>();
  if (Cfg.EnablePromises)
    Reach = std::make_unique<StoreReach>(Prog);
  // Initial memory covers every referenced variable plus declared atomics,
  // each with the initial message ⟨x : 0@(0,0], V⊥⟩.
  std::set<VarId> Vars = Prog.referencedVars();
  for (VarId X : Prog.atomics())
    Vars.insert(X);

  MachineState S;
  S.Mem = Memory::initial(Vars);
  bool Ok = true;
  for (FuncId F : Prog.threads()) {
    auto L = LocalState::start(Prog, F);
    if (!L) {
      Ok = false;
      break;
    }
    ThreadState TS;
    TS.Local = std::move(*L);
    S.Threads.push_back(std::move(TS));
    Domains.push_back(computePromiseDomain(Prog, F));
  }
  if (Ok && !S.Threads.empty())
    Init = std::move(S);
}

void Machine::liftThreadSuccessors(const MachineState &S, Tid T,
                                   bool AllowPromiseReserve, bool TrackNP,
                                   std::vector<MachineSuccessor> &Out) const {
  std::vector<ThreadSuccessor> Succs;
  enumerateProgramSteps(*P, T, S.Threads[T], S.Mem, Succs, TrackAcqView);
  if (AllowPromiseReserve) {
    if (unsigned Skipped = enumeratePrcSteps(*P, T, S.Threads[T], S.Mem,
                                             Domains[T], Cfg, Succs,
                                             Reach.get()))
      NumUnfulfillable += Skipped;
  } else {
    StepConfig CancelOnly = Cfg;
    CancelOnly.EnablePromises = false;
    CancelOnly.EnableReservations = false;
    enumeratePrcSteps(*P, T, S.Threads[T], S.Mem, Domains[T], CancelOnly,
                      Succs);
  }

  // Every enumerated step is considered for lifting: one add per call,
  // to the worker's tally when a search installed one.
  if (std::uint64_t *Sink = ThreadStepSink)
    *Sink += Succs.size();
  else if (!Succs.empty())
    NumMachineSteps += Succs.size();
  for (ThreadSuccessor &TSucc : Succs) {
    if (TSucc.Abort) {
      MachineSuccessor MS;
      MS.State = S; // Terminal; the explorer stops at abort events.
      MS.Ev.K = MachineEvent::Kind::Abort;
      MS.Ev.Thread = T;
      MS.Ev.ThreadEv = TSucc.Ev;
      Out.push_back(std::move(MS));
      continue;
    }
    bool IsPrm = TSucc.Ev.K == ThreadEvent::Kind::Promise;
    bool IsRsv = TSucc.Ev.K == ThreadEvent::Kind::Reserve;

    // A step that leaves one of the thread's promises out of reach would
    // fail certification below. A promise step needs no check: its
    // candidate was filtered above, and the thread's older promises were
    // reachable after its last step and still are (its state is unchanged).
    if (Reach && !IsPrm &&
        !Reach->promisesFulfillable(T, TSucc.TS, TSucc.Mem)) {
      ++NumUnfulfillable;
      continue;
    }

    // Per-step consistency: the stepping thread must still be able to
    // fulfil all of its promises (Fig 9 τ-step premise).
    if (!consistent(*P, T, TSucc.TS, TSucc.Mem, Cfg, Cert.get(),
                    TrackAcqView)) {
      ++NumCertRejects;
      continue;
    }

    MachineSuccessor MS;
    MS.State.Threads = S.Threads;
    MS.State.Threads[T] = std::move(TSucc.TS);
    MS.State.Mem = std::move(TSucc.Mem);
    if (TrackNP) {
      MS.State.Cur = T;
      // Fig 10: NA turns the switch bit off, AT turns it on, promise and
      // reserve require and keep ◦, cancel keeps the current bit.
      if (TSucc.Ev.isNA())
        MS.State.SwitchAllowed = false;
      else if (TSucc.Ev.isAT())
        MS.State.SwitchAllowed = true;
      else if (IsPrm || IsRsv)
        MS.State.SwitchAllowed = true;
      else // cancel
        MS.State.SwitchAllowed = S.SwitchAllowed;
      // A thread's final `ret` is a τ (NA) step; leaving β off would strand
      // the machine on a thread that can never step again. Thread exit
      // re-opens the switch bit (a completed NA block trivially ends).
      if (MS.State.Threads[T].Local.isTerminated())
        MS.State.SwitchAllowed = true;
    } else {
      MS.State.Cur = 0;
      MS.State.SwitchAllowed = true;
    }
    if (TSucc.Ev.isOut()) {
      MS.Ev.K = MachineEvent::Kind::Out;
      MS.Ev.OutVal = TSucc.Ev.OutVal;
    } else {
      MS.Ev.K = MachineEvent::Kind::Tau;
    }
    MS.Ev.Thread = T;
    MS.Ev.ThreadEv = TSucc.Ev;
    Out.push_back(std::move(MS));
  }
}

void InterleavingMachine::successors(const MachineState &S,
                                     std::vector<MachineSuccessor> &Out) const {
  Out.clear();
  for (Tid T = 0; T < static_cast<Tid>(S.Threads.size()); ++T)
    liftThreadSuccessors(S, T, /*AllowPromiseReserve=*/true,
                         /*TrackNP=*/false, Out);
}

} // namespace psopt
