//===- ps/ThreadStep.cpp - The labeled thread step relation ----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/ThreadStep.h"

namespace psopt {

namespace {

/// Maximum simultaneous reservations per thread outside certification
/// (when StepConfig::EnableReservations is on).
constexpr unsigned MaxOutstandingReservations = 1;

/// True when load \p I breaks its location's access mode (an na read of an
/// atomic location or an atomic read of an na one): the step aborts.
bool loadAborts(const Program &P, const Instr &I) {
  return P.isAtomic(I.var()) == (I.readMode() == ReadMode::NA);
}

/// The read bound of load \p I under view \p V: Tna for na reads, Trlx for
/// rlx/acq (§3).
Time readBound(const View &V, const Instr &I) {
  return I.readMode() == ReadMode::NA ? V.naAt(I.var()) : V.rlxAt(I.var());
}

/// Applies to \p TS the thread-local effect of reading \p Msg at \p X in
/// mode \p RM and advances past the instruction. \p Dest receives
/// \p RegVal: the message value for a load, 0 for a failed CAS.
void applyRead(ThreadState &TS, VarId X, ReadMode RM, RegId Dest, Val RegVal,
               const Message &Msg, bool TrackAcqView) {
  // na reads record the timestamp on Trlx only; rlx/acq record it on both
  // maps; acq additionally joins the message view (§3).
  TS.V.joinRlxAt(X, Msg.To);
  if (RM != ReadMode::NA)
    TS.V.joinNaAt(X, Msg.To);
  if (RM == ReadMode::ACQ)
    TS.V.join(Msg.MsgView);
  // A relaxed read banks the message view for a later acquire fence
  // (C11: the fence upgrades preceding relaxed reads to acquire).
  if (TrackAcqView && RM == ReadMode::RLX)
    TS.Acq.join(Msg.MsgView);
  TS.Local.regs().set(Dest, RegVal);
  TS.Local.advance();
}

/// Shared context for building successors of one (thread, state, memory).
struct StepBuilder {
  const Program &P;
  Tid T;
  const ThreadState &TS;
  const Memory &M;
  bool TrackAcqView;
  std::vector<ThreadSuccessor> &Out;

  void abortStep() {
    ThreadSuccessor S;
    S.Ev = ThreadEvent::tau();
    S.TS = TS;
    S.Mem = M;
    S.Abort = true;
    Out.push_back(std::move(S));
  }

  /// Emits a store successor that advanced σ past the current
  /// instruction. The fence views carry over unchanged (stores never edit
  /// them).
  void emitAdvanced(ThreadEvent Ev, View NewV, Memory NewM) {
    ThreadSuccessor S;
    S.Ev = std::move(Ev);
    S.TS.Local = TS.Local;
    S.TS.Local.advance();
    S.TS.V = std::move(NewV);
    S.TS.Acq = TS.Acq;
    S.TS.Rel = TS.Rel;
    S.Mem = std::move(NewM);
    Out.push_back(std::move(S));
  }

  // --- instruction semantics ----------------------------------------------

  void load(const Instr &I) {
    if (loadAborts(P, I)) {
      abortStep();
      return;
    }
    for (const Message *Msg : M.readable(I.var(), readBound(TS.V, I))) {
      ThreadSuccessor S;
      S.Ev = ThreadEvent::read(I.readMode(), I.var(), Msg->Value);
      S.TS = TS;
      applyRead(S.TS, I.var(), I.readMode(), I.dest(), Msg->Value, *Msg,
                TrackAcqView);
      S.Mem = M;
      Out.push_back(std::move(S));
    }
  }

  void store(const Instr &I) {
    VarId X = I.var();
    WriteMode WM = I.writeMode();
    bool Atomic = P.isAtomic(X);
    if (Atomic == (WM == WriteMode::NA)) {
      abortStep();
      return;
    }
    Val V = I.expr()->eval(TS.Local.regs());

    // A release write requires the thread to hold no unfulfilled promise on
    // the location (PS: release writes cannot run ahead of own promises).
    if (WM == WriteMode::REL && M.hasPromiseOn(T, X))
      return;

    // (a) Fresh message at each canonical placement.
    for (const Placement &Pl : M.enumeratePlacements(X, TS.V.rlxAt(X))) {
      View NewV = TS.V;
      NewV.joinNaAt(X, Pl.To);
      NewV.joinRlxAt(X, Pl.To);
      // Release writes carry the (updated) thread view as the message view;
      // na/rlx messages carry the release-fence snapshot Rel (V⊥ in
      // fence-free programs — §3's rule exactly).
      View MsgView = WM == WriteMode::REL ? NewV : TS.Rel;
      Memory NewM = M;
      NewM.insert(Message::concrete(X, V, Pl.From, Pl.To, std::move(MsgView)));
      emitAdvanced(ThreadEvent::write(WM, X, V), std::move(NewV),
                   std::move(NewM));
    }

    // (b) Fulfil one of the thread's own promises with a matching value.
    // Release writes always create fresh messages (promises are na/rlx).
    if (WM != WriteMode::REL) {
      for (const Message *Prm : M.promisesOf(T)) {
        if (!Prm->isConcrete() || Prm->Var != X || Prm->Value != V)
          continue;
        if (!(Prm->To > TS.V.rlxAt(X)))
          continue;
        View NewV = TS.V;
        NewV.joinNaAt(X, Prm->To);
        NewV.joinRlxAt(X, Prm->To);
        Memory NewM = M;
        // Rel cannot have changed since the promise was made (release
        // fences block while promises are outstanding), so the fulfilled
        // message keeps the view the promise was created with.
        NewM.fulfillPromise(X, Prm->To, TS.Rel);
        emitAdvanced(ThreadEvent::write(WM, X, V), std::move(NewV),
                     std::move(NewM));
      }
    }
  }

  void cas(const Instr &I) {
    VarId X = I.var();
    ReadMode RM = I.readMode();
    WriteMode WM = I.writeMode();
    if (!P.isAtomic(X) || RM == ReadMode::NA || WM == WriteMode::NA) {
      abortStep();
      return;
    }
    Val Expected = I.casExpected()->eval(TS.Local.regs());
    Val Desired = I.casDesired()->eval(TS.Local.regs());

    for (const Message *Msg : M.readable(X, TS.V.rlxAt(X))) {
      if (Msg->Value != Expected) {
        // Failed CAS behaves as a plain read of the chosen message; the
        // result register is set to 0.
        ThreadSuccessor S;
        S.Ev = ThreadEvent::read(RM, X, Msg->Value);
        S.TS = TS;
        applyRead(S.TS, X, RM, I.dest(), 0, *Msg, TrackAcqView);
        S.Mem = M;
        Out.push_back(std::move(S));
        continue;
      }
      // Successful CAS: the new interval's From is forced to the read
      // message's To (§3) — this is what makes two competing CAS exclusive.
      std::optional<Placement> Pl = M.casPlacement(X, Msg->To);
      if (!Pl)
        continue;
      if (WM == WriteMode::REL && M.hasPromiseOn(T, X))
        continue;
      View NewV = TS.V;
      // Read part.
      NewV.joinNaAt(X, Msg->To);
      NewV.joinRlxAt(X, Msg->To);
      if (RM == ReadMode::ACQ)
        NewV.join(Msg->MsgView);
      // Write part.
      NewV.joinNaAt(X, Pl->To);
      NewV.joinRlxAt(X, Pl->To);
      View MsgView = WM == WriteMode::REL ? NewV : TS.Rel;
      Memory NewM = M;
      NewM.insert(
          Message::concrete(X, Desired, Pl->From, Pl->To, std::move(MsgView)));
      ThreadSuccessor S;
      S.Ev = ThreadEvent::update(RM, WM, X, Msg->Value, Desired);
      S.TS.Local = TS.Local;
      S.TS.Local.regs().set(I.dest(), 1);
      S.TS.Local.advance();
      S.TS.V = std::move(NewV);
      S.TS.Acq = TS.Acq;
      if (TrackAcqView && RM == ReadMode::RLX)
        S.TS.Acq.join(Msg->MsgView);
      S.TS.Rel = TS.Rel;
      S.Mem = std::move(NewM);
      Out.push_back(std::move(S));
    }
  }
};

} // namespace

bool stepInPlace(const Program &P, Tid T, ThreadState &TS, const Memory &M,
                 ThreadEvent &Ev, bool TrackAcqView) {
  if (TS.Local.isTerminated())
    return false;
  const Instr *I = TS.Local.currentInstr(P);
  if (!I) {
    // Terminator: a silent control step. applyTerminator leaves the state
    // alone on a control error (the step aborts).
    if (!TS.Local.applyTerminator(P))
      return false;
    Ev = ThreadEvent::tau();
    return true;
  }

  switch (I->kind()) {
  case Instr::Kind::Skip:
    Ev = ThreadEvent::tau();
    break;
  case Instr::Kind::Assign:
    Ev = ThreadEvent::tau();
    TS.Local.regs().set(I->dest(), I->expr()->eval(TS.Local.regs()));
    break;
  case Instr::Kind::Print:
    Ev = ThreadEvent::out(I->expr()->eval(TS.Local.regs()));
    break;
  case Instr::Kind::Load: {
    if (loadAborts(P, *I))
      return false;
    const Message *Msg = M.uniqueReadable(I->var(), readBound(TS.V, *I));
    if (!Msg)
      return false;
    Ev = ThreadEvent::read(I->readMode(), I->var(), Msg->Value);
    applyRead(TS, I->var(), I->readMode(), I->dest(), Msg->Value, *Msg,
              TrackAcqView);
    return true;
  }
  case Instr::Kind::Fence: {
    FenceMode FM = I->fenceMode();
    // Release-side fences require the thread's promise set empty (PS1.0
    // style): a thread may not run ahead of its own unfulfilled promises
    // past a release fence. The step is simply disabled until the promises
    // are fulfilled; certification inherits the rule through this same
    // function, so no thread can *promise* across a release fence either
    // (the certification run could never execute the fence).
    if (fenceHasRel(FM) && M.hasConcretePromises(T))
      return false;
    Ev = ThreadEvent::fence(FM);
    if (fenceHasAcq(FM)) {
      // Publish the banked relaxed-read views into V and reset the bank.
      TS.V.join(TS.Acq);
      TS.Acq = View{};
    }
    if (fenceHasRel(FM))
      TS.Rel = TS.V; // Snapshot for later na/rlx messages and promises.
    break;
  }
  case Instr::Kind::Store:
  case Instr::Kind::Cas:
    return false;
  }
  TS.Local.advance();
  return true;
}

void enumerateProgramSteps(const Program &P, Tid T, const ThreadState &TS,
                           const Memory &M, std::vector<ThreadSuccessor> &Out,
                           bool TrackAcqView) {
  if (TS.Local.isTerminated())
    return;

  StepBuilder B{P, T, TS, M, TrackAcqView, Out};
  const Instr *I = TS.Local.currentInstr(P);
  if (I) {
    switch (I->kind()) {
    case Instr::Kind::Load:
      B.load(*I);
      return;
    case Instr::Kind::Store:
      B.store(*I);
      return;
    case Instr::Kind::Cas:
      B.cas(*I);
      return;
    default:
      break;
    }
  }

  // Skip, assign, print, fences and terminators have at most one successor
  // and leave memory alone: stepInPlace, applied to a copy.
  ThreadSuccessor S;
  S.TS = TS;
  if (stepInPlace(P, T, S.TS, M, S.Ev, TrackAcqView)) {
    S.Mem = M;
    Out.push_back(std::move(S));
  } else if (!I) {
    B.abortStep(); // the terminator's control transfer failed
  }
  // Otherwise a release-side fence waits for the thread's promises.
}

bool programHasAcquireFence(const Program &P) {
  for (const auto &[Name, F] : P.code()) {
    (void)Name;
    for (const auto &[L, B] : F.blocks()) {
      (void)L;
      for (const Instr &I : B.instructions())
        if (I.isFence() && fenceHasAcq(I.fenceMode()))
          return true;
    }
  }
  return false;
}

unsigned enumeratePrcSteps(const Program & /*P*/, Tid T,
                           const ThreadState &TS, const Memory &M,
                           const PromiseDomain &D, const StepConfig &C,
                           std::vector<ThreadSuccessor> &Out,
                           const StoreReach *Reach) {
  if (TS.Local.isTerminated())
    return 0;

  unsigned Promises = 0, Reservations = 0, Skipped = 0;
  for (const Message *Msg : M.promisesOf(T)) {
    if (Msg->isConcrete())
      ++Promises;
    else
      ++Reservations;
  }

  // Promise steps: only na/rlx writes can be promised (§3); the domain D
  // already restricts to na/rlx store targets.
  if (C.EnablePromises && Promises < C.MaxOutstandingPromises) {
    for (VarId X : D.Vars) {
      for (Val V : D.Values) {
        if (Reach && !Reach->canStore(TS.Local, X, V)) {
          ++Skipped;
          continue;
        }
        for (const Placement &Pl :
             M.enumeratePlacements(X, TS.V.rlxAt(X))) {
          // Promised messages carry the thread's release-fence snapshot,
          // matching the view the eventual fulfilling write would attach
          // (Rel is frozen while the promise is outstanding: release
          // fences block on a non-empty promise set).
          Message Msg = Message::concrete(X, V, Pl.From, Pl.To, TS.Rel);
          Msg.Owner = T;
          Msg.IsPromise = true;
          ThreadSuccessor S;
          S.Ev = ThreadEvent::promise(X, V);
          S.TS = TS;
          S.Mem = M;
          S.Mem.insert(Msg);
          Out.push_back(std::move(S));
        }
      }
    }
  }

  if (C.EnableReservations && Reservations < MaxOutstandingReservations) {
    for (const Memory::Loc &L : M.storage()) {
      VarId X = L.var();
      for (const Placement &Pl : M.enumeratePlacements(X, TS.V.rlxAt(X))) {
        ThreadSuccessor S;
        S.Ev = ThreadEvent::reserve(X);
        S.TS = TS;
        S.Mem = M;
        S.Mem.insert(Message::reservation(X, Pl.From, Pl.To, T));
        Out.push_back(std::move(S));
      }
    }
  }

  // Cancel steps are always allowed for own reservations.
  for (const Message *Msg : M.promisesOf(T)) {
    if (!Msg->isReservation())
      continue;
    ThreadSuccessor S;
    S.Ev = ThreadEvent::cancel(Msg->Var);
    S.TS = TS;
    S.Mem = M;
    S.Mem.removeReservation(Msg->Var, Msg->To);
    Out.push_back(std::move(S));
  }
  return Skipped;
}

void StoreReach::Stores::join(const Stores &O) {
  AnyValue.insert(O.AnyValue.begin(), O.AnyValue.end());
  Consts.insert(O.Consts.begin(), O.Consts.end());
  ReachesRet |= O.ReachesRet;
}

void StoreReach::Stores::transfer(const Instr &I) {
  if (I.isFence() && fenceHasRel(I.fenceMode())) {
    *this = Stores{}; // No promise outlives the fence.
  } else if (I.isStore() && I.writeMode() != WriteMode::REL) {
    if (std::optional<Val> V = I.expr()->evalConst())
      Consts.insert({I.var(), *V});
    else
      AnyValue.insert(I.var());
  }
}

StoreReach::StoreReach(const Program &P) {
  // Block-entry facts, solved to a fixpoint across all functions at once
  // (calls make the functions' facts depend on each other, recursively).
  std::map<FuncId, std::map<BlockLabel, Stores>> In;
  auto JoinEntry = [&](Stores &Out, FuncId F, BlockLabel L) {
    auto FIt = In.find(F);
    if (FIt == In.end())
      return;
    auto BIt = FIt->second.find(L);
    if (BIt != FIt->second.end())
      Out.join(BIt->second);
  };
  // The fact at a terminator. Dangling targets and missing callees abort,
  // so they contribute nothing.
  auto AtTerminator = [&](FuncId F, const Terminator &T) {
    Stores Out;
    switch (T.kind()) {
    case Terminator::Kind::Jmp:
      JoinEntry(Out, F, T.target());
      break;
    case Terminator::Kind::Be:
      JoinEntry(Out, F, T.thenTarget());
      JoinEntry(Out, F, T.elseTarget());
      break;
    case Terminator::Kind::Call:
      if (P.hasFunction(T.callee()))
        JoinEntry(Out, T.callee(), P.function(T.callee()).entry());
      // The frame continues at the return label only if the callee returns.
      if (Out.ReachesRet) {
        Out.ReachesRet = false;
        JoinEntry(Out, F, T.target());
      }
      break;
    case Terminator::Kind::Ret:
      Out.ReachesRet = true;
      break;
    }
    return Out;
  };
  auto BlockEntry = [&](FuncId F, const BasicBlock &B) {
    Stores Fact = AtTerminator(F, B.terminator());
    const std::vector<Instr> &Is = B.instructions();
    for (auto It = Is.rbegin(); It != Is.rend(); ++It)
      Fact.transfer(*It);
    return Fact;
  };

  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &[F, Fn] : P.code()) {
      // Labels in reverse: forward jumps then settle in one round.
      for (auto It = Fn.blocks().rbegin(); It != Fn.blocks().rend(); ++It) {
        Stores Fact = BlockEntry(F, It->second);
        Stores &Slot = In[F][It->first];
        if (Slot != Fact) {
          Slot = std::move(Fact);
          Changed = true;
        }
      }
    }
  }

  // Replay each block backward from its terminator, one index per control
  // point; consecutive points without a store or fence share a fact.
  for (const auto &[F, Fn] : P.code()) {
    for (const auto &[L, B] : Fn.blocks()) {
      std::vector<std::uint32_t> &Idx = Points[F][L];
      Idx.resize(B.size() + 1);
      Stores Fact = AtTerminator(F, B.terminator());
      for (std::size_t I = B.size() + 1; I-- > 0;) {
        if (I < B.size())
          Fact.transfer(B.instructions()[I]);
        if (Facts.empty() || Facts.back() != Fact)
          Facts.push_back(Fact);
        Idx[I] = static_cast<std::uint32_t>(Facts.size() - 1);
      }
    }
  }
}

const StoreReach::Stores *StoreReach::at(FuncId F, BlockLabel B,
                                         unsigned Idx) const {
  auto FIt = Points.find(F);
  if (FIt == Points.end())
    return nullptr;
  auto BIt = FIt->second.find(B);
  if (BIt == FIt->second.end())
    return nullptr;
  return &Facts[BIt->second[Idx]];
}

bool StoreReach::canStore(const LocalState &L, VarId X, Val V) const {
  if (L.isTerminated())
    return false;
  const Stores *S = at(L.currentFunc(), L.currentBlock(), L.instrIndex());
  // Walk outward through the call stack while the inner frame can return.
  const std::vector<ReturnPoint> &Stack = L.callStack();
  for (auto It = Stack.rbegin();; ++It) {
    if (!S)
      return false;
    if (S->has(X, V))
      return true;
    if (!S->ReachesRet || It == Stack.rend())
      return false;
    S = at(It->Func, It->Label, 0);
  }
}

bool StoreReach::promisesFulfillable(Tid T, const ThreadState &TS,
                                     const Memory &M) const {
  for (const Memory::Loc &L : M.storage())
    for (const Message &Msg : L.messages())
      if (Msg.Owner == T && Msg.IsPromise && Msg.isConcrete() &&
          (!(Msg.To > TS.V.rlxAt(Msg.Var)) ||
           !canStore(TS.Local, Msg.Var, Msg.Value)))
        return false;
  return true;
}

PromiseDomain computePromiseDomain(const Program &P, FuncId F) {
  PromiseDomain D;
  D.Values.insert(0);
  // Transitive closure over the call graph.
  std::set<FuncId> Seen;
  std::vector<FuncId> Work{F};
  while (!Work.empty()) {
    FuncId Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second || !P.hasFunction(Cur))
      continue;
    for (VarId X : P.promisableVars(Cur))
      D.Vars.insert(X);
    for (Val V : P.storeConstants(Cur))
      D.Values.insert(V);
    for (const auto &[L, B] : P.function(Cur).blocks())
      if (B.terminator().isCall())
        Work.push_back(B.terminator().callee());
  }
  return D;
}

} // namespace psopt
