//===- sim/SimChecker.cpp - Thread-local simulation checking --------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "sim/SimChecker.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <unordered_map>

namespace psopt {

namespace {

/// One product configuration of the game. EnvMask records which environment
/// actions have already fired (each action models "the other thread writes
/// v to x at some point" and fires at most once, keeping the graph finite).
struct SimNode {
  ThreadState TSt;
  Memory Mt;
  ThreadState TSs;
  Memory Ms;
  TimestampMap Phi;
  DelayedWrites D;
  bool SwitchAllowed = true;
  std::uint32_t EnvMask = 0;

  bool operator==(const SimNode &O) const {
    return SwitchAllowed == O.SwitchAllowed && EnvMask == O.EnvMask &&
           TSt == O.TSt && TSs == O.TSs && Mt == O.Mt && Ms == O.Ms &&
           Phi == O.Phi && D == O.D;
  }

  std::size_t hash() const {
    std::size_t Seed = TSt.hash();
    hashCombine(Seed, TSs.hash());
    hashCombine(Seed, Mt.hash());
    hashCombine(Seed, Ms.hash());
    hashCombine(Seed, Phi.hash());
    hashCombine(Seed, D.hash());
    hashCombineValue(Seed, SwitchAllowed);
    hashCombineValue(Seed, EnvMask);
    return hashFinalize(Seed);
  }
};

struct SimNodeHash {
  std::size_t operator()(const SimNode &N) const { return N.hash(); }
};

/// Finds the To-timestamp of the message that became a concrete,
/// non-promise write going from \p Before to \p After on location \p X.
std::optional<Time> newlyWrittenTo(const Memory &Before, const Memory &After,
                                   VarId X) {
  for (const Message &M : After.messages(X)) {
    if (!M.isConcrete() || M.IsPromise)
      continue;
    const Message *Old = Before.find(X, M.To);
    if (!Old || (Old->isConcrete() && Old->IsPromise))
      return M.To;
  }
  return std::nullopt;
}

/// Finds the To of a message that is newly present (promise or concrete).
std::optional<Time> newlyPresentTo(const Memory &Before, const Memory &After,
                                   VarId X) {
  for (const Message &M : After.messages(X))
    if (!Before.find(X, M.To))
      return M.To;
  return std::nullopt;
}

/// An intermediate source state during a response.
struct SrcState {
  ThreadState TSs;
  Memory Ms;
  TimestampMap Phi;
  DelayedWrites D;
};

class Checker {
public:
  Checker(const Program &Tgt, const Program &Src, const Invariant &I,
          const std::vector<EnvAction> &Env, const SimConfig &C)
      : Tgt(Tgt), Src(Src), Inv(I), Env(Env), Cfg(C),
        Atomics(Tgt.atomics()),
        TrackAcqView(programHasAcquireFence(Tgt) ||
                     programHasAcquireFence(Src)) {}

  SimResult run(FuncId F) {
    SimResult R;

    // Initial configurations (Def 6.1): both sides at f's entry, bottom
    // views, equal initial memories over the union of both programs' and
    // the environment's locations, φ0, empty D, switch allowed.
    std::set<VarId> Vars = Tgt.referencedVars();
    for (VarId X : Src.referencedVars())
      Vars.insert(X);
    for (VarId X : Atomics)
      Vars.insert(X);
    for (const EnvAction &A : Env)
      Vars.insert(A.Var);

    auto LT = LocalState::start(Tgt, F);
    auto LS = LocalState::start(Src, F);
    if (!LT || !LS) {
      R.FailReason = "Init failed for " + F.str();
      return R;
    }

    SimNode Init;
    Init.TSt.Local = std::move(*LT);
    Init.TSs.Local = std::move(*LS);
    Init.Mt = Memory::initial(Vars);
    Init.Ms = Init.Mt;
    Init.Phi = TimestampMap::initial(Init.Mt);

    if (Cfg.TargetPromises)
      TgtDomain = computePromiseDomain(Tgt, F);
    SrcDomain = computePromiseDomain(Src, F);

    bool Ok = check(Init);
    R.Holds = Ok;
    // A cut configuration counts as bad, so a cut can only turn a verdict
    // into a refutation, and every failure reported after it may stem
    // from it.
    R.Bounded = !Ok && BudgetHit;
    if (!Ok && !BudgetHit)
      R.FailReason = FirstFail;
    R.ConfigsVisited = Memo.size();
    return R;
  }

private:
  enum class Status : std::uint8_t { InProgress, Good, Bad };

  bool fail(const std::string &Why) {
    if (FirstFail.empty())
      FirstFail = Why;
    return false;
  }

  bool check(const SimNode &N) {
    auto It = Memo.find(N);
    if (It != Memo.end())
      return It->second != Status::Bad; // InProgress: coinductive yes.
    if (Memo.size() >= Cfg.MaxConfigs) {
      BudgetHit = true;
      return false;
    }
    auto [Slot, Inserted] = Memo.emplace(N, Status::InProgress);
    bool Ok = evaluate(N);
    Slot->second = Ok ? Status::Good : Status::Bad;
    return Ok;
  }

  bool evaluate(const SimNode &N) {
    // Switch point obligations: the invariant holds and every legal
    // environment move leads to a good configuration.
    if (N.SwitchAllowed) {
      if (!Inv.holds(N.Phi, N.Mt, N.Ms, Atomics))
        return fail("invariant " + std::string(Inv.name()) +
                    " broken at a switch point\nphi=" + N.Phi.str());
      for (std::size_t A = 0; A < Env.size(); ++A) {
        if (N.EnvMask & (1u << A))
          continue;
        SimNode E = applyEnv(N, A);
        // An env move that breaks I is outside Rely: not adversarial.
        if (!Inv.holds(E.Phi, E.Mt, E.Ms, Atomics))
          continue;
        if (!check(E))
          return fail("environment action '" + Env[A].Name +
                      "' leads to a refuted configuration");
      }
    }

    // Terminal target: the source must be able to terminate as well, with
    // no delayed writes left and the invariant restored.
    if (N.TSt.Local.isTerminated())
      return matchTermination(N);

    std::vector<ThreadSuccessor> TgtSteps;
    enumerateProgramSteps(Tgt, 0, N.TSt, N.Mt, TgtSteps, TrackAcqView);
    if (Cfg.TargetPromises) {
      StepConfig SC;
      SC.EnablePromises = true;
      enumeratePrcSteps(Tgt, 0, N.TSt, N.Mt, TgtDomain, SC, TgtSteps);
    }

    for (ThreadSuccessor &TS : TgtSteps) {
      if (TS.Abort)
        return fail("target step aborts");
      if (!matchTargetStep(N, TS))
        return false;
    }
    return true;
  }

  SimNode applyEnv(const SimNode &N, std::size_t A) const {
    const EnvAction &Act = Env[A];
    SimNode E = N;
    E.EnvMask |= (1u << A);
    auto Append = [&](Memory &M, bool Tight) {
      const Time Last = M.messages(Act.Var).back().To;
      const Time From = Tight ? Last : Last + Time(1);
      M.insert(
          Message::concrete(Act.Var, Act.Value, From, From + Time(1), View{}));
      return From + Time(1);
    };
    Time TgtTo = Append(E.Mt, false);
    Time SrcTo = Append(E.Ms, Act.TightOnSource);
    E.Phi.bind(Act.Var, TgtTo, SrcTo);
    return E;
  }

  bool matchTermination(const SimNode &N) {
    for (const SrcState &S : sourceClosure(N)) {
      if (!S.TSs.Local.isTerminated() || !S.D.empty())
        continue;
      if (!Inv.holds(S.Phi, N.Mt, S.Ms, Atomics))
        continue;
      return true;
    }
    return fail("source cannot terminate to match the target (D=" +
                N.D.str() + ")");
  }

  /// All source states reachable by ≤ MaxSourceSteps non-atomic steps,
  /// with delayed-write bookkeeping applied. Index 0 is the empty prefix.
  std::vector<SrcState> sourceClosure(const SimNode &N) const {
    std::vector<SrcState> Out;
    Out.push_back(SrcState{N.TSs, N.Ms, N.Phi, N.D});
    std::size_t Frontier = 0;
    for (unsigned Depth = 0; Depth < Cfg.MaxSourceSteps; ++Depth) {
      std::size_t End = Out.size();
      for (std::size_t I = Frontier; I < End; ++I) {
        SrcState Cur = Out[I]; // copy: Out may reallocate
        std::vector<ThreadSuccessor> Steps;
        enumerateProgramSteps(Src, 0, Cur.TSs, Cur.Ms, Steps, TrackAcqView);
        for (ThreadSuccessor &S : Steps) {
          if (S.Abort || !S.Ev.isNA())
            continue;
          SrcState Next;
          Next.TSs = std::move(S.TS);
          Next.Phi = Cur.Phi;
          Next.D = Cur.D;
          applySrcWriteBookkeeping(Cur.Ms, S.Mem, S.Ev, N.Mt, Next);
          Next.Ms = std::move(S.Mem);
          Out.push_back(std::move(Next));
        }
      }
      Frontier = End;
      if (Frontier == Out.size())
        break;
    }
    return Out;
  }

  /// (src-D): if the step wrote x non-atomically and a delayed item on x
  /// with a matching value exists, discharge it and extend φ.
  void applySrcWriteBookkeeping(const Memory &MsBefore, const Memory &MsAfter,
                                const ThreadEvent &Ev, const Memory &Mt,
                                SrcState &Next) const {
    if (Ev.K != ThreadEvent::Kind::Write || Ev.WM != WriteMode::NA)
      return;
    auto SrcTo = newlyWrittenTo(MsBefore, MsAfter, Ev.Var);
    if (!SrcTo)
      return;
    auto Front = Next.D.frontFor(Ev.Var);
    if (!Front)
      return; // A source-only (dead) write: no target counterpart.
    const Message *TgtMsg = Mt.findConcrete(Ev.Var, Front->first);
    if (!TgtMsg || TgtMsg->Value != Ev.WrittenVal)
      return; // Value mismatch: this write is not the delayed one.
    // Fulfilled promises were already φ-bound at promise time (Fig 14c);
    // a write may only discharge the delayed item if the mapping agrees.
    if (auto Existing = Next.Phi.get(Ev.Var, Front->first)) {
      if (!(*Existing == *SrcTo))
        return;
    } else {
      Next.Phi.bind(Ev.Var, Front->first, *SrcTo);
    }
    Next.D.discharge(Ev.Var, Front->first);
  }

  bool matchTargetStep(const SimNode &N, ThreadSuccessor &TS) {
    const ThreadEvent &Ev = TS.Ev;

    // Build the post-target-step base node (source untouched yet).
    SimNode Base = N;
    Base.TSt = TS.TS;
    Base.Mt = TS.Mem;

    if (Ev.isPRC())
      return matchPrc(N, TS, Base);

    // (tgt-D): a target na write enters the delayed set.
    if (Ev.K == ThreadEvent::Kind::Write && Ev.WM == WriteMode::NA) {
      auto TgtTo = newlyWrittenTo(N.Mt, TS.Mem, Ev.Var);
      if (!TgtTo)
        return fail("cannot identify the target's written message");
      Base.D.add(Ev.Var, *TgtTo, Cfg.DelayFuel);
    }

    if (Ev.isNA()) {
      // Fig 14(a): source answers with na* steps; remaining delayed
      // indices must strictly decrease; the switch bit closes.
      for (const SrcState &S : sourceClosure(SimNode{
               Base.TSt, Base.Mt, N.TSs, N.Ms, Base.Phi, Base.D,
               Base.SwitchAllowed, Base.EnvMask})) {
        SimNode Next = Base;
        Next.TSs = S.TSs;
        Next.Ms = S.Ms;
        Next.Phi = S.Phi;
        Next.D = S.D;
        if (!Next.D.decrementAll())
          continue; // Fuel exhausted along this response.
        Next.SwitchAllowed = false;
        if (check(Next))
          return true;
      }
      return fail("no source response for target NA step " + Ev.str());
    }

    // Fig 14(b) / out: na* prefix then the same event; D empty after.
    for (const SrcState &S : sourceClosure(SimNode{
             Base.TSt, Base.Mt, N.TSs, N.Ms, Base.Phi, Base.D,
             Base.SwitchAllowed, Base.EnvMask})) {
      std::vector<ThreadSuccessor> Steps;
      enumerateProgramSteps(Src, 0, S.TSs, S.Ms, Steps, TrackAcqView);
      for (ThreadSuccessor &SS : Steps) {
        if (SS.Abort || !sameEvent(Ev, SS.Ev))
          continue;
        SimNode Next = Base;
        Next.TSs = std::move(SS.TS);
        Next.Phi = S.Phi;
        Next.D = S.D;
        if (!Next.D.empty())
          continue; // Fig 14(b): delayed writes must be drained.
        // Extend φ with the new message pair for writes/updates.
        if (Ev.K == ThreadEvent::Kind::Write ||
            Ev.K == ThreadEvent::Kind::Update) {
          auto TgtTo = newlyWrittenTo(N.Mt, Base.Mt, Ev.Var);
          auto SrcTo = newlyWrittenTo(S.Ms, SS.Mem, Ev.Var);
          if (!TgtTo || !SrcTo)
            continue;
          if (auto Existing = Next.Phi.get(Ev.Var, *TgtTo)) {
            if (!(*Existing == *SrcTo))
              continue; // Disagrees with the promise-time binding.
          } else {
            Next.Phi.bind(Ev.Var, *TgtTo, *SrcTo);
          }
        }
        Next.Ms = std::move(SS.Mem);
        Next.SwitchAllowed = true;
        if (check(Next))
          return true;
      }
    }
    return fail("no source response for target AT step " + Ev.str());
  }

  bool matchPrc(const SimNode &N, ThreadSuccessor &TS, SimNode &Base) {
    const ThreadEvent &Ev = TS.Ev;
    // Fig 14(c): the source performs the corresponding PRC step; the
    // switch bit stays open and I is re-checked on entry to the successor.
    StepConfig SC;
    SC.EnablePromises = true;
    SC.EnableReservations = true;
    std::vector<ThreadSuccessor> Steps;
    enumeratePrcSteps(Src, 0, N.TSs, N.Ms, SrcDomain, SC, Steps);
    for (ThreadSuccessor &SS : Steps) {
      if (SS.Ev.K != Ev.K || !(SS.Ev.Var == Ev.Var) ||
          SS.Ev.WrittenVal != Ev.WrittenVal)
        continue;
      SimNode Next = Base;
      Next.TSs = std::move(SS.TS);
      if (Ev.K == ThreadEvent::Kind::Promise) {
        auto TgtTo = newlyPresentTo(N.Mt, Base.Mt, Ev.Var);
        auto SrcTo = newlyPresentTo(N.Ms, SS.Mem, Ev.Var);
        if (!TgtTo || !SrcTo)
          continue;
        Next.Phi.bind(Ev.Var, *TgtTo, *SrcTo);
      }
      Next.Ms = std::move(SS.Mem);
      Next.SwitchAllowed = true;
      if (check(Next))
        return true;
    }
    return fail("no source response for target PRC step " + Ev.str());
  }

  static bool sameEvent(const ThreadEvent &A, const ThreadEvent &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case ThreadEvent::Kind::Out:
      return A.OutVal == B.OutVal;
    case ThreadEvent::Kind::Read:
      return A.RM == B.RM && A.Var == B.Var && A.ReadVal == B.ReadVal;
    case ThreadEvent::Kind::Write:
      return A.WM == B.WM && A.Var == B.Var && A.WrittenVal == B.WrittenVal;
    case ThreadEvent::Kind::Update:
      return A.RM == B.RM && A.WM == B.WM && A.Var == B.Var &&
             A.ReadVal == B.ReadVal && A.WrittenVal == B.WrittenVal;
    case ThreadEvent::Kind::Fence:
      return A.FM == B.FM;
    default:
      return false;
    }
  }

  const Program &Tgt;
  const Program &Src;
  const Invariant &Inv;
  const std::vector<EnvAction> &Env;
  SimConfig Cfg;
  std::set<VarId> Atomics;
  // Both sides must step under the same view-tracking regime, or a fence
  // on one side would (not) bank acquire views the other side does.
  bool TrackAcqView;
  PromiseDomain TgtDomain, SrcDomain;
  std::unordered_map<SimNode, Status, SimNodeHash> Memo;
  std::string FirstFail;
  bool BudgetHit = false;
};

} // namespace

SimResult checkThreadSimulation(const Program &Tgt, const Program &Src,
                                FuncId F, const Invariant &I,
                                const std::vector<EnvAction> &Env,
                                const SimConfig &C) {
  PSOPT_CHECK(Env.size() <= 32, "at most 32 environment actions");
  Checker Ch(Tgt, Src, I, Env, C);
  return Ch.run(F);
}

} // namespace psopt
