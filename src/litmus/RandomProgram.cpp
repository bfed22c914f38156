//===- litmus/RandomProgram.cpp - Random program generation ---------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "litmus/RandomProgram.h"
#include "lang/Builder.h"

#include <algorithm>
#include <random>

namespace psopt {

namespace {

/// \p Prefix followed by \p I in decimal.
std::string numbered(const char *Prefix, unsigned I) {
  std::string Out = Prefix;
  Out.append(std::to_string(I));
  return Out;
}

/// Per-program generation state.
class Generator {
public:
  explicit Generator(const RandomProgramConfig &C)
      : C(C), Rng(C.Seed), History(C.NumThreads), LoadedRegs(C.NumThreads) {
    for (unsigned I = 0; I < C.NumNaVars; ++I)
      NaVars.push_back(VarId(numbered("d", I)));
    for (unsigned I = 0; I < C.NumAtomicVars; ++I)
      AtomicVars.push_back(VarId(numbered("a", I)));
  }

  Program generate() {
    MpSkeleton = C.NumThreads >= 2 && !NaVars.empty() &&
                 !AtomicVars.empty() && percent(C.MpSkeletonPercent);
    FenceMp = MpSkeleton && percent(C.FenceMpPercent);
    Program P;
    for (VarId A : AtomicVars)
      P.addAtomic(A);
    for (unsigned T = 0; T < C.NumThreads; ++T) {
      FuncId Name(numbered("rt", T));
      P.setFunction(Name, generateThread(T));
      P.addThread(Name);
    }
    return P;
  }

private:
  unsigned pick(unsigned Bound) {
    return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
  }
  bool coin() { return pick(2) == 0; }

  RegId reg(unsigned T, unsigned I) {
    return RegId(numbered("q", T).append("_").append(std::to_string(I)));
  }
  RegId randomReg(unsigned T) { return reg(T, pick(C.NumRegs)); }

  /// A small register/constant expression.
  ExprRef randomExpr(unsigned T) {
    switch (pick(4)) {
    case 0:
      return dsl::cst(static_cast<Val>(pick(3)));
    case 1:
      return dsl::reg(randomReg(T));
    case 2:
      return dsl::add(dsl::reg(randomReg(T)),
                      dsl::cst(static_cast<Val>(pick(3))));
    default:
      return dsl::add(dsl::reg(randomReg(T)), dsl::reg(randomReg(T)));
    }
  }

  bool percent(unsigned P) { return P != 0 && pick(100) < P; }

  ReadMode atomicReadMode() {
    return percent(C.AcqRelPercent) ? ReadMode::ACQ : ReadMode::RLX;
  }
  WriteMode atomicWriteMode() {
    return percent(C.AcqRelPercent) ? WriteMode::REL : WriteMode::RLX;
  }

  /// One random straight-line instruction for thread \p T.
  Instr randomInstr(unsigned T) {
    // Random fences feed fenceweaken: adjacent same-side fences are
    // dominated, fences past the last access are trailing.
    if (percent(C.FencePercent)) {
      static const FenceMode Ms[] = {FenceMode::ACQ, FenceMode::REL,
                                     FenceMode::ACQREL};
      return Instr::makeFence(Ms[pick(3)]);
    }
    // Redundancy: re-issue a recent load into a fresh register or recompute
    // a recent expression, giving CSE/LInv something to eliminate.
    if (!History[T].empty() && percent(C.RedundancyPercent)) {
      const Instr &Old = History[T][pick(
          static_cast<unsigned>(History[T].size()))];
      if (Old.isLoad())
        return Instr::makeLoad(randomReg(T), Old.var(), Old.readMode());
      return Instr::makeAssign(randomReg(T), Old.expr());
    }
    // Weighted choice: memory traffic dominates; CAS weight is a knob.
    // Slots 0-4 are the base kinds (4 = assign); slots >= 5 are CAS.
    unsigned CasW = C.AllowCas ? C.CasWeight : 0;
    unsigned Roll = pick(5 + CasW);
    switch (Roll < 5 ? Roll : 5u) {
    case 0: { // non-atomic load
      VarId X = NaVars[pick(static_cast<unsigned>(NaVars.size()))];
      return remember(T, Instr::makeLoad(randomReg(T), X, ReadMode::NA));
    }
    case 1: { // non-atomic store (restricted to owned vars when exclusive)
      VarId X = naStoreTarget(T);
      return Instr::makeStore(X, randomExpr(T), WriteMode::NA);
    }
    case 2: { // atomic load
      VarId A = AtomicVars[pick(static_cast<unsigned>(AtomicVars.size()))];
      return remember(T, Instr::makeLoad(randomReg(T), A, atomicReadMode()));
    }
    case 3: { // atomic store
      VarId A = AtomicVars[pick(static_cast<unsigned>(AtomicVars.size()))];
      return Instr::makeStore(A, randomExpr(T), atomicWriteMode());
    }
    case 4: // register computation
      return remember(T, Instr::makeAssign(randomReg(T), randomExpr(T)));
    default: { // CAS (weight 0 when disabled, so this arm never fires then)
      VarId A = AtomicVars[pick(static_cast<unsigned>(AtomicVars.size()))];
      return Instr::makeCas(randomReg(T), A,
                            dsl::cst(static_cast<Val>(pick(2))),
                            dsl::cst(static_cast<Val>(pick(3))),
                            atomicReadMode(), atomicWriteMode());
    }
    }
  }

  /// Records redundancy-eligible instructions (loads and assigns) and the
  /// registers that received loaded values (for PrintLoadedRegs).
  Instr remember(unsigned T, Instr I) {
    History[T].push_back(I);
    if (I.isLoad())
      rememberLoadedReg(T, I.dest());
    return I;
  }

  void rememberLoadedReg(unsigned T, RegId R) {
    auto &Regs = LoadedRegs[T];
    if (std::find(Regs.begin(), Regs.end(), R) == Regs.end())
      Regs.push_back(R);
  }

  /// A na variable thread \p T never stores to: loading it anywhere in T is
  /// loop-invariant. Prefers a variable owned by another thread; falls back
  /// to a dedicated never-stored variable.
  VarId invariantLoadVar(unsigned T) {
    if (C.ExclusiveNaWriters)
      for (unsigned I = 0; I < NaVars.size(); ++I)
        if (I % C.NumThreads != T)
          return NaVars[I];
    return VarId("dinv");
  }

  VarId naStoreTarget(unsigned T) {
    if (!C.ExclusiveNaWriters)
      return NaVars[pick(static_cast<unsigned>(NaVars.size()))];
    // Partition variables round-robin over threads; a thread only stores
    // to variables it owns (index ≡ T mod NumThreads). When the thread
    // owns none, fall back to a private dummy variable.
    std::vector<VarId> Owned;
    for (unsigned I = 0; I < NaVars.size(); ++I)
      if (I % C.NumThreads == T)
        Owned.push_back(NaVars[I]);
    if (Owned.empty())
      return VarId(numbered("dpriv", T));
    return Owned[pick(static_cast<unsigned>(Owned.size()))];
  }

  /// Message-passing publisher (thread 0 of the MP skeleton): na payload,
  /// release flag, coin-flip payload overwrite (the overwrite makes the
  /// first store dead under naive liveness — Fig 15's shape), then the
  /// usual random body.
  Function generatePublisher(unsigned T) {
    FunctionBuilder FB;
    FB.startBlock(0);
    FB.store(NaVars[0], dsl::cst(1), WriteMode::NA);
    if (FenceMp) {
      // Fence-based publication: the rel fence snapshots the payload
      // write into Rel, which the relaxed flag store then carries.
      FB.fence(FenceMode::REL);
      FB.store(AtomicVars[0], dsl::cst(1), WriteMode::RLX);
    } else {
      FB.store(AtomicVars[0], dsl::cst(1), WriteMode::REL);
    }
    if (coin())
      FB.store(NaVars[0], dsl::cst(2), WriteMode::NA);
    emitReorderBait(FB, T);
    for (unsigned I = 0; I < C.InstrsPerThread; ++I)
      appendRandom(FB, T);
    emitPrints(FB, T);
    FB.ret();
    return FB.take();
  }

  /// Message-passing reader (thread 1 of the MP skeleton). Straight-line
  /// variant: payload read, acquire flag read, guarded payload re-read —
  /// the load equation across the acquire is exactly what unsafe CSE keeps
  /// (Fig 1's defect, diamond form). Loop variant: the payload is re-read
  /// inside an acquire spin, the loop unsafe LInv/LICM hoist out of
  /// (fig1_acq_src's shape).
  Function generateReader(unsigned T) {
    FunctionBuilder FB;
    VarId D = NaVars[0];
    VarId A = AtomicVars[0];
    RegId Flag = RegId(numbered("qflag", T));
    RegId Post = RegId(numbered("qpost", T));
    if (FenceMp) {
      // Fence-based reader: the relaxed flag read banks the published
      // view into Acq; the second acq fence publishes it into V. That
      // fence is dominated-across-a-load — the verified fenceweaken keeps
      // it, the unsafe twin drops it and the reader goes stale.
      FB.startBlock(0);
      FB.fence(FenceMode::ACQ);
      FB.load(Flag, A, ReadMode::RLX);
      rememberLoadedReg(T, Flag);
      FB.fence(FenceMode::ACQ);
      FB.load(Post, D, ReadMode::NA);
      rememberLoadedReg(T, Post);
      FB.be(dsl::eq(dsl::reg(Flag), dsl::cst(1)), 1, 2);
      FB.startBlock(1);
      for (unsigned I = 0; I < C.InstrsPerThread; ++I)
        appendRandom(FB, T);
      FB.jmp(3);
      FB.startBlock(2).jmp(3);
      FB.startBlock(3);
      emitPrints(FB, T);
      FB.ret();
      return FB.take();
    }
    if (C.AllowLoop && coin()) {
      RegId Iter = RegId(numbered("qiter", T));
      FB.startBlock(0).assign(Iter, 0).jmp(1);
      FB.startBlock(1).be(
          dsl::lt(dsl::reg(Iter), dsl::cst(static_cast<Val>(C.LoopTripCount))),
          2, 4);
      FB.startBlock(2).load(Flag, A, ReadMode::ACQ);
      rememberLoadedReg(T, Flag);
      FB.be(dsl::eq(dsl::reg(Flag), dsl::cst(0)), 2, 3);
      FB.startBlock(3).load(Post, D, ReadMode::NA);
      rememberLoadedReg(T, Post);
      for (unsigned I = 0; I < C.InstrsPerThread; ++I)
        appendRandom(FB, T);
      FB.assign(Iter, dsl::add(dsl::reg(Iter), dsl::cst(1))).jmp(1);
      FB.startBlock(4);
      emitPrints(FB, T);
      FB.ret();
      return FB.take();
    }
    RegId Pre = RegId(numbered("qpre", T));
    FB.startBlock(0);
    FB.load(Pre, D, ReadMode::NA);
    rememberLoadedReg(T, Pre);
    FB.load(Flag, A, ReadMode::ACQ);
    rememberLoadedReg(T, Flag);
    if (percent(C.ReorderBaitPercent)) {
      // Unguarded payload re-read adjacent to the acquire: the pair
      // unsafe reorder hoists across it (Fig 1 as a peephole).
      RegId Hoist = RegId(numbered("qhoist", T));
      FB.load(Hoist, D, ReadMode::NA);
      rememberLoadedReg(T, Hoist);
    }
    FB.be(dsl::eq(dsl::reg(Flag), dsl::cst(1)), 1, 2);
    FB.startBlock(1);
    FB.load(Post, D, ReadMode::NA);
    rememberLoadedReg(T, Post);
    for (unsigned I = 0; I < C.InstrsPerThread; ++I)
      appendRandom(FB, T);
    FB.jmp(3);
    FB.startBlock(2).jmp(3);
    FB.startBlock(3);
    emitPrints(FB, T);
    FB.ret();
    return FB.take();
  }

  Function generateThread(unsigned T) {
    if (MpSkeleton && T == 0)
      return generatePublisher(T);
    if (MpSkeleton && T == 1)
      return generateReader(T);
    FunctionBuilder FB;
    BlockLabel Next = 0;

    // Optional loop skeleton: q_ctr := TripCount; loop body; countdown.
    bool Loop = C.AllowLoop && coin();
    bool Branch = !Loop && C.AllowBranch && coin();
    RegId Ctr = RegId(numbered("qctr", T));

    if (Loop) {
      FB.startBlock(Next).assign(Ctr, static_cast<Val>(C.LoopTripCount));
      FB.jmp(1);
      FB.startBlock(1).be(dsl::lt(dsl::cst(0), dsl::reg(Ctr)), 2, 3);
      FB.startBlock(2);
      if (C.LoopInvariantLoad) {
        RegId Inv = RegId(numbered("qinv", T));
        FB.load(Inv, invariantLoadVar(T), ReadMode::NA);
        rememberLoadedReg(T, Inv);
      }
      for (unsigned I = 0; I < C.InstrsPerThread; ++I)
        appendRandom(FB, T);
      FB.assign(Ctr, dsl::sub(dsl::reg(Ctr), dsl::cst(1))).jmp(1);
      FB.startBlock(3);
      emitPrints(FB, T);
      FB.ret();
      return FB.take();
    }

    if (Branch) {
      FB.startBlock(0);
      unsigned Half = C.InstrsPerThread / 2;
      for (unsigned I = 0; I < Half; ++I)
        appendRandom(FB, T);
      FB.be(dsl::eq(dsl::reg(randomReg(T)), dsl::cst(0)), 1, 2);
      FB.startBlock(1);
      appendRandom(FB, T);
      FB.jmp(3);
      FB.startBlock(2);
      appendRandom(FB, T);
      FB.jmp(3);
      FB.startBlock(3);
      for (unsigned I = Half; I < C.InstrsPerThread; ++I)
        appendRandom(FB, T);
      emitPrints(FB, T);
      FB.ret();
      return FB.take();
    }

    FB.startBlock(0);
    emitReorderBait(FB, T);
    for (unsigned I = 0; I < C.InstrsPerThread; ++I)
      appendRandom(FB, T);
    emitPrints(FB, T);
    FB.ret();
    return FB.take();
  }

  void appendRandom(FunctionBuilder &FB, unsigned T) {
    Instr I = randomInstr(T);
    switch (I.kind()) {
    case Instr::Kind::Load:
      FB.load(I.dest(), I.var(), I.readMode());
      break;
    case Instr::Kind::Store:
      FB.store(I.var(), I.expr(), I.writeMode());
      break;
    case Instr::Kind::Cas:
      FB.cas(I.dest(), I.var(), I.casExpected(), I.casDesired(), I.readMode(),
             I.writeMode());
      break;
    case Instr::Kind::Assign:
      FB.assign(I.dest(), I.expr());
      break;
    case Instr::Kind::Fence:
      FB.fence(I.fenceMode());
      break;
    default:
      FB.skip();
      break;
    }
  }

  /// Reorder's delayed-write bait: an adjacent na-store/na-load pair to
  /// distinct locations at the head of a body — the W;R → R;W direction
  /// the verified pass normalizes.
  void emitReorderBait(FunctionBuilder &FB, unsigned T) {
    if (!percent(C.ReorderBaitPercent) || NaVars.size() < 2)
      return;
    VarId X = naStoreTarget(T);
    VarId Y = NaVars[pick(static_cast<unsigned>(NaVars.size()))];
    if (Y == X)
      Y = NaVars[(std::find(NaVars.begin(), NaVars.end(), X) -
                  NaVars.begin() + 1) %
                 NaVars.size()];
    FB.store(X, randomExpr(T), WriteMode::NA);
    RegId R = RegId(numbered("qbait", T));
    FB.load(R, Y, ReadMode::NA);
    rememberLoadedReg(T, R);
  }

  void emitPrints(FunctionBuilder &FB, unsigned T) {
    // Tag outputs with the thread id so traces identify the printer.
    auto Tagged = [&](RegId R) {
      FB.print(dsl::add(dsl::mul(dsl::reg(R), dsl::cst(10)),
                        dsl::cst(static_cast<Val>(T))));
    };
    if (C.PrintLoadedRegs && !LoadedRegs[T].empty()) {
      for (RegId R : LoadedRegs[T])
        Tagged(R);
      return;
    }
    for (unsigned I = 0; I < C.PrintsPerThread; ++I)
      Tagged(randomReg(T));
  }

  RandomProgramConfig C;
  std::mt19937_64 Rng;
  bool MpSkeleton = false;
  bool FenceMp = false;
  std::vector<std::vector<Instr>> History;    // per-thread, for redundancy
  std::vector<std::vector<RegId>> LoadedRegs; // per-thread load destinations
  std::vector<VarId> NaVars;
  std::vector<VarId> AtomicVars;
};

} // namespace

Program generateRandomProgram(const RandomProgramConfig &C) {
  Generator G(C);
  return G.generate();
}

} // namespace psopt
