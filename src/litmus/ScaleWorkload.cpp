//===- litmus/ScaleWorkload.cpp - Scale benchmark workloads ---------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "litmus/ScaleWorkload.h"
#include "lang/Builder.h"

#include <random>
#include <vector>

namespace psopt {

namespace {

/// Per-generation state: the conflict skeletons are dealt onto adjacent
/// thread pairs first, then each thread body is emitted as filler segments
/// around its share of the skeleton accesses.
class ScaleGenerator {
public:
  explicit ScaleGenerator(const ScaleWorkloadConfig &C)
      : C(C), N(C.NumThreads < 2 ? 2 : C.NumThreads > 16 ? 16 : C.NumThreads),
        Rng(C.Seed), CommOps(N), CommRegs(N) {}

  Program generate() {
    Program P;
    dealSkeletons(P);
    for (unsigned T = 0; T < N; ++T) {
      FuncId Name("st" + std::to_string(T));
      P.setFunction(Name, generateThread(T));
      P.addThread(Name);
    }
    return P;
  }

private:
  unsigned pick(unsigned Bound) {
    return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
  }

  ScaleWorkloadConfig::Mix shapeOf(unsigned S) const {
    using Mix = ScaleWorkloadConfig::Mix;
    if (C.Shape != Mix::Mixed)
      return C.Shape;
    switch (S % 3) {
    case 0:
      return Mix::MP;
    case 1:
      return Mix::SB;
    default:
      return Mix::LB;
    }
  }

  RegId commReg(unsigned T) {
    RegId R("qc" + std::to_string(T) + "_" +
            std::to_string(CommRegs[T].size()));
    CommRegs[T].push_back(R);
    return R;
  }

  /// Assigns skeleton \p S's accesses to its two threads, in program order.
  void dealSkeletons(Program &P) {
    using Mix = ScaleWorkloadConfig::Mix;
    for (unsigned S = 0; S < C.Skeletons; ++S) {
      unsigned A = S % N, B = (S + 1) % N;
      VarId AX("ax" + std::to_string(S)), AY("ay" + std::to_string(S));
      VarId D("dp" + std::to_string(S)); // na payload, written only by A
      switch (shapeOf(S)) {
      case Mix::MP:
        P.addAtomic(AY);
        CommOps[A].push_back(Instr::makeStore(D, dsl::cst(1), WriteMode::NA));
        CommOps[A].push_back(
            Instr::makeStore(AY, dsl::cst(1), WriteMode::REL));
        CommOps[B].push_back(Instr::makeLoad(commReg(B), AY, ReadMode::ACQ));
        CommOps[B].push_back(Instr::makeLoad(commReg(B), D, ReadMode::NA));
        break;
      case Mix::SB:
        P.addAtomic(AX);
        P.addAtomic(AY);
        CommOps[A].push_back(
            Instr::makeStore(AX, dsl::cst(1), WriteMode::RLX));
        CommOps[A].push_back(Instr::makeLoad(commReg(A), AY, ReadMode::RLX));
        CommOps[B].push_back(
            Instr::makeStore(AY, dsl::cst(1), WriteMode::RLX));
        CommOps[B].push_back(Instr::makeLoad(commReg(B), AX, ReadMode::RLX));
        break;
      case Mix::LB:
      case Mix::Mixed: // unreachable: shapeOf never returns Mixed
        P.addAtomic(AX);
        P.addAtomic(AY);
        CommOps[A].push_back(Instr::makeLoad(commReg(A), AX, ReadMode::RLX));
        CommOps[A].push_back(
            Instr::makeStore(AY, dsl::cst(1), WriteMode::RLX));
        CommOps[B].push_back(Instr::makeLoad(commReg(B), AY, ReadMode::RLX));
        CommOps[B].push_back(
            Instr::makeStore(AX, dsl::cst(1), WriteMode::RLX));
        break;
      }
    }
  }

  RegId fillerReg(unsigned T) {
    return RegId("qf" + std::to_string(T) + "_" + std::to_string(pick(3)));
  }

  /// One fusible thread-local instruction: register arithmetic or a load
  /// of the shared never-written variable (exclusive for every thread).
  void emitFiller(FunctionBuilder &FB, unsigned T) {
    switch (pick(3)) {
    case 0: {
      RegId R = fillerReg(T);
      FB.assign(R, dsl::add(dsl::reg(R), dsl::cst(1)));
      break;
    }
    case 1:
      FB.assign(fillerReg(T), dsl::cst(static_cast<Val>(pick(4))));
      break;
    default:
      FB.load(fillerReg(T), VarId("ro"), ReadMode::NA);
      break;
    }
  }

  void emitComm(FunctionBuilder &FB, const Instr &I) {
    if (I.isLoad())
      FB.load(I.dest(), I.var(), I.readMode());
    else
      FB.store(I.var(), I.expr(), I.writeMode());
  }

  Function generateThread(unsigned T) {
    FunctionBuilder FB;
    FB.startBlock(0);
    const std::vector<Instr> &Ops = CommOps[T];
    // Split the filler budget into |Ops| + 1 segments so the conflicting
    // accesses sit in the middle of long fusible runs.
    unsigned Segments = static_cast<unsigned>(Ops.size()) + 1;
    unsigned Base = C.FillerPerThread / Segments;
    unsigned Extra = C.FillerPerThread % Segments;
    unsigned PvBase = C.PrivateStoresPerThread / Segments;
    unsigned PvExtra = C.PrivateStoresPerThread % Segments;
    VarId Pv("pv" + std::to_string(T));
    unsigned PvVal = 0;
    for (unsigned S = 0; S < Segments; ++S) {
      unsigned Len = Base + (S < Extra ? 1 : 0);
      for (unsigned I = 0; I < Len; ++I)
        emitFiller(FB, T);
      // Private stores ride along after the register filler: memory
      // steps no peer reads or writes, fusible only with analysis facts.
      unsigned PvLen = PvBase + (S < PvExtra ? 1 : 0);
      for (unsigned I = 0; I < PvLen; ++I)
        FB.store(Pv, dsl::cst(static_cast<Val>(++PvVal)), WriteMode::NA);
      if (S < Ops.size())
        emitComm(FB, Ops[S]);
    }
    // Print what the thread observed: conflict-load results carry the
    // schedule-dependent behavior into the trace.
    unsigned Printed = 0;
    for (RegId R : CommRegs[T]) {
      if (Printed++ >= C.PrintsPerThread)
        break;
      FB.print(dsl::add(dsl::mul(dsl::reg(R), dsl::cst(10)),
                        dsl::cst(static_cast<Val>(T))));
    }
    if (Printed == 0 && C.PrintsPerThread > 0)
      FB.print(dsl::cst(static_cast<Val>(T)));
    FB.ret();
    return FB.take();
  }

  ScaleWorkloadConfig C;
  unsigned N;
  std::mt19937_64 Rng;
  std::vector<std::vector<Instr>> CommOps; // per-thread conflict accesses
  std::vector<std::vector<RegId>> CommRegs; // per-thread conflict-load dests
};

} // namespace

Program generateScaleWorkload(const ScaleWorkloadConfig &C) {
  ScaleGenerator G(C);
  return G.generate();
}

std::string scaleWorkloadTag(const ScaleWorkloadConfig &C) {
  using Mix = ScaleWorkloadConfig::Mix;
  const char *Shape = C.Shape == Mix::MP   ? "mp"
                      : C.Shape == Mix::SB ? "sb"
                      : C.Shape == Mix::LB ? "lb"
                                           : "mixed";
  std::string Tag = "t";
  Tag.append(std::to_string(C.NumThreads)).append("_f");
  Tag.append(std::to_string(C.FillerPerThread)).append("_s");
  Tag.append(std::to_string(C.Skeletons)).append("_").append(Shape);
  if (C.PrivateStoresPerThread > 0)
    Tag.append("_w").append(std::to_string(C.PrivateStoresPerThread));
  return Tag;
}

} // namespace psopt
