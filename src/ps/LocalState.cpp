//===- ps/LocalState.cpp - Thread-local control state ----------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/LocalState.h"
#include "support/Debug.h"
#include "support/Hashing.h"

namespace psopt {

std::optional<LocalState> LocalState::start(const Program &P, FuncId F) {
  if (!P.hasFunction(F))
    return std::nullopt;
  const Function &Fn = P.function(F);
  if (!Fn.hasBlock(Fn.entry()))
    return std::nullopt;
  LocalState L;
  L.CurFunc = F;
  L.CurBlock = Fn.entry();
  L.InstrIdx = 0;
  return L;
}

const Instr *LocalState::currentInstr(const Program &P) const {
  if (Terminated)
    return nullptr;
  const BasicBlock &B = P.function(CurFunc).block(CurBlock);
  if (InstrIdx < B.size())
    return &B.instructions()[InstrIdx];
  return nullptr;
}

const Terminator &LocalState::currentTerminator(const Program &P) const {
  PSOPT_CHECK(!Terminated, "terminator of a terminated thread");
  const BasicBlock &B = P.function(CurFunc).block(CurBlock);
  PSOPT_CHECK(InstrIdx >= B.size(), "control point not at terminator");
  return B.terminator();
}

bool LocalState::applyTerminator(const Program &P) {
  const Terminator &T = currentTerminator(P);
  const Function &Fn = P.function(CurFunc);
  switch (T.kind()) {
  case Terminator::Kind::Jmp:
    if (!Fn.hasBlock(T.target()))
      return false;
    CurBlock = T.target();
    InstrIdx = 0;
    return true;
  case Terminator::Kind::Be: {
    Val C = T.cond()->eval(Regs);
    BlockLabel Target = (C != 0) ? T.thenTarget() : T.elseTarget();
    if (!Fn.hasBlock(Target))
      return false;
    CurBlock = Target;
    InstrIdx = 0;
    return true;
  }
  case Terminator::Kind::Call: {
    if (!P.hasFunction(T.callee()))
      return false;
    const Function &Callee = P.function(T.callee());
    if (!Callee.hasBlock(Callee.entry()))
      return false;
    Stack.push_back(ReturnPoint{CurFunc, T.target()});
    CurFunc = T.callee();
    CurBlock = Callee.entry();
    InstrIdx = 0;
    return true;
  }
  case Terminator::Kind::Ret:
    if (Stack.empty()) {
      Terminated = true;
      return true;
    }
    {
      ReturnPoint RP = Stack.back();
      if (!P.hasFunction(RP.Func) || !P.function(RP.Func).hasBlock(RP.Label))
        return false;
      Stack.pop_back();
      CurFunc = RP.Func;
      CurBlock = RP.Label;
      InstrIdx = 0;
    }
    return true;
  }
  PSOPT_UNREACHABLE("bad terminator kind");
}

void LocalState::collapseTerminated() {
  if (!Terminated)
    return;
  Regs = RegFile{};
  CurBlock = 0;
  InstrIdx = 0;
  Stack.clear();
}

bool LocalState::operator==(const LocalState &O) const {
  return Terminated == O.Terminated && CurFunc == O.CurFunc &&
         CurBlock == O.CurBlock && InstrIdx == O.InstrIdx &&
         Stack == O.Stack && Regs == O.Regs;
}

std::size_t LocalState::hash() const {
  std::size_t Seed = Regs.hash();
  hashCombineValue(Seed, CurFunc.raw());
  hashCombineValue(Seed, CurBlock);
  hashCombineValue(Seed, InstrIdx);
  hashCombineValue(Seed, Terminated);
  for (const ReturnPoint &RP : Stack) {
    hashCombineValue(Seed, RP.Func.raw());
    hashCombineValue(Seed, RP.Label);
  }
  return hashFinalize(Seed);
}

std::string LocalState::str() const {
  if (Terminated)
    return "<terminated " + Regs.str() + ">";
  return "<" + CurFunc.str() + ":" + std::to_string(CurBlock) + ":" +
         std::to_string(InstrIdx) + " " + Regs.str() + ">";
}

} // namespace psopt
