//===- ps/LocalState.h - Thread-local control state -------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-local state σ of Fig 8: a register file plus a control point
/// (current function, block, instruction index) and a call stack of return
/// points. Also provides nxt(σ) (Fig 11) — the next operation a thread
/// would perform — used by the race detectors.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_LOCALSTATE_H
#define PSOPT_PS_LOCALSTATE_H

#include "lang/Program.h"

#include <optional>

namespace psopt {

/// A return point on the call stack: resume in \p Func at block \p Label.
struct ReturnPoint {
  FuncId Func;
  BlockLabel Label;
  bool operator==(const ReturnPoint &O) const {
    return Func == O.Func && Label == O.Label;
  }
};

/// σ: registers plus control.
class LocalState {
public:
  /// Starts execution of function \p F. Returns nullopt if \p F or its
  /// entry block is missing (Init failure).
  static std::optional<LocalState> start(const Program &P, FuncId F);

  bool isTerminated() const { return Terminated; }

  const RegFile &regs() const { return Regs; }
  RegFile &regs() { return Regs; }

  FuncId currentFunc() const { return CurFunc; }
  BlockLabel currentBlock() const { return CurBlock; }
  unsigned instrIndex() const { return InstrIdx; }
  const std::vector<ReturnPoint> &callStack() const { return Stack; }

  /// The instruction at the control point, or null when the control point
  /// sits on the block terminator (or the thread has terminated).
  const Instr *currentInstr(const Program &P) const;

  /// The terminator at the control point; only valid when currentInstr is
  /// null and the thread is live.
  const Terminator &currentTerminator(const Program &P) const;

  /// Advances past the current instruction.
  void advance() { ++InstrIdx; }

  /// Executes the current terminator (control transfer only; `be` evaluates
  /// its condition against the register file). Returns false on a dynamic
  /// control error (missing block/function) — the thread aborts — and
  /// then leaves the state unchanged.
  bool applyTerminator(const Program &P);

  /// Collapses a terminated state onto its canonical representative: the
  /// residual registers, control point and call stack of a terminated
  /// thread are unreadable (no step relation consults them), so states
  /// differing only there are observationally equal. No-op on live
  /// threads. Used by the explorer's reduction layer (explore/Reduction.h).
  void collapseTerminated();

  bool operator==(const LocalState &O) const;
  std::size_t hash() const;
  std::string str() const;

private:
  RegFile Regs;
  FuncId CurFunc;
  BlockLabel CurBlock = 0;
  unsigned InstrIdx = 0;
  std::vector<ReturnPoint> Stack;
  bool Terminated = false;
};

} // namespace psopt

#endif // PSOPT_PS_LOCALSTATE_H
