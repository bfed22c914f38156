//===- lang/Expr.h - CSimpRTL expressions -----------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register/constant expressions of CSimpRTL (Fig 7: Expr ::= r | v | e+e |
/// e-e | e*e, extended with comparisons, see Ops.h). Expressions are
/// immutable trees shared via reference-counted handles; structural
/// equality and hashing make them usable as dataflow facts (CSE's available
/// expressions).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_LANG_EXPR_H
#define PSOPT_LANG_EXPR_H

#include "lang/Ops.h"
#include "support/Symbol.h"

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace psopt {

class Expr;
/// Shared immutable expression handle.
using ExprRef = std::shared_ptr<const Expr>;

/// Thread-local register file: register values, defaulting to 0.
///
/// Stored flat: a vector of (register, value) pairs sorted by register id
/// that holds only nonzero values (writing 0 erases the entry). The
/// representation is therefore canonical — equal files are equal vectors —
/// and a copy is a single allocation, which matters because every thread
/// step copies its register file.
class RegFile {
public:
  /// Reads \p R (0 if never written).
  Val get(RegId R) const {
    auto It = find(R);
    return It != Values.end() && It->first == R ? It->second : 0;
  }
  /// Writes \p V to \p R.
  void set(RegId R, Val V);

  bool operator==(const RegFile &O) const { return Values == O.Values; }
  std::size_t hash() const;
  /// Renders the nonzero registers in register-id order.
  std::string str() const;

private:
  using Entry = std::pair<RegId, Val>;
  std::vector<Entry>::const_iterator find(RegId R) const;

  std::vector<Entry> Values; // sorted by register id, values nonzero
};

/// An immutable expression node.
class Expr {
public:
  enum class Kind : std::uint8_t { Const, Reg, Bin };

  /// Builds the constant \p V.
  static ExprRef makeConst(Val V);
  /// Builds a register reference.
  static ExprRef makeReg(RegId R);
  /// Builds the binary expression \p L op \p R.
  static ExprRef makeBin(BinOp Op, ExprRef L, ExprRef R);

  Kind kind() const { return K; }
  bool isConst() const { return K == Kind::Const; }
  bool isReg() const { return K == Kind::Reg; }
  bool isBin() const { return K == Kind::Bin; }

  /// Constant payload; only valid for Const nodes.
  Val constValue() const;
  /// Register payload; only valid for Reg nodes.
  RegId reg() const;
  /// Operator; only valid for Bin nodes.
  BinOp binOp() const;
  const ExprRef &lhs() const;
  const ExprRef &rhs() const;

  /// Evaluates under register file \p Regs.
  Val eval(const RegFile &Regs) const;

  /// Returns the constant value if the expression contains no registers.
  std::optional<Val> evalConst() const;

  /// Collects all registers mentioned by the expression into \p Out.
  void collectRegs(std::set<RegId> &Out) const;

  /// True if the expression mentions register \p R.
  bool usesReg(RegId R) const;

  /// Structural equality.
  static bool equal(const ExprRef &A, const ExprRef &B);

  /// Structural hash.
  static std::size_t hash(const ExprRef &E);

  /// Rewrites every occurrence of register \p R to expression \p Repl,
  /// returning a new expression (shares unchanged subtrees).
  static ExprRef substReg(const ExprRef &E, RegId R, const ExprRef &Repl);

  /// Constant-folds the expression bottom-up, consulting \p RegConst for
  /// per-register constant facts (return nullopt when unknown). Returns a
  /// possibly simplified expression.
  static ExprRef
  fold(const ExprRef &E,
       const std::function<std::optional<Val>(RegId)> &RegConst);

  /// Renders the expression in source syntax (fully parenthesized).
  std::string str() const;

private:
  Expr(Kind K) : K(K) {}

  Kind K;
  Val CVal = 0;
  RegId R;
  BinOp Op = BinOp::Add;
  ExprRef L, Rhs;
};

} // namespace psopt

#endif // PSOPT_LANG_EXPR_H
