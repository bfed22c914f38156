//===- lang/Expr.cpp - CSimpRTL expressions ------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "lang/Expr.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>

namespace psopt {

static bool entryBefore(const std::pair<RegId, Val> &E, RegId Key) {
  return E.first < Key;
}

std::vector<RegFile::Entry>::const_iterator RegFile::find(RegId R) const {
  return std::lower_bound(Values.begin(), Values.end(), R, entryBefore);
}

void RegFile::set(RegId R, Val V) {
  auto It = std::lower_bound(Values.begin(), Values.end(), R, entryBefore);
  bool Present = It != Values.end() && It->first == R;
  if (V == 0) {
    if (Present)
      Values.erase(It);
  } else if (Present) {
    It->second = V;
  } else {
    Values.insert(It, Entry(R, V));
  }
}

std::size_t RegFile::hash() const {
  // Xor of per-entry hashes: the order-independent combination a hash-map
  // file needed, kept so that state hashes (and UniqueStates, which counts
  // distinct ones) do not depend on the register-file representation.
  std::size_t H = 0;
  for (const auto &[R, V] : Values) {
    std::size_t Mix = 0;
    hashCombineValue(Mix, R.raw());
    hashCombineValue(Mix, V);
    H ^= hashFinalize(Mix);
  }
  return H;
}

std::string RegFile::str() const {
  std::string Out = "{";
  for (const auto &[R, V] : Values) {
    if (Out.size() > 1)
      Out += ", ";
    Out += R.str() + "=" + std::to_string(V);
  }
  Out += "}";
  return Out;
}

ExprRef Expr::makeConst(Val V) {
  auto E = std::shared_ptr<Expr>(new Expr(Kind::Const));
  E->CVal = V;
  return E;
}

ExprRef Expr::makeReg(RegId R) {
  auto E = std::shared_ptr<Expr>(new Expr(Kind::Reg));
  E->R = R;
  return E;
}

ExprRef Expr::makeBin(BinOp Op, ExprRef L, ExprRef R) {
  PSOPT_CHECK(L && R, "binary expression with null operand");
  auto E = std::shared_ptr<Expr>(new Expr(Kind::Bin));
  E->Op = Op;
  E->L = std::move(L);
  E->Rhs = std::move(R);
  return E;
}

Val Expr::constValue() const {
  PSOPT_CHECK(isConst(), "constValue on non-constant");
  return CVal;
}

RegId Expr::reg() const {
  PSOPT_CHECK(isReg(), "reg on non-register");
  return R;
}

BinOp Expr::binOp() const {
  PSOPT_CHECK(isBin(), "binOp on non-binary");
  return Op;
}

const ExprRef &Expr::lhs() const {
  PSOPT_CHECK(isBin(), "lhs on non-binary");
  return L;
}

const ExprRef &Expr::rhs() const {
  PSOPT_CHECK(isBin(), "rhs on non-binary");
  return Rhs;
}

Val Expr::eval(const RegFile &Regs) const {
  switch (K) {
  case Kind::Const:
    return CVal;
  case Kind::Reg:
    return Regs.get(R);
  case Kind::Bin:
    return evalBinOp(Op, L->eval(Regs), Rhs->eval(Regs));
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

std::optional<Val> Expr::evalConst() const {
  switch (K) {
  case Kind::Const:
    return CVal;
  case Kind::Reg:
    return std::nullopt;
  case Kind::Bin: {
    auto A = L->evalConst();
    if (!A)
      return std::nullopt;
    auto B = Rhs->evalConst();
    if (!B)
      return std::nullopt;
    return evalBinOp(Op, *A, *B);
  }
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

void Expr::collectRegs(std::set<RegId> &Out) const {
  switch (K) {
  case Kind::Const:
    return;
  case Kind::Reg:
    Out.insert(R);
    return;
  case Kind::Bin:
    L->collectRegs(Out);
    Rhs->collectRegs(Out);
    return;
  }
}

bool Expr::usesReg(RegId Target) const {
  switch (K) {
  case Kind::Const:
    return false;
  case Kind::Reg:
    return R == Target;
  case Kind::Bin:
    return L->usesReg(Target) || Rhs->usesReg(Target);
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

bool Expr::equal(const ExprRef &A, const ExprRef &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B || A->K != B->K)
    return false;
  switch (A->K) {
  case Kind::Const:
    return A->CVal == B->CVal;
  case Kind::Reg:
    return A->R == B->R;
  case Kind::Bin:
    return A->Op == B->Op && equal(A->L, B->L) && equal(A->Rhs, B->Rhs);
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

std::size_t Expr::hash(const ExprRef &E) {
  if (!E)
    return 0;
  std::size_t Seed = static_cast<std::size_t>(E->K);
  switch (E->K) {
  case Kind::Const:
    hashCombineValue(Seed, E->CVal);
    break;
  case Kind::Reg:
    hashCombineValue(Seed, E->R.raw());
    break;
  case Kind::Bin:
    hashCombineValue(Seed, static_cast<unsigned>(E->Op));
    hashCombine(Seed, hash(E->L));
    hashCombine(Seed, hash(E->Rhs));
    break;
  }
  return hashFinalize(Seed);
}

ExprRef Expr::substReg(const ExprRef &E, RegId R, const ExprRef &Repl) {
  switch (E->K) {
  case Kind::Const:
    return E;
  case Kind::Reg:
    return E->R == R ? Repl : E;
  case Kind::Bin: {
    ExprRef NL = substReg(E->L, R, Repl);
    ExprRef NR = substReg(E->Rhs, R, Repl);
    if (NL.get() == E->L.get() && NR.get() == E->Rhs.get())
      return E;
    return makeBin(E->Op, std::move(NL), std::move(NR));
  }
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

ExprRef Expr::fold(const ExprRef &E,
                   const std::function<std::optional<Val>(RegId)> &RegConst) {
  switch (E->K) {
  case Kind::Const:
    return E;
  case Kind::Reg:
    if (auto V = RegConst(E->R))
      return makeConst(*V);
    return E;
  case Kind::Bin: {
    ExprRef NL = fold(E->L, RegConst);
    ExprRef NR = fold(E->Rhs, RegConst);
    if (NL->isConst() && NR->isConst())
      return makeConst(evalBinOp(E->Op, NL->constValue(), NR->constValue()));
    if (NL.get() == E->L.get() && NR.get() == E->Rhs.get())
      return E;
    return makeBin(E->Op, std::move(NL), std::move(NR));
  }
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

std::string Expr::str() const {
  switch (K) {
  case Kind::Const:
    return std::to_string(CVal);
  case Kind::Reg:
    return R.str();
  case Kind::Bin: {
    std::string Out = "(";
    Out.append(L->str()).append(" ").append(binOpSpelling(Op)).append(" ");
    Out.append(Rhs->str()).append(")");
    return Out;
  }
  }
  PSOPT_UNREACHABLE("bad expression kind");
}

} // namespace psopt
