//===- ps/View.cpp - Timestamps, time maps and thread views ---------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/View.h"
#include "support/Hashing.h"

namespace psopt {

void TimeMap::join(const TimeMap &O) {
  if (O.Entries.empty())
    return;
  if (Entries.empty()) {
    Entries = O.Entries;
    return;
  }

  // Fast path: every key of O already bound here — take maxima in place.
  {
    auto A = Entries.begin();
    bool Subset = true;
    for (const Entry &E : O.Entries) {
      while (A != Entries.end() && A->Var < E.Var)
        ++A;
      if (A == Entries.end() || E.Var < A->Var) {
        Subset = false;
        break;
      }
    }
    if (Subset) {
      auto B = Entries.begin();
      for (const Entry &E : O.Entries) {
        while (B->Var < E.Var)
          ++B;
        if (E.T > B->T)
          B->T = E.T;
      }
      return;
    }
  }

  // General case: linear merge into a fresh list.
  EntryList Out;
  Out.reserve(Entries.size() + O.Entries.size());
  auto A = Entries.begin(), AE = Entries.end();
  auto B = O.Entries.begin(), BE = O.Entries.end();
  while (A != AE && B != BE) {
    if (A->Var < B->Var)
      Out.push_back(*A++);
    else if (B->Var < A->Var)
      Out.push_back(*B++);
    else {
      Out.push_back(Entry{A->Var, std::max(A->T, B->T)});
      ++A;
      ++B;
    }
  }
  Out.insert(Out.end(), A, AE);
  Out.insert(Out.end(), B, BE);
  Entries = std::move(Out);
}

bool TimeMap::leq(const TimeMap &O) const {
  // Entries hold no zeros, so a key missing from O (where it reads as 0)
  // immediately refutes ≤.
  auto B = O.Entries.begin(), BE = O.Entries.end();
  for (const Entry &E : Entries) {
    while (B != BE && B->Var < E.Var)
      ++B;
    if (B == BE || E.Var < B->Var || E.T > B->T)
      return false;
  }
  return true;
}

std::size_t TimeMap::hash() const {
  std::size_t Seed = 0;
  for (const auto &[X, T] : Entries) {
    hashCombineValue(Seed, X.raw());
    hashCombine(Seed, T.hash());
  }
  return Seed;
}

std::string TimeMap::str() const {
  std::string Out = "{";
  bool First = true;
  for (const auto &[X, T] : Entries) {
    if (!First)
      Out += ", ";
    First = false;
    Out += X.str() + "@" + T.str();
  }
  return Out + "}";
}

std::size_t View::hash() const {
  std::size_t Seed = Na.hash();
  hashCombine(Seed, Rlx.hash());
  return hashFinalize(Seed);
}

std::string View::str() const {
  return "(na=" + Na.str() + ", rlx=" + Rlx.str() + ")";
}

} // namespace psopt
