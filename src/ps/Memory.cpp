//===- ps/Memory.cpp - The global message memory ---------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/Memory.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>

namespace psopt {

namespace {

/// Position of \p X in a Var-sorted location vector (insertion point if
/// absent).
std::vector<Memory::Loc>::const_iterator
locLowerBound(const std::vector<Memory::Loc> &Locs, VarId X) {
  return std::lower_bound(
      Locs.begin(), Locs.end(), X,
      [](const Memory::Loc &L, VarId V) { return L.var() < V; });
}

} // namespace

Memory Memory::initial(const std::set<VarId> &Vars) {
  Memory M;
  M.Locs.reserve(Vars.size());
  // std::set iterates in VarId order, so Locs comes out sorted.
  for (VarId X : Vars)
    M.Locs.push_back(Loc{
        X, std::make_shared<MessageList>(MessageList{
               Message::concrete(X, 0, Time(0), Time(0), View{})})});
  return M;
}

const MessageList &Memory::messages(VarId X) const {
  static const MessageList Empty;
  auto It = locLowerBound(Locs, X);
  return It == Locs.end() || It->Var != X ? Empty : *It->List;
}

MessageList &Memory::list(VarId X) {
  // Every named-location mutator reaches its list through here: the
  // copy-on-write choke point. Drops the memoized whole-memory hash, and
  // clones the list when it is shared with another Memory value.
  HashCache.invalidate();
  auto It = Locs.begin() + (locLowerBound(Locs, X) - Locs.begin());
  if (It == Locs.end() || It->Var != X)
    It = Locs.insert(It, Loc{X, std::make_shared<MessageList>()});
  else if (It->List.use_count() != 1)
    It->List = std::make_shared<MessageList>(*It->List);
  return *It->List;
}

MessageList &Memory::mutableListAt(std::size_t I) {
  HashCache.invalidate();
  Loc &L = Locs[I];
  if (L.List.use_count() != 1)
    L.List = std::make_shared<MessageList>(*L.List);
  return *L.List;
}

void Memory::installListAt(std::size_t I, const Loc &L) {
  PSOPT_CHECK(Locs[I].Var == L.Var, "installListAt: variable mismatch");
  HashCache.invalidate();
  Locs[I].List = L.List;
}

const Message *Memory::findConcrete(VarId X, const Time &To) const {
  const Message *M = find(X, To);
  return M && M->isConcrete() ? M : nullptr;
}

const Message *Memory::find(VarId X, const Time &To) const {
  for (const Message &M : messages(X))
    if (M.To == To)
      return &M;
  return nullptr;
}

void Memory::insert(const Message &M) {
  MessageList &Ms = list(M.Var);
  // Find the first message with To >= M.To; M goes before it.
  auto It = std::find_if(Ms.begin(), Ms.end(),
                         [&](const Message &O) { return O.To >= M.To; });
  // Disjointness: (f1,t1] and (f2,t2] are disjoint iff t1 <= f2 or t2 <= f1.
  // The initial message (0,0] is the empty interval but still occupies the
  // identifying timestamp 0, so a new To must be strictly positive.
  PSOPT_CHECK(M.To > Time(0), "message with non-positive timestamp");
  PSOPT_CHECK(M.From < M.To, "message with empty interval");
  if (It != Ms.end()) {
    PSOPT_CHECK(It->To != M.To, "duplicate message timestamp");
    PSOPT_CHECK(M.To <= It->From, "overlapping message intervals (right)");
  }
  if (It != Ms.begin()) {
    auto Prev = std::prev(It);
    PSOPT_CHECK(Prev->To <= M.From, "overlapping message intervals (left)");
  }
  Ms.insert(It, M);
}

void Memory::removeReservation(VarId X, const Time &To) {
  MessageList &Ms = list(X);
  auto It = std::find_if(Ms.begin(), Ms.end(), [&](const Message &M) {
    return M.To == To && M.isReservation();
  });
  PSOPT_CHECK(It != Ms.end(), "cancelling a missing reservation");
  Ms.erase(It);
}

void Memory::fulfillPromise(VarId X, const Time &To, const View &NewView) {
  MessageList &Ms = list(X);
  auto It = std::find_if(Ms.begin(), Ms.end(), [&](const Message &M) {
    return M.To == To && M.isConcrete() && M.IsPromise;
  });
  PSOPT_CHECK(It != Ms.end(), "fulfilling a missing promise");
  It->Owner = NoTid;
  It->IsPromise = false;
  It->MsgView = NewView;
  It->invalidateHash();
}

void Memory::erase(VarId X, const Time &To) {
  MessageList &Ms = list(X);
  auto It = std::find_if(Ms.begin(), Ms.end(),
                         [&](const Message &M) { return M.To == To; });
  PSOPT_CHECK(It != Ms.end(), "erasing a missing message");
  Ms.erase(It);
}

std::vector<Placement> Memory::enumeratePlacements(VarId X,
                                                   const Time &MinTo) const {
  std::vector<Placement> Out;
  const MessageList &Ms = messages(X);
  PSOPT_CHECK(!Ms.empty(), "placement on unknown location");

  // Gaps between adjacent messages. The placement's To must be > MinTo, so
  // only the part of the gap above MinTo is usable; split it into thirds so
  // room remains on both sides for later insertions (density preservation,
  // see DESIGN.md §5).
  for (std::size_t I = 0; I + 1 < Ms.size(); ++I) {
    const Time &GapLo = Ms[I].To;
    const Time &GapHi = Ms[I + 1].From;
    if (!(GapLo < GapHi))
      continue;
    Time Lo = std::max(GapLo, MinTo);
    if (!(Lo < GapHi))
      continue;
    Out.push_back(Placement{Rational::lerp(Lo, GapHi, 1, 3),
                            Rational::lerp(Lo, GapHi, 2, 3)});
  }

  // Append past the last message, leaving a unit gap before the new From so
  // that a CAS reading the current last message stays possible.
  Time Base = std::max(Ms.back().To, MinTo);
  Out.push_back(Placement{Base + Time(1), Base + Time(2)});
  return Out;
}

std::optional<Placement> Memory::casPlacement(VarId X,
                                              const Time &ReadTo) const {
  const MessageList &Ms = messages(X);
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    if (Ms[I].To != ReadTo)
      continue;
    if (I + 1 == Ms.size())
      return Placement{ReadTo, ReadTo + Time(1)};
    const Time &NextFrom = Ms[I + 1].From;
    if (!(ReadTo < NextFrom))
      return std::nullopt; // Adjacent message blocks the CAS interval.
    return Placement{ReadTo, Rational::midpoint(ReadTo, NextFrom)};
  }
  return std::nullopt;
}

static bool isReadable(const Message &M, const Time &MinTo) {
  return M.isConcrete() && M.To >= MinTo;
}

std::vector<const Message *> Memory::readable(VarId X,
                                              const Time &MinTo) const {
  std::vector<const Message *> Out;
  for (const Message &M : messages(X))
    if (isReadable(M, MinTo))
      Out.push_back(&M);
  return Out;
}

const Message *Memory::uniqueReadable(VarId X, const Time &MinTo) const {
  const Message *Found = nullptr;
  for (const Message &M : messages(X)) {
    if (!isReadable(M, MinTo))
      continue;
    if (Found)
      return nullptr;
    Found = &M;
  }
  return Found;
}

std::vector<const Message *> Memory::promisesOf(Tid T) const {
  std::vector<const Message *> Out;
  for (const Loc &L : Locs)
    for (const Message &M : L.messages())
      if (M.Owner == T && (M.isReservation() || M.IsPromise))
        Out.push_back(&M);
  return Out;
}

bool Memory::hasConcretePromises(Tid T) const {
  for (const Loc &L : Locs)
    for (const Message &M : L.messages())
      if (M.Owner == T && M.isConcrete() && M.IsPromise)
        return true;
  return false;
}

bool Memory::hasPromiseOn(Tid T, VarId X) const {
  for (const Message &M : messages(X))
    if (M.Owner == T && M.isConcrete() && M.IsPromise)
      return true;
  return false;
}

Memory Memory::capped(Tid /*ForThread*/) const {
  // Ownership survives the copy, so the certified thread keeps its own
  // promises and reservations; the added gap/cap reservations are unowned
  // and can be neither cancelled nor written into. Every list gains at
  // least the cap, so each location gets a fresh (unshared) list.
  Memory Out;
  Out.Locs.reserve(Locs.size());
  for (const Loc &L : Locs) {
    const MessageList &Ms = L.messages();
    MessageList Filled;
    Filled.reserve(Ms.size() * 2 + 1);
    for (std::size_t I = 0; I < Ms.size(); ++I) {
      Filled.push_back(Ms[I]);
      if (I + 1 < Ms.size() && Ms[I].To < Ms[I + 1].From)
        Filled.push_back(
            Message::reservation(L.var(), Ms[I].To, Ms[I + 1].From, NoTid));
    }
    const Time Last = Filled.back().To;
    Filled.push_back(
        Message::reservation(L.var(), Last, Last + Time(1), NoTid));
    Out.Locs.push_back(
        Loc{L.var(), std::make_shared<MessageList>(std::move(Filled))});
  }
  return Out;
}

bool Memory::operator==(const Memory &O) const {
  if (Locs.size() != O.Locs.size())
    return false;
  for (std::size_t I = 0; I < Locs.size(); ++I) {
    const Loc &A = Locs[I], &B = O.Locs[I];
    if (A.Var != B.Var)
      return false;
    // COW-shared lists compare equal by pointer identity alone.
    if (A.List == B.List)
      continue;
    if (!(*A.List == *B.List))
      return false;
  }
  return true;
}

std::size_t Memory::hash() const {
  return memoizedHash(HashCache, [this] {
    std::size_t Seed = 0;
    for (const Loc &L : Locs) {
      hashCombineValue(Seed, L.var().raw());
      for (const Message &M : L.messages())
        hashCombine(Seed, M.hash());
    }
    return hashFinalize(Seed);
  });
}

std::string Memory::str() const {
  std::string Out;
  for (const Loc &L : Locs) {
    Out += L.var().str() + ":";
    for (const Message &M : L.messages())
      Out += " " + M.str();
    Out += "\n";
  }
  return Out;
}

} // namespace psopt
