//===- ps/Memory.h - The global message memory ------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global shared memory M of PS2.1 (Fig 8): per location, the sorted
/// list of timestamp-disjoint messages, beginning with the initial message
/// ⟨x : 0@(0,0], V⊥⟩. Also implements
///
///  * *placement enumeration* — the finitely many canonical positions where
///    a new write/promise/reservation may land (DESIGN.md: gap-splitting);
///  * the *capped memory* M̂ used by promise certification (§3): all gaps
///    filled with unowned reservations plus a cap reservation per location.
///
/// Memory is a value type: machine states copy it freely. Copies are cheap
/// (DESIGN.md §11): a location either *owns* its message list, holding a
/// share of it through a shared_ptr, or *borrows* it, holding a bare
/// pointer to a list someone else keeps alive. A copy is one small vector
/// of (VarId, list) entries — a refcount bump per owned list, a pointer
/// copy per borrowed one — and the lists themselves are shared until a
/// mutator touches one. Every mutation funnels through the copy-on-write
/// choke points list()/mutableListAt(), which clone any list they do not
/// own alone before writing.
///
/// Borrowing is how the state graph (explore/StateGraph.h) keeps the
/// states it holds from bumping refcounts that every search worker
/// shares: it points each state at its list pool's copy without taking a
/// reference. The lender must outlive every Memory borrowing from it, and
/// every copy of one (borrowListAt).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_MEMORY_H
#define PSOPT_PS_MEMORY_H

#include "ps/Message.h"

#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace psopt {

/// A candidate timestamp interval for a new message on some location.
struct Placement {
  Time From;
  Time To;
};

/// The sorted, timestamp-disjoint messages of one location.
using MessageList = std::vector<Message>;

/// The global memory.
class Memory {
public:
  /// One location: the variable plus its (possibly shared) message list,
  /// owned or borrowed. Read-only from outside Memory; mutation goes
  /// through the COW choke points so sharing stays invisible to clients.
  class Loc {
  public:
    VarId var() const { return Var; }
    const MessageList &messages() const { return *List; }

    /// True when this location shares its message list with \p O — the
    /// visited-set probe's pointer-identity fast path. Owned and borrowed
    /// references to one list share it.
    bool sharesListWith(const Loc &O) const { return List == O.List; }

    /// True when this location holds a share of its list (a borrowed
    /// list is kept alive by its lender).
    bool ownsList() const { return Owner != nullptr; }

    /// This location holding a share of its list: a copy when it owns
    /// one, else a location owning a clone of the borrowed list.
    Loc owning() const {
      return Owner ? *this : Loc(Var, std::make_shared<MessageList>(*List));
    }

  private:
    friend class Memory;
    Loc(VarId X, std::shared_ptr<MessageList> L)
        : Var(X), List(L.get()), Owner(std::move(L)) {}

    VarId Var;
    const MessageList *List;
    /// The list's owner reference when this location owns it; null when
    /// it borrows. When set, Owner.get() == List.
    std::shared_ptr<MessageList> Owner;
  };

  Memory() = default;

  /// Creates a memory with initial messages for every variable in \p Vars.
  static Memory initial(const std::set<VarId> &Vars);

  /// Sorted messages at location \p X (empty vector if unknown).
  const MessageList &messages(VarId X) const;

  /// Finds the concrete message at (\p X, to = \p To); null if absent.
  const Message *findConcrete(VarId X, const Time &To) const;

  /// Finds any message (concrete or reservation) with the given To.
  const Message *find(VarId X, const Time &To) const;

  /// Inserts \p M, which must be timestamp-disjoint from existing messages.
  void insert(const Message &M);

  /// Removes the reservation at (\p X, \p To); it must exist.
  void removeReservation(VarId X, const Time &To);

  /// Marks the promise at (\p X, \p To) fulfilled: clears owner/promise.
  /// For a release fulfilment the message view is upgraded to \p NewView.
  void fulfillPromise(VarId X, const Time &To, const View &NewView);

  /// Removes the (unfulfilled) promise message at (\p X, \p To) entirely.
  /// PS2.1 allows lowering/cancelling promises only in restricted ways; the
  /// workbench uses this for the explorer's promise-rollback in
  /// certification trials only.
  void erase(VarId X, const Time &To);

  /// Enumerates canonical placements for a new message on \p X whose To must
  /// exceed \p MinTo (pass the thread's relaxed view; pass Time(-1)... any
  /// negative to disable the bound for reservations). For each maximal free
  /// gap (a, b) with b > MinTo the placement splits the usable part into
  /// thirds (leaving room on both sides), and one placement appends past the
  /// last message with a unit gap before it.
  std::vector<Placement> enumeratePlacements(VarId X, const Time &MinTo) const;

  /// Placement for a CAS that read the message with To = \p ReadTo: From is
  /// forced to ReadTo; returns nullopt when an adjacent message blocks the
  /// interval (this is how two CAS cannot both succeed on one write, and how
  /// capped memory blocks CAS during certification).
  std::optional<Placement> casPlacement(VarId X, const Time &ReadTo) const;

  /// Messages at \p X readable under lower bound \p MinTo (To ≥ MinTo),
  /// concrete only.
  std::vector<const Message *> readable(VarId X, const Time &MinTo) const;

  /// The only message readable(X, MinTo) would return, or null when it
  /// would return none or several. Allocation-free.
  const Message *uniqueReadable(VarId X, const Time &MinTo) const;

  /// The promise set P of thread \p T: concrete promises plus reservations
  /// owned by T.
  std::vector<const Message *> promisesOf(Tid T) const;

  /// True if thread \p T has an unfulfilled concrete promise (reservations
  /// do not count: consistent() requires promises to be fulfilled, while
  /// reservations may simply remain).
  bool hasConcretePromises(Tid T) const;

  /// True if thread \p T has a concrete promise on location \p X (release
  /// writes require none).
  bool hasPromiseOn(Tid T, VarId X) const;

  /// Builds the capped memory M̂ for certification of thread \p ForThread:
  /// every gap between messages of the same location is filled with an
  /// unowned reservation and a cap reservation ⟨x : (t, t+1]⟩ is appended
  /// per location. \p ForThread's own messages keep their ownership.
  Memory capped(Tid ForThread) const;

  bool operator==(const Memory &O) const;

  std::size_t hash() const;
  std::string str() const;

  /// Internal sorted per-location storage, for read-only iteration.
  const std::vector<Loc> &storage() const { return Locs; }

  /// Copy-on-write mutable access to the message list at storage() index
  /// \p I: clones the list unless this memory owns it alone.
  MessageList &mutableListAt(std::size_t I);

  /// Makes the location at storage() index \p I share \p L's message list
  /// as \p L holds it (a refcount bump when \p L owns it, no copy). \p L
  /// must be for the same variable.
  void installListAt(std::size_t I, const Loc &L);

  /// Makes the location at storage() index \p I borrow \p L's message
  /// list: a pointer copy, no reference taken. \p L's list must outlive
  /// this memory and every copy of it. \p L must be for the same
  /// variable.
  void borrowListAt(std::size_t I, const Loc &L);

private:
  MessageList &list(VarId X);
  /// Makes \p L own its list alone (cloning it otherwise) and returns it.
  static MessageList &ownAlone(Loc &L);

  // Sorted by Var. Within a list, messages are sorted by To (intervals are
  // disjoint, so this equals sorting by From).
  std::vector<Loc> Locs;
};

} // namespace psopt

#endif // PSOPT_PS_MEMORY_H
