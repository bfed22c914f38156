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
/// (DESIGN.md §11): each location's message list lives behind a shared_ptr,
/// so a copy is one small vector of (VarId, refcount-bump) pairs and the
/// lists themselves are shared until a mutator touches one. Every mutation
/// funnels through the copy-on-write choke points list()/mutableListAt(),
/// which clone a shared list before writing and drop the memoized
/// whole-memory hash.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_MEMORY_H
#define PSOPT_PS_MEMORY_H

#include "ps/Message.h"
#include "support/Hashing.h"

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
  /// One location: the variable plus its (possibly shared) message list.
  /// Read-only from outside Memory; mutation goes through the COW choke
  /// points so sharing stays invisible to clients.
  class Loc {
  public:
    VarId var() const { return Var; }
    const MessageList &messages() const { return *List; }

    /// True when this location shares its message list with \p O — the
    /// visited-set probe's pointer-identity fast path.
    bool sharesListWith(const Loc &O) const { return List == O.List; }

  private:
    friend class Memory;
    Loc(VarId X, std::shared_ptr<MessageList> L)
        : Var(X), List(std::move(L)) {}

    VarId Var;
    std::shared_ptr<MessageList> List;
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

  /// Memoized whole-memory hash (invalidated by every mutator).
  std::size_t hash() const;
  std::string str() const;

  /// Internal sorted per-location storage, for read-only iteration.
  const std::vector<Loc> &storage() const { return Locs; }

  /// Copy-on-write mutable access to the message list at storage() index
  /// \p I: clones the list if it is shared and drops the whole-memory hash
  /// memo. Callers that rewrite individual messages must also invalidate
  /// those (Message::invalidateHash).
  MessageList &mutableListAt(std::size_t I);

  /// Makes the location at storage() index \p I share \p L's message list
  /// (a refcount bump, no copy) and drops the whole-memory hash memo.
  /// \p L must be for the same variable.
  void installListAt(std::size_t I, const Loc &L);

private:
  MessageList &list(VarId X);

  // Sorted by Var. Within a list, messages are sorted by To (intervals are
  // disjoint, so this equals sorting by From).
  std::vector<Loc> Locs;
  HashMemo HashCache;
};

} // namespace psopt

#endif // PSOPT_PS_MEMORY_H
