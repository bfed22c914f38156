//===- explore/Canonical.cpp - Timestamp canonicalization -------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "explore/Canonical.h"
#include "ps/TimeRename.h"
#include "support/Statistic.h"

#include <algorithm>

namespace psopt {

static Statistic NumFullRenamings("explore", "full_renamings",
                                  "successors canonicalized by the full "
                                  "renaming");

bool canonicalizeState(MachineState &S) {
  TimeRenamer R;
  R.note(Time(0)); // 0 must stay the least timestamp (absent map entries).
  R.noteMemory(S.Mem);
  for (const ThreadState &TS : S.Threads) {
    R.noteView(TS.V);
    R.noteView(TS.Acq);
    R.noteView(TS.Rel);
  }

  R.freeze();

  // Successors of a canonical parent are usually still canonical (reads,
  // view joins, and gap-free appends introduce no non-integer timestamps),
  // so the renaming is the identity and the whole rewrite is skipped.
  if (R.isIdentity())
    return false;

  R.rewriteMemory(S.Mem);
  for (ThreadState &TS : S.Threads) {
    if (R.changesView(TS.V))
      TS.V = R.mapView(TS.V);
    if (R.changesView(TS.Acq))
      TS.Acq = R.mapView(TS.Acq);
    if (R.changesView(TS.Rel))
      TS.Rel = R.mapView(TS.Rel);
  }
  return true;
}

static bool renameInFull(MachineState &Child) {
  ++NumFullRenamings;
  return canonicalizeState(Child);
}

bool canonicalizeSuccessor(MachineState &Child, const MachineState &Parent) {
  const std::vector<Memory::Loc> &Cs = Child.Mem.storage();
  const std::vector<Memory::Loc> &Ps = Parent.Mem.storage();
  if (Cs.size() != Ps.size())
    return renameInFull(Child);

  // The endpoints of the changed lists' new messages: usually one or two,
  // but a fused chain of private stores appends many.
  thread_local std::vector<std::int64_t> Fresh;
  Fresh.clear();
  for (std::size_t I = 0; I < Cs.size(); ++I) {
    if (Cs[I].sharesListWith(Ps[I]))
      continue;
    // Both lists are sorted by To: walk them together, matching each
    // parent message to a child message with the same interval.
    const MessageList &C = Cs[I].messages(), &P = Ps[I].messages();
    std::size_t J = 0;
    for (const Message &M : C) {
      if (J < P.size() && M.From == P[J].From && M.To == P[J].To) {
        ++J;
        continue;
      }
      if (!M.From.isInteger() || !M.To.isInteger())
        return renameInFull(Child);
      Fresh.push_back(M.From.numerator());
      Fresh.push_back(M.To.numerator());
    }
    if (J != P.size()) // a parent endpoint may have left the state
      return renameInFull(Child);
  }
  if (Fresh.empty())
    return false;

  // The parent's set is {0..K}; the child's is {0..K} plus the fresh
  // endpoints above K, which must be exactly K+1..K+j.
  std::int64_t K = 0;
  for (const Memory::Loc &L : Ps)
    if (!L.messages().empty())
      K = std::max(K, L.messages().back().To.numerator());
  auto Last = std::remove_if(Fresh.begin(), Fresh.end(), [K](std::int64_t T) {
    return 0 <= T && T <= K;
  });
  std::sort(Fresh.begin(), Last);
  Last = std::unique(Fresh.begin(), Last);
  for (auto It = Fresh.begin(); It != Last; ++It)
    if (*It != K + 1 + (It - Fresh.begin()))
      return renameInFull(Child);
  return false;
}

} // namespace psopt
