//===- ps/TimeRename.cpp - Order-isomorphic timestamp renaming --------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/TimeRename.h"

namespace psopt {

void TimeRenamer::noteMemory(const Memory &M) {
  for (const Memory::Loc &L : M.storage()) {
    for (const Message &Msg : L.messages()) {
      note(Msg.From);
      note(Msg.To);
      noteView(Msg.MsgView);
    }
  }
}

void TimeRenamer::freeze() {
  std::sort(Table.begin(), Table.end());
  Table.erase(std::unique(Table.begin(), Table.end()), Table.end());
  Identity = true;
  for (std::size_t I = 0; I < Table.size(); ++I) {
    if (Table[I] != Time(static_cast<std::int64_t>(I))) {
      Identity = false;
      break;
    }
  }
}

void TimeRenamer::rewriteMemory(Memory &M) const {
  if (Identity)
    return;
  const std::vector<Memory::Loc> &Locs = M.storage();
  for (std::size_t I = 0; I < Locs.size(); ++I) {
    // Change scan first: an untouched list keeps its shared storage, so
    // the state graph can reuse the list's pooled id.
    const MessageList &Ms = Locs[I].messages();
    bool Changed = false;
    for (const Message &Msg : Ms) {
      if (map(Msg.From) != Msg.From || map(Msg.To) != Msg.To ||
          changesView(Msg.MsgView)) {
        Changed = true;
        break;
      }
    }
    if (!Changed)
      continue;
    for (Message &Msg : M.mutableListAt(I)) {
      Msg.From = map(Msg.From);
      Msg.To = map(Msg.To);
      Msg.MsgView = mapView(Msg.MsgView);
    }
  }
}

} // namespace psopt
