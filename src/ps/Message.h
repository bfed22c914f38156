//===- ps/Message.h - Timestamped messages ----------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory messages of PS2.1 (Fig 8):
///
///   m ::= ⟨x : v@(f, t], V⟩    (concrete write)
///       | ⟨x : (f, t]⟩          (reservation)
///
/// In addition to the paper's components we record *ownership*: which
/// thread, if any, holds the message in its promise set (an outstanding
/// promise or a reservation). The paper keeps a separate promise set P per
/// thread with P ⊆ M; folding the flag into the message keeps the machine
/// state a single structure that canonicalizes and hashes uniformly. The
/// per-thread promise set is recovered by filtering on Owner.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_MESSAGE_H
#define PSOPT_PS_MESSAGE_H

#include "lang/Ops.h"
#include "ps/View.h"

#include <string>

namespace psopt {

/// Thread identifier (Tid in Fig 8). Threads are numbered 0..n-1; NoTid
/// marks messages owned by no thread (ordinary fulfilled writes and the
/// cap/gap reservations of a capped memory).
using Tid = int;
inline constexpr Tid NoTid = -1;

/// One memory message. The fields are public: the canonicalizer and the
/// memory rewrite them in place.
struct Message {
  enum class Kind : std::uint8_t {
    Concrete, ///< ⟨x : v@(f,t], V⟩
    Reserve   ///< ⟨x : (f,t]⟩
  };

  Kind K = Kind::Concrete;
  VarId Var;
  Val Value = 0;   ///< Only meaningful for Concrete.
  Time From;       ///< Exclusive lower end of the timestamp interval.
  Time To;         ///< Inclusive upper end; identifies the message.
  View MsgView;    ///< Message view (V⊥ for na/rlx writes and reservations).
  Tid Owner = NoTid;       ///< Thread whose promise set holds this message.
  bool IsPromise = false;  ///< Concrete message that is an unfulfilled promise.

  /// Builds a concrete message.
  static Message concrete(VarId X, Val V, Time From, Time To, View W) {
    Message M;
    M.K = Kind::Concrete;
    M.Var = X;
    M.Value = V;
    M.From = std::move(From);
    M.To = std::move(To);
    M.MsgView = std::move(W);
    return M;
  }

  /// Builds a reservation owned by \p Owner.
  static Message reservation(VarId X, Time From, Time To, Tid Owner) {
    Message M;
    M.K = Kind::Reserve;
    M.Var = X;
    M.From = std::move(From);
    M.To = std::move(To);
    M.Owner = Owner;
    return M;
  }

  bool isConcrete() const { return K == Kind::Concrete; }
  bool isReservation() const { return K == Kind::Reserve; }

  bool operator==(const Message &O) const {
    return K == O.K && Var == O.Var && Value == O.Value && From == O.From &&
           To == O.To && MsgView == O.MsgView && Owner == O.Owner &&
           IsPromise == O.IsPromise;
  }

  std::size_t hash() const;
  std::string str() const;
};

} // namespace psopt

#endif // PSOPT_PS_MESSAGE_H
