//===- ps/Message.cpp - Timestamped messages -------------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "ps/Message.h"
#include "support/Hashing.h"

namespace psopt {

std::size_t Message::hash() const {
  std::size_t Seed = static_cast<std::size_t>(K);
  hashCombineValue(Seed, Var.raw());
  hashCombineValue(Seed, Value);
  hashCombine(Seed, From.hash());
  hashCombine(Seed, To.hash());
  hashCombine(Seed, MsgView.hash());
  hashCombineValue(Seed, Owner);
  hashCombineValue(Seed, IsPromise);
  return hashFinalize(Seed);
}

std::string Message::str() const {
  if (isReservation())
    return "<" + Var.str() + ": (" + From.str() + ", " + To.str() + "]" +
           (Owner == NoTid ? std::string("") : " t" + std::to_string(Owner)) +
           ">";
  std::string Out = "<" + Var.str() + ": " + std::to_string(Value) + "@(" +
                    From.str() + ", " + To.str() + "]";
  if (IsPromise)
    Out += " prm t" + std::to_string(Owner);
  return Out + ">";
}

} // namespace psopt
