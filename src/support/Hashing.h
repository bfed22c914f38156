//===- support/Hashing.h - Hash combinators ---------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash combining utilities used by the state canonicalizer and the various
/// dense maps keyed on machine states. The mixing function is the 64-bit
/// variant of boost::hash_combine with a splitmix-style finalizer.
///
/// State values keep no hash memo: every hash() computes from the content.
/// A table that needs a key's hash more than once stores it next to the
/// key (StateKey, PooledList, CertCacheKey).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_SUPPORT_HASHING_H
#define PSOPT_SUPPORT_HASHING_H

#include <cstdint>
#include <cstddef>
#include <functional>

namespace psopt {

/// Mixes \p Value into the running hash \p Seed.
inline void hashCombine(std::size_t &Seed, std::size_t Value) {
  // 64-bit golden-ratio mix.
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4);
}

/// Hashes \p V with std::hash and mixes it into \p Seed.
template <typename T> void hashCombineValue(std::size_t &Seed, const T &V) {
  hashCombine(Seed, std::hash<T>{}(V));
}

/// Finalizes a hash value (splitmix64 finalizer) so that low-entropy seeds
/// still spread across buckets.
inline std::size_t hashFinalize(std::size_t H) {
  H ^= H >> 30;
  H *= 0xbf58476d1ce4e5b9ULL;
  H ^= H >> 27;
  H *= 0x94d049bb133111ebULL;
  H ^= H >> 31;
  return H;
}

} // namespace psopt

#endif // PSOPT_SUPPORT_HASHING_H
