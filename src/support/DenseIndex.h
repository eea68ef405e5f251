//===- support/DenseIndex.h - Open-addressed id index -----------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one idiom for "key -> dense id" lookups: the owner keeps its keys in
/// a vector of its own (names, pool entries, predicates), and a DenseIndex
/// maps a key's hash to its position in that vector.
///
/// The index is a flat, linearly probed array of (hash, id) pairs, 8 bytes
/// each: a probe compares 32 hash bits first and asks the owner to compare
/// keys (by id) only on a hash match, so a lookup touches one or two cache
/// lines and the owner's vector once. Nothing in the index points into the
/// owner, so an owner can copy or move its index verbatim.
///
/// Ids must be inserted densely (0, 1, 2, ...) by the owner; the index
/// never erases.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_DENSEINDEX_H
#define AWAM_SUPPORT_DENSEINDEX_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace awam {

/// Mixes 64 bits (splitmix64's finalizer).
inline uint64_t mixHash(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Hashes a byte string eight bytes at a time.
inline uint64_t hashBytes(std::string_view S) {
  uint64_t H = 0x9e3779b97f4a7c15ull * (S.size() + 1);
  const char *P = S.data();
  size_t N = S.size();
  for (; N >= 8; P += 8, N -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    H = (H ^ W) * 0xff51afd7ed558ccdull;
    H ^= H >> 32;
  }
  uint64_t W = 0;
  if (N != 0)
    std::memcpy(&W, P, N);
  return mixHash(H ^ W);
}

/// Open-addressed index from a key's hash to the key's dense id.
class DenseIndex {
public:
  /// The "no such key" id.
  static constexpr uint32_t NotFound = ~0u;

  /// Returns the id of the key with hash \p Hash for which \p Equals(id)
  /// holds, or NotFound.
  template <class EqualsFn>
  uint32_t find(uint64_t Hash, EqualsFn &&Equals) const {
    if (Slots.empty())
      return NotFound;
    uint32_t Tag = tagOf(Hash);
    for (uint32_t I = Tag & mask();; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (S.Id == NotFound)
        return NotFound;
      if (S.Tag == Tag && Equals(S.Id))
        return S.Id;
    }
  }

  /// Returns the id of the key with hash \p Hash for which \p Equals(id)
  /// holds; if there is none, records \p NewId for that hash and returns
  /// it. The caller appends the key as id \p NewId when the result is
  /// \p NewId.
  template <class EqualsFn>
  uint32_t findOrInsert(uint64_t Hash, uint32_t NewId, EqualsFn &&Equals) {
    if ((Count + 1) * 4 > Slots.size() * 3)
      grow();
    uint32_t Tag = tagOf(Hash);
    for (uint32_t I = Tag & mask();; I = (I + 1) & mask()) {
      Slot &S = Slots[I];
      if (S.Id == NotFound) {
        S = {Tag, NewId};
        ++Count;
        return NewId;
      }
      if (S.Tag == Tag && Equals(S.Id))
        return S.Id;
    }
  }

  /// Number of ids recorded.
  uint32_t size() const { return Count; }

  /// Heap bytes held by the slot array (eviction accounting).
  size_t bytesUsed() const { return Slots.capacity() * sizeof(Slot); }

  /// Forgets every id. Releases the slots of an index that grew past a
  /// small size, so a reader that indexes one huge clause does not pay
  /// for its slots on every later clause.
  void clear() {
    if (Slots.size() > kMinSlots * 4)
      Slots = {};
    else
      std::fill(Slots.begin(), Slots.end(), Slot{0, NotFound});
    Count = 0;
  }

private:
  struct Slot {
    uint32_t Tag;
    uint32_t Id;
  };

  static constexpr size_t kMinSlots = 16;

  static uint32_t tagOf(uint64_t Hash) {
    return static_cast<uint32_t>(Hash ^ (Hash >> 32));
  }
  uint32_t mask() const { return static_cast<uint32_t>(Slots.size() - 1); }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? kMinSlots : Slots.size() * 2,
                          Slot{0, NotFound});
    Old.swap(Slots);
    for (const Slot &S : Old) {
      if (S.Id == NotFound)
        continue;
      uint32_t I = S.Tag & mask();
      while (Slots[I].Id != NotFound)
        I = (I + 1) & mask();
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots; // size is 0 or a power of two
  uint32_t Count = 0;
};

} // namespace awam

#endif // AWAM_SUPPORT_DENSEINDEX_H
