//===- support/OpenMap.h - Open-addressed map from nonzero words ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-addressed hash map behind the JNI agent's shadow state: its
/// striped shadow tables and the per-thread block's held-resource map and
/// local-reference shadow. (The Python/C checker's handout shadow is
/// indexed by object slot and needs no hashing.) Its entries live in
/// one flat slab, so inserts and erases never allocate except on the
/// amortized slab doubling, and a lookup is a short linear probe instead
/// of a tree walk.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_SUPPORT_OPENMAP_H
#define JINN_SUPPORT_OPENMAP_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace jinn {

/// Open-addressed hash map from nonzero uint64 keys to small trivially
/// copyable values. Linear probing over a power-of-two slab; key 0 marks an
/// empty slot. Erase shifts the rest of the probe cluster back into the
/// hole (backward-shift deletion), so the map keeps no tombstones: a
/// probe stops at the first empty slot, and insert/erase churn at a fixed
/// live size never grows or rehashes the slab. The slab is the arena — no
/// per-entry allocation. Not thread-safe by itself; a StripedTable shard
/// (or a thread-confined owner) provides the exclusion. \p FirstSlots
/// sizes the first slab: a map that usually holds an entry or two (a
/// thread's held monitors) starts small, since there is one per thread.
template <typename ValueT, size_t FirstSlots = 16> class OpenMap {
  static_assert(FirstSlots >= 2 && std::has_single_bit(FirstSlots),
                "the first slab is a power of two of at least 2 slots");

public:
  ValueT *find(uint64_t Key) {
    if (Slots.empty())
      return nullptr;
    for (size_t I = homeSlot(Key);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Key == 0) // checked first: key 0 is never found
        return nullptr;
      if (S.Key == Key)
        return &S.Value;
    }
  }
  const ValueT *find(uint64_t Key) const {
    return const_cast<OpenMap *>(this)->find(Key);
  }

  /// Returns the value for nonzero \p Key, inserting \p Init first when
  /// absent.
  ValueT &findOrEmplace(uint64_t Key, const ValueT &Init = ValueT()) {
    assert(Key != 0 && "key 0 marks an empty slot");
    if ((Live + 1) * 4 > Slots.size() * 3)
      grow();
    size_t I = homeSlot(Key);
    for (; Slots[I].Key != 0; I = (I + 1) & Mask)
      if (Slots[I].Key == Key)
        return Slots[I].Value;
    Slots[I] = Slot{Init, Key};
    ++Live;
    return Slots[I].Value;
  }

  bool erase(uint64_t Key) {
    ValueT *Found = find(Key);
    if (!Found)
      return false;
    eraseFound(Found);
    return true;
  }

  /// Erases the entry \p Found points at — a find() result with no insert
  /// or erase since — without probing for it again.
  void eraseFound(ValueT *Found) {
    size_t Hole = static_cast<size_t>(reinterpret_cast<Slot *>(Found) -
                                      Slots.data());
    // Walk the rest of the cluster; move back every entry whose probe
    // path from its home slot passes through the hole.
    for (size_t I = (Hole + 1) & Mask; Slots[I].Key != 0; I = (I + 1) & Mask) {
      size_t Home = homeSlot(Slots[I].Key);
      if (((I - Home) & Mask) >= ((I - Hole) & Mask)) {
        Slots[Hole] = Slots[I];
        Hole = I;
      }
    }
    Slots[Hole] = Slot{};
    --Live;
  }

  size_t size() const { return Live; }
  /// Slab slots currently allocated (0 before the first insert).
  size_t capacity() const { return Slots.size(); }

  /// The slot where the probe for \p Key starts in a slab of \p Capacity
  /// slots (a power of two, at least 2): the top bits of a multiplicative
  /// hash. The JNI agent's StripedTable picks a key's shard from the low
  /// bits of its mixBits, so the probe start stays independent of the
  /// shard.
  static size_t homeSlot(uint64_t Key, size_t Capacity) {
    return static_cast<size_t>((Key * HashMultiplier) >>
                               (64 - std::countr_zero(Capacity)));
  }

  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Slot &S : Slots)
      if (S.Key != 0)
        Visit(S.Key, S.Value);
  }

private:
  /// Value first: eraseFound maps a value pointer back to its slot.
  struct Slot {
    ValueT Value{};
    uint64_t Key = 0;
  };
  static_assert(std::is_standard_layout_v<Slot>);

  static constexpr uint64_t HashMultiplier = 0x9e3779b97f4a7c15ULL;

  /// homeSlot(Key, capacity()), with the shift kept from the last grow().
  size_t homeSlot(uint64_t Key) const {
    return static_cast<size_t>((Key * HashMultiplier) >> Shift);
  }

  /// Doubles the slab (FirstSlots at first) and reinserts every entry.
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    size_t NewCap = Old.empty() ? FirstSlots : Old.size() * 2;
    Slots.assign(NewCap, Slot{});
    Mask = NewCap - 1;
    Shift = 64 - std::countr_zero(NewCap);
    for (const Slot &S : Old) {
      if (S.Key == 0)
        continue;
      size_t I = homeSlot(S.Key);
      while (Slots[I].Key != 0)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  unsigned Shift = 64; ///< 64 - log2(capacity())
  size_t Live = 0;
};

} // namespace jinn

#endif // JINN_SUPPORT_OPENMAP_H
