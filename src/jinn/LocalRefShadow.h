//===- jinn/LocalRefShadow.h - Per-thread local-reference shadow ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The local-reference machine's shadow of one thread (paper Figure 8's
/// encoding: a stack of frames, each with a capacity and the set of live
/// reference words). It is built so that the steady state allocates
/// nothing (DESIGN.md §10):
///
///   - Frames are reused. A pop lowers the active depth and keeps the
///     frame's storage for the next push.
///   - Each frame holds its capacity, its explicit flag, a live count, and
///     a list of the words it owns. Delete does not search the list (it
///     only pops a newest entry); a stale entry is skipped at pop and
///     dropped by on-demand compaction.
///   - One entry per 20-bit local slot of the handle encoding (jvm/Handle.h)
///     holds the word the shadow tracks in that slot and the 1-based depth
///     of the topmost frame holding it. The entries are a vector grown by
///     doubling. A use check is one bounds check, one load and a compare
///     with the whole word, so a word of another generation or kind never
///     matches; the overflow check reads the top frame's live count.
///
/// The shadow has exactly the semantics of one word set per frame, with
/// one addition the slot index brings: a slot holds one word at a time.
/// The VM reissues a slot only after the word it held has died, so when an
/// acquire finds another word in its slot, that word is dropped from every
/// frame holding it (each frame's live count falls by one) and a later use
/// of it reads untracked. A word may be acquired again while it is live in
/// a lower frame; its new owned entry then remembers the entry value it
/// hides, and a pop or delete of the upper entry restores it.
///
/// Only local handle words of the shadowed thread may be acquired (their
/// thread field is the thread's id): the slot index is per thread. Any
/// word may be looked up or released; one the shadow does not hold reads
/// untracked.
///
/// Thread-confined: only the thread whose transitions it shadows touches
/// it (see LocalRefMachine).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_LOCALREFSHADOW_H
#define JINN_JINN_LOCALREFSHADOW_H

#include "jvm/Handle.h"

#include <cstdint>
#include <vector>

namespace jinn::agent {

class LocalRefShadow {
public:
  /// Starts with one base frame of \p BaseCapacity, never popped.
  explicit LocalRefShadow(uint32_t BaseCapacity = 16);

  /// Pushes a frame; \p Explicit marks one made by PushLocalFrame.
  void pushFrame(uint32_t Capacity, bool Explicit);
  /// PopLocalFrame: pops the top frame if it is explicit. Returns false,
  /// popping nothing, when the top is a native or the base frame.
  bool popExplicitFrame();
  /// Native method entry: pushes the method's frame and remembers the
  /// depth its return pops back to.
  void enterNative(uint32_t Capacity);
  /// True while some enterNative has no matching exitNative.
  bool inNative() const { return !EntryDepths.empty(); }
  /// Native method return (requires inNative()): pops every frame above
  /// the matching entry's depth and returns how many of them were
  /// explicit, i.e. leaked.
  size_t exitNative();
  /// EnsureLocalCapacity: raises the top frame's capacity to \p Capacity.
  void ensureCapacity(uint32_t Capacity) {
    Frame &Top = top();
    if (Top.Capacity < Capacity)
      Top.Capacity = Capacity;
  }

  /// Adds \p Word, a local handle of the shadowed thread, to the top frame
  /// (a no-op when the top frame already holds it) and returns the top
  /// frame's live count. A different word in \p Word's slot is dropped
  /// first.
  size_t acquire(uint64_t Word) {
    uint32_t Slot = slotOf(Word);
    if (Slot >= Slots.size())
      grow(Slot);
    SlotEntry &Entry = Slots[Slot];
    Frame &Top = top();
    if (Entry.Word != Word) {
      if (Entry.Word)
        dropEntry(Entry);
      Entry.Word = Word;
    } else if ((Entry.Holder & DepthMask) == Depth) {
      return Top.Live;
    }
    if (Top.Owned.size() >= 2 * size_t(Top.Live) + 16)
      compactTop();
    Top.Owned.push_back({Word, Entry.Holder});
    Entry.Holder = Depth | (Entry.Holder ? HidesBit : 0);
    return ++Top.Live;
  }
  /// True when some frame holds \p Word.
  bool tracks(uint64_t Word) const {
    uint32_t Slot = slotOf(Word);
    return Slot < Slots.size() && Slots[Slot].Word == Word;
  }
  /// True when some frame holds a word in \p Word's slot, whichever word.
  bool occupies(uint64_t Word) const {
    uint32_t Slot = slotOf(Word);
    return Slot < Slots.size() && Slots[Slot].Word != 0;
  }
  /// DeleteLocalRef: removes \p Word from the topmost frame holding it.
  /// Returns false when no frame does.
  bool release(uint64_t Word);

  /// Live words summed over the active frames (a word held by two frames
  /// counts twice, as in one set per frame).
  size_t liveCount() const;
  uint32_t topCapacity() const { return Frames[Depth - 1].Capacity; }
  /// Owned-list entries of the top frame, live and stale.
  size_t topOwnedEntries() const { return Frames[Depth - 1].Owned.size(); }

private:
  /// Holder values: the holder's 1-based depth, plus HidesBit when a lower
  /// frame holds the word too. KeptBit marks words during compaction.
  static constexpr uint32_t HidesBit = 1u << 31;
  static constexpr uint32_t KeptBit = 1u << 30;
  static constexpr uint32_t DepthMask = KeptBit - 1;

  /// One local slot: the word tracked there (0: none) and its holder value
  /// (0 exactly when Word is 0).
  struct SlotEntry {
    uint64_t Word = 0;
    uint32_t Holder = 0;
  };
  struct OwnedWord {
    uint64_t Word;
    uint32_t Hidden; ///< holder value this entry hid when added (0: none)
  };
  struct Frame {
    uint32_t Capacity = 16;
    bool Explicit = false;
    uint32_t Live = 0;
    /// Words added to this frame, oldest first. The entry of a word the
    /// frame holds is the last one naming it; earlier entries are stale.
    std::vector<OwnedWord> Owned;
  };

  static uint32_t slotOf(uint64_t Word) {
    namespace D = jvm::handle_detail;
    return static_cast<uint32_t>((Word >> D::SlotShift) & D::SlotMask);
  }
  /// The entry of \p Word's slot if it holds \p Word, else nullptr.
  SlotEntry *entryOf(uint64_t Word) {
    uint32_t Slot = slotOf(Word);
    return Slot < Slots.size() && Slots[Slot].Word == Word ? &Slots[Slot]
                                                           : nullptr;
  }

  Frame &top() { return Frames[Depth - 1]; }
  void popFrame();
  /// Drops the top frame's stale entries, keeping each live word's entry.
  void compactTop();
  /// Grows the slot entries, doubling, until \p Slot has one.
  void grow(uint32_t Slot);
  /// Drops the word \p Entry holds from every frame holding it: a word the
  /// VM can no longer have live, because it reissued the slot.
  void dropEntry(SlotEntry &Entry);
  /// The newest entry of \p F's owned list naming \p Word.
  static const OwnedWord &newestOwned(const Frame &F, uint64_t Word);

  std::vector<Frame> Frames; ///< [0, Depth) active; the rest are spares
  uint32_t Depth = 0;
  std::vector<uint32_t> EntryDepths; ///< depth at each native entry
  std::vector<SlotEntry> Slots;      ///< indexed by local slot
};

} // namespace jinn::agent

#endif // JINN_JINN_LOCALREFSHADOW_H
