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
///   - One open-addressed table (OpenMap) maps each live word to the
///     1-based depth of the topmost frame holding it. A use check is one
///     probe; the overflow check reads the top frame's live count.
///
/// The shadow has exactly the semantics of one word set per frame. A word
/// may be acquired again while it is live in a lower frame; its new owned
/// entry then remembers the table value it hides, and a pop or delete of
/// the upper entry restores it. The shadow keys on whole handle words and
/// assumes nothing about their encoding.
///
/// Thread-confined: only the thread whose transitions it shadows touches
/// it (see LocalRefMachine).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_LOCALREFSHADOW_H
#define JINN_JINN_LOCALREFSHADOW_H

#include "support/OpenMap.h"

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

  /// Adds \p Word to the top frame (a no-op when the top frame already
  /// holds it) and returns the top frame's live count.
  size_t acquire(uint64_t Word) {
    uint32_t &Holder = Table.findOrEmplace(Word, 0);
    Frame &Top = top();
    if ((Holder & DepthMask) == Depth)
      return Top.Live;
    if (Top.Owned.size() >= 2 * size_t(Top.Live) + 16)
      compactTop();
    Top.Owned.push_back({Word, Holder});
    Holder = Depth | (Holder ? HidesBit : 0);
    return ++Top.Live;
  }
  /// True when some frame holds \p Word.
  bool tracks(uint64_t Word) const { return Table.find(Word) != nullptr; }
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
  /// Table values: the holder's 1-based depth, plus HidesBit when a lower
  /// frame holds the word too. KeptBit marks words during compaction.
  static constexpr uint32_t HidesBit = 1u << 31;
  static constexpr uint32_t KeptBit = 1u << 30;
  static constexpr uint32_t DepthMask = KeptBit - 1;

  struct OwnedWord {
    uint64_t Word;
    uint32_t Hidden; ///< table value this entry hid when added (0: none)
  };
  struct Frame {
    uint32_t Capacity = 16;
    bool Explicit = false;
    uint32_t Live = 0;
    /// Words added to this frame, oldest first. The entry of a word the
    /// frame holds is the last one naming it; earlier entries are stale.
    std::vector<OwnedWord> Owned;
  };

  Frame &top() { return Frames[Depth - 1]; }
  void popFrame();
  /// Drops the top frame's stale entries, keeping each live word's entry.
  void compactTop();

  std::vector<Frame> Frames; ///< [0, Depth) active; the rest are spares
  uint32_t Depth = 0;
  std::vector<uint32_t> EntryDepths; ///< depth at each native entry
  OpenMap<uint32_t> Table;           ///< word -> holder depth | HidesBit
};

} // namespace jinn::agent

#endif // JINN_JINN_LOCALREFSHADOW_H
