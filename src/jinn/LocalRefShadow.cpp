//===- jinn/LocalRefShadow.cpp - Per-thread local-reference shadow -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/LocalRefShadow.h"

#include <cassert>

using namespace jinn::agent;

LocalRefShadow::LocalRefShadow(uint32_t BaseCapacity) {
  pushFrame(BaseCapacity, /*Explicit=*/false);
}

void LocalRefShadow::pushFrame(uint32_t Capacity, bool Explicit) {
  if (Depth == Frames.size())
    Frames.emplace_back();
  Frame &F = Frames[Depth++];
  F.Capacity = Capacity;
  F.Explicit = Explicit;
  F.Live = 0;
}

void LocalRefShadow::popFrame() {
  Frame &F = top();
  // Newest first: the entry of a word the frame holds is its last one, so
  // it is met (and moves the word's holder below this depth) before any
  // stale entry naming the same word.
  for (auto It = F.Owned.rbegin(); It != F.Owned.rend(); ++It) {
    SlotEntry *Entry = entryOf(It->Word);
    if (!Entry || (Entry->Holder & DepthMask) != Depth)
      continue; // deleted, dropped, or held here by a later entry
    if (It->Hidden)
      Entry->Holder = It->Hidden;
    else
      *Entry = SlotEntry();
  }
  F.Owned.clear();
  --Depth;
}

bool LocalRefShadow::popExplicitFrame() {
  if (!top().Explicit)
    return false;
  popFrame();
  return true;
}

void LocalRefShadow::enterNative(uint32_t Capacity) {
  EntryDepths.push_back(Depth);
  pushFrame(Capacity, /*Explicit=*/false);
}

size_t LocalRefShadow::exitNative() {
  assert(inNative() && "native return without a matching entry");
  uint32_t Target = EntryDepths.back();
  EntryDepths.pop_back();
  size_t ExplicitLeaks = 0;
  while (Depth > Target) {
    if (top().Explicit)
      ++ExplicitLeaks;
    popFrame();
  }
  return ExplicitLeaks;
}

const LocalRefShadow::OwnedWord &
LocalRefShadow::newestOwned(const Frame &F, uint64_t Word) {
  size_t Last = F.Owned.size();
  while (F.Owned[--Last].Word != Word) {
  }
  return F.Owned[Last];
}

bool LocalRefShadow::release(uint64_t Word) {
  SlotEntry *Entry = entryOf(Word);
  if (!Entry)
    return false;
  Frame &F = Frames[(Entry->Holder & DepthMask) - 1];
  --F.Live;
  // Rare: a lower frame holds the word too. Its entry here says which.
  if (Entry->Holder & HidesBit)
    Entry->Holder = newestOwned(F, Word).Hidden;
  else
    *Entry = SlotEntry();
  // The common create/delete pattern releases the newest entry: drop it
  // now rather than leave it for compaction.
  if (!F.Owned.empty() && F.Owned.back().Word == Word)
    F.Owned.pop_back();
  return true;
}

void LocalRefShadow::dropEntry(SlotEntry &Entry) {
  // Walk the holders from the topmost down; each frame's owned entry for
  // the word names the holder below it. The entries themselves go stale.
  for (uint32_t Holder = Entry.Holder; Holder;) {
    Frame &F = Frames[(Holder & DepthMask) - 1];
    --F.Live;
    Holder = Holder & HidesBit ? newestOwned(F, Entry.Word).Hidden : 0;
  }
  Entry = SlotEntry();
}

void LocalRefShadow::grow(uint32_t Slot) {
  size_t Size = Slots.empty() ? 16 : Slots.size();
  while (Size <= Slot)
    Size *= 2;
  Slots.resize(Size);
}

void LocalRefShadow::compactTop() {
  Frame &F = top();
  // Keep, newest first, each entry whose word the slot entries still map
  // to this frame and was not kept already; KeptBit marks the kept words.
  size_t Out = F.Owned.size();
  for (size_t I = Out; I-- > 0;) {
    OwnedWord Owned = F.Owned[I];
    SlotEntry *Entry = entryOf(Owned.Word);
    if (!Entry || (Entry->Holder & (DepthMask | KeptBit)) != Depth)
      continue;
    Entry->Holder |= KeptBit;
    F.Owned[--Out] = Owned;
  }
  F.Owned.erase(F.Owned.begin(), F.Owned.begin() + Out);
  for (const OwnedWord &Owned : F.Owned)
    entryOf(Owned.Word)->Holder &= ~KeptBit;
  assert(F.Owned.size() == F.Live && "compaction lost a live word");
}

size_t LocalRefShadow::liveCount() const {
  size_t N = 0;
  for (uint32_t D = 0; D < Depth; ++D)
    N += Frames[D].Live;
  return N;
}
