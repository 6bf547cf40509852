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
  // it is met (and moves the word's table value below this depth) before
  // any stale entry naming the same word.
  for (auto It = F.Owned.rbegin(); It != F.Owned.rend(); ++It) {
    uint32_t *Holder = Table.find(It->Word);
    if (!Holder || (*Holder & DepthMask) != Depth)
      continue; // deleted, or held here by a later entry
    if (It->Hidden)
      *Holder = It->Hidden;
    else
      Table.eraseFound(Holder);
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

bool LocalRefShadow::release(uint64_t Word) {
  uint32_t *Holder = Table.find(Word);
  if (!Holder)
    return false;
  Frame &F = Frames[(*Holder & DepthMask) - 1];
  --F.Live;
  size_t Last = F.Owned.size();
  if (*Holder & HidesBit) {
    // Rare: a lower frame holds the word too. Its entry here says which.
    while (F.Owned[--Last].Word != Word) {
    }
    *Holder = F.Owned[Last].Hidden;
  } else {
    Table.eraseFound(Holder);
  }
  // The common create/delete pattern releases the newest entry: drop it
  // now rather than leave it for compaction.
  if (!F.Owned.empty() && F.Owned.back().Word == Word)
    F.Owned.pop_back();
  return true;
}

void LocalRefShadow::compactTop() {
  Frame &F = top();
  // Keep, newest first, each entry whose word the table still maps to
  // this frame and was not kept already; KeptBit marks the kept words.
  size_t Out = F.Owned.size();
  for (size_t I = Out; I-- > 0;) {
    OwnedWord Entry = F.Owned[I];
    uint32_t *Holder = Table.find(Entry.Word);
    if (!Holder || (*Holder & (DepthMask | KeptBit)) != Depth)
      continue;
    *Holder |= KeptBit;
    F.Owned[--Out] = Entry;
  }
  F.Owned.erase(F.Owned.begin(), F.Owned.begin() + Out);
  for (const OwnedWord &Entry : F.Owned)
    *Table.find(Entry.Word) &= ~KeptBit;
  assert(F.Owned.size() == F.Live && "compaction lost a live word");
}

size_t LocalRefShadow::liveCount() const {
  size_t N = 0;
  for (uint32_t D = 0; D < Depth; ++D)
    N += Frames[D].Live;
  return N;
}
