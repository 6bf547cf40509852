//===- jvm/JThread.cpp - VM threads and local reference frames -----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvm/JThread.h"

#include "mutate/Mutation.h"

#include <cassert>

using namespace jinn::jvm;

JThread::JThread(Vm &Owner, uint32_t Id, std::string Name)
    : Owner(Owner), Id(Id), Name(std::move(Name)) {}

void JThread::pushFrame(uint32_t Capacity, bool Explicit) {
  LocalFrame Frame;
  Frame.Capacity = Capacity;
  Frame.Explicit = Explicit;
  Frames.push_back(std::move(Frame));
}

void JThread::invalidateSlot(uint32_t Index) {
  LocalSlot &Slot = Arena[Index];
  uint64_t State = Slot.State.load(std::memory_order_relaxed);
  if (!LocalSlot::liveOf(State))
    return;
  // The generation advances so outstanding handles to this slot are stale.
  // State changes before Target clears: a concurrent reader that saw the
  // old live state re-checks State after loading Target and rejects.
  Slot.State.store(LocalSlot::packState(LocalSlot::genOf(State) + 1, false),
                   std::memory_order_release);
  Slot.Target.store(0, std::memory_order_relaxed);
  FreeSlots.push_back(Index);
}

bool JThread::popFrame() {
  if (Frames.empty())
    return false;
  LocalFrame &Frame = Frames.back();
  for (uint32_t Index : Frame.OwnedSlots)
    invalidateSlot(Index);
  Frames.pop_back();
  return true;
}

uint64_t JThread::newLocalRef(ObjectId Target) {
  if (Frames.empty() || Target.isNull())
    return 0;
  uint32_t Index;
  if (!FreeSlots.empty()) {
    Index = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    Index = static_cast<uint32_t>(Arena.grow(1));
  }
  LocalSlot &Slot = Arena[Index];
  uint64_t Gen = LocalSlot::genOf(Slot.State.load(std::memory_order_relaxed));
  Gen += 1;
  // Target first, then State with release: a reader that observes the live
  // state is guaranteed to read this target (or detect the State change).
  Slot.Target.store(Target.raw(), std::memory_order_relaxed);
  Slot.State.store(LocalSlot::packState(Gen, true), std::memory_order_release);

  LocalFrame &Frame = Frames.back();
  Frame.OwnedSlots.push_back(Index);
  Frame.LiveCount += 1;
  if (Frame.LiveCount > Frame.Capacity) {
    Frame.Overflowed = true;
    OverflowedCapacity.store(true, std::memory_order_release);
  }

  HandleBits Bits;
  Bits.Kind = RefKind::Local;
  Bits.Thread = Id;
  Bits.Slot = Index;
  Bits.Gen = static_cast<uint32_t>(Gen); // encodeHandle keeps 23 bits
  return encodeHandle(Bits);
}

LocalRefState JThread::localRefState(const HandleBits &Bits) const {
  assert(Bits.Kind == RefKind::Local && "expected a local handle");
  if (Bits.Slot >= Arena.size())
    return LocalRefState::NeverIssued;
  uint64_t State = Arena[Bits.Slot].State.load(std::memory_order_acquire);
  if (!generationIssued(LocalSlot::genOf(State), Bits.Gen))
    return LocalRefState::NeverIssued;
  if (!LocalSlot::liveOf(State) ||
      !sameGeneration(LocalSlot::genOf(State), Bits.Gen))
    return LocalRefState::Stale;
  return LocalRefState::Live;
}

ObjectId JThread::resolveLocal(const HandleBits &Bits) const {
  if (Bits.Slot >= Arena.size())
    return ObjectId();
  const LocalSlot &Slot = Arena[Bits.Slot];
  uint64_t Before = Slot.State.load(std::memory_order_acquire);
  if (!LocalSlot::liveOf(Before) ||
      !sameGeneration(LocalSlot::genOf(Before), Bits.Gen))
    return ObjectId();
  uint64_t Target = Slot.Target.load(std::memory_order_acquire);
  // Seqlock-style re-check: if the slot was recycled between the two State
  // loads, report stale (null) rather than another resident's target.
  if (Slot.State.load(std::memory_order_acquire) != Before)
    return ObjectId();
  return ObjectId::fromRaw(Target);
}

bool JThread::deleteLocal(const HandleBits &Bits) {
  if (localRefState(Bits) != LocalRefState::Live)
    return false;
  // Account the deletion to the frame that owns the slot (usually the top).
  for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
    for (uint32_t Index : It->OwnedSlots) {
      if (Index != Bits.Slot)
        continue;
      uint64_t State = Arena[Index].State.load(std::memory_order_relaxed);
      if (LocalSlot::liveOf(State) &&
          sameGeneration(LocalSlot::genOf(State), Bits.Gen)) {
        It->LiveCount -= 1;
        invalidateSlot(Index);
        return true;
      }
    }
  }
  return false;
}

size_t JThread::liveLocalCount() const {
  size_t N = 0;
  size_t Size = Arena.size();
  for (size_t I = 0; I < Size; ++I)
    if (LocalSlot::liveOf(Arena[I].State.load(std::memory_order_acquire)))
      ++N;
  return N;
}

size_t JThread::liveLocalsInTopFrame() const {
  return Frames.empty() ? 0 : Frames.back().LiveCount;
}

bool JThread::ensureLocalCapacity(uint32_t Capacity) {
  if (Frames.empty())
    return false;
  if (mutate::active(mutate::M::JvmEnsureCapacityIgnored))
    return true; // mutant: success claimed, capacity never applied
  if (Frames.back().Capacity < Capacity)
    Frames.back().Capacity = Capacity;
  return true;
}

void JThread::collectRoots(std::vector<ObjectId> &Roots) const {
  size_t Size = Arena.size();
  for (size_t I = 0; I < Size; ++I) {
    const LocalSlot &Slot = Arena[I];
    if (!LocalSlot::liveOf(Slot.State.load(std::memory_order_acquire)))
      continue;
    ObjectId Target =
        ObjectId::fromRaw(Slot.Target.load(std::memory_order_acquire));
    if (!Target.isNull())
      Roots.push_back(Target);
  }
  if (!Pending.isNull())
    Roots.push_back(Pending);
  for (ObjectId Root : TempRootStack)
    if (!Root.isNull())
      Roots.push_back(Root);
}

std::string JThread::renderStack() const {
  std::string Out;
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    Out += "\tat ";
    Out += It->Display;
    Out += "\n";
  }
  return Out;
}
