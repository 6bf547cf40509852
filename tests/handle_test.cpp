//===- tests/handle_test.cpp - Handle encoding unit/property tests -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvm/Handle.h"
#include "jvm/Vm.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace jinn;
using namespace jinn::jvm;

namespace {

TEST(Handle, NullEncodesToZero) {
  HandleBits Bits;
  EXPECT_EQ(encodeHandle(Bits), 0u);
  auto Decoded = decodeHandle(0);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Kind, RefKind::Null);
}

TEST(Handle, RoundTripAllKinds) {
  for (RefKind Kind : {RefKind::Local, RefKind::Global,
                       RefKind::WeakGlobal}) {
    HandleBits In;
    In.Kind = Kind;
    In.Thread = 17;
    In.Slot = 12345;
    In.Gen = 999;
    auto Out = decodeHandle(encodeHandle(In));
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Kind, Kind);
    EXPECT_EQ(Out->Thread, 17u);
    EXPECT_EQ(Out->Slot, 12345u);
    EXPECT_EQ(Out->Gen, 999u);
  }
}

TEST(Handle, HeapPointersAreNotHandles) {
  // Canonical x86-64 heap/stack addresses have zero top bits — no magic.
  int Local = 0;
  auto P1 = decodeHandle(reinterpret_cast<uintptr_t>(&Local));
  EXPECT_FALSE(P1.has_value());
  auto Heap = std::make_unique<int>(7);
  auto P2 = decodeHandle(reinterpret_cast<uintptr_t>(Heap.get()));
  EXPECT_FALSE(P2.has_value());
}

TEST(Handle, WrongMagicRejected) {
  HandleBits In;
  In.Kind = RefKind::Local;
  In.Slot = 5;
  In.Gen = 1;
  uint64_t Word = encodeHandle(In);
  // Flip the magic nibble.
  EXPECT_FALSE(decodeHandle(Word ^ (0xFULL << 60)).has_value());
}

TEST(Handle, KindZeroWithMagicRejected) {
  // Magic present but kind bits 00: not a valid handle.
  uint64_t Word = 0xAULL << 60;
  EXPECT_FALSE(decodeHandle(Word).has_value());
}

TEST(Handle, FieldRangesRoundTripUnderRandomSweep) {
  SplitMix64 Rng(42);
  for (int I = 0; I < 2000; ++I) {
    HandleBits In;
    In.Kind = static_cast<RefKind>(1 + Rng.nextBelow(3));
    In.Thread = static_cast<uint32_t>(Rng.nextBelow(MaxThreadIds));
    In.Slot = static_cast<uint32_t>(
        Rng.nextBelow(handle_detail::SlotMask + 1));
    In.Gen = static_cast<uint32_t>(Rng.nextBelow(handle_detail::GenMask + 1));
    if (In.Gen == 0)
      In.Gen = 1;
    auto Out = decodeHandle(encodeHandle(In));
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Kind, In.Kind);
    EXPECT_EQ(Out->Thread, In.Thread);
    EXPECT_EQ(Out->Slot, In.Slot);
    EXPECT_EQ(Out->Gen, In.Gen);
  }
}

TEST(Handle, DistinctFieldsGiveDistinctWords) {
  HandleBits A, B;
  A.Kind = B.Kind = RefKind::Local;
  A.Thread = B.Thread = 1;
  A.Slot = 7;
  B.Slot = 7;
  A.Gen = 1;
  B.Gen = 2; // recycled slot: new generation
  EXPECT_NE(encodeHandle(A), encodeHandle(B));
}

// A handle keeps 23 generation bits; a slot's generation counter keeps
// counting past them. A slot recycled more than 2^23 times must still read
// its newest handle as Live (and its previous one as Stale), not as
// NeverIssued. The newest handle's word then repeats an early one's: the
// only way this VM reissues a handle word.
constexpr uint64_t GenerationWidth = 1ull << 23;

TEST(Handle, LocalSlotRecycledPastGenerationWidthReadsLive) {
  Vm V;
  JThread &Main = V.mainThread();
  ObjectId Obj = V.newString("target");
  uint64_t First = 0, Previous = 0, Newest = 0;
  for (uint64_t I = 0; I <= GenerationWidth + 1; ++I) {
    Main.pushFrame(1, /*Explicit=*/true);
    Previous = Newest;
    Newest = Main.newLocalRef(Obj);
    if (I == 0)
      First = Newest;
    if (I != GenerationWidth + 1)
      Main.popFrame(); // invalidates the slot and frees it for reuse
  }
  HandleBits Bits = *decodeHandle(Newest);
  EXPECT_EQ(Bits.Slot, decodeHandle(First)->Slot);
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Live);
  EXPECT_EQ(Main.resolveLocal(Bits), Obj);
  EXPECT_EQ(Main.localRefState(*decodeHandle(Previous)), LocalRefState::Stale);
  EXPECT_TRUE(Main.deleteLocal(Bits));
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Stale);
  Main.popFrame();
}

TEST(Handle, GlobalSlotRecycledPastGenerationWidthReadsLive) {
  Vm V;
  ObjectId Obj = V.newString("target");
  uint64_t Previous = 0, Newest = 0;
  for (uint64_t I = 0; I <= GenerationWidth + 1; ++I) {
    if (Newest) {
      ASSERT_TRUE(V.deleteGlobalRef(*decodeHandle(Newest)));
    }
    Previous = Newest;
    Newest = V.newGlobalRef(Obj, /*Weak=*/false);
  }
  HandleBits Bits = *decodeHandle(Newest);
  EXPECT_EQ(V.globalRefState(Bits), LocalRefState::Live);
  EXPECT_EQ(V.resolveGlobal(Bits), Obj);
  EXPECT_EQ(V.globalRefState(*decodeHandle(Previous)), LocalRefState::Stale);
  EXPECT_TRUE(V.deleteGlobalRef(Bits));
}

TEST(Handle, GenerationAheadOfAFreshSlotIsNeverIssued) {
  Vm V;
  JThread &Main = V.mainThread();
  HandleBits Bits = *decodeHandle(Main.newLocalRef(V.newString("target")));
  Bits.Gen += 1;
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::NeverIssued);
}

} // namespace
