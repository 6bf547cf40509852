//===- tests/property_localref_test.cpp - Local-ref fuzz properties ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the local-reference machine against randomized
/// programs:
///
///  1. No false positives: any *legal* sequence of acquire / delete /
///     push / pop / use operations produces zero Jinn reports.
///  2. No false negatives (for this machine's errors): injecting exactly
///     one use-after-delete or delete-after-delete into an otherwise legal
///     sequence always produces a report.
///  3. The shadow is the set-per-frame model: seeded random sequences give
///     the same live counts and verdicts from LocalRefShadow as from a
///     plain stack of word sets kept here as the oracle (with the slot
///     rule: acquiring a word drops the other word of its slot), and the
///     shadow's steady state allocates nothing.
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "jinn/LocalRefShadow.h"
#include "jvm/Handle.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_set>

using namespace jinn;
using namespace jinn::testing;
using jinn::agent::LocalRefShadow;

/// Every heap allocation in this binary, for the allocation-free checks.
static std::atomic<uint64_t> HeapAllocations{0};

void *operator new(std::size_t Size) {
  HeapAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// The nothrow form is replaced too (std::stable_sort's temporary buffer
// uses it), so every block the replaced deletes free came from malloc.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  HeapAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
// The replacement operator new above allocates with malloc, so free is
// the matching release; GCC cannot see that through the inlined callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
#pragma GCC diagnostic pop

namespace {

/// Drives a random legal local-reference workout; returns live handles.
void runLegalOps(JinnWorld &W, SplitMix64 &Rng, int Steps) {
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = Env->functions;
  Fns->EnsureLocalCapacity(Env, 4096); // legality: never overflow

  struct Frame {
    std::vector<jstring> Live;
  };
  std::vector<Frame> Frames(1);

  for (int I = 0; I < Steps; ++I) {
    switch (Rng.nextBelow(6)) {
    case 0:
    case 1: { // acquire
      jstring S = Fns->NewStringUTF(Env, "payload");
      ASSERT_NE(S, nullptr);
      Frames.back().Live.push_back(S);
      break;
    }
    case 2: { // legal use of a live reference
      if (!Frames.back().Live.empty()) {
        jstring S =
            Frames.back().Live[Rng.nextBelow(Frames.back().Live.size())];
        EXPECT_EQ(Fns->GetStringUTFLength(Env, S), 7);
      }
      break;
    }
    case 3: { // delete a live reference of the top frame
      if (!Frames.back().Live.empty()) {
        size_t Pick = Rng.nextBelow(Frames.back().Live.size());
        Fns->DeleteLocalRef(Env, Frames.back().Live[Pick]);
        Frames.back().Live.erase(Frames.back().Live.begin() + Pick);
      }
      break;
    }
    case 4: // push a frame
      if (Frames.size() < 6 && Fns->PushLocalFrame(Env, 4096) == JNI_OK)
        Frames.emplace_back();
      break;
    default: // pop a frame (its refs die legally)
      if (Frames.size() > 1) {
        Fns->PopLocalFrame(Env, nullptr);
        Frames.pop_back();
      }
      break;
    }
  }
  while (Frames.size() > 1) {
    Fns->PopLocalFrame(Env, nullptr);
    Frames.pop_back();
  }
  for (jstring S : Frames.back().Live)
    Fns->DeleteLocalRef(Env, S);
}

TEST(LocalRefProperty, LegalSequencesNeverReport) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    JinnWorld W;
    SplitMix64 Rng(Seed);
    runLegalOps(W, Rng, 300);
    W.Vm.shutdown();
    EXPECT_EQ(W.reportCount(), 0u) << "seed " << Seed;
  }
}

TEST(LocalRefProperty, InjectedUseAfterDeleteAlwaysReports) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    JinnWorld W;
    JNIEnv *Env = W.env();
    const JNINativeInterface_ *Fns = Env->functions;
    SplitMix64 Rng(Seed * 77);
    runLegalOps(W, Rng, static_cast<int>(Rng.nextBelow(100)));
    ASSERT_EQ(W.reportCount(), 0u);
    // Inject the bug.
    jstring Victim = Fns->NewStringUTF(Env, "victim!");
    Fns->DeleteLocalRef(Env, Victim);
    Fns->GetStringUTFLength(Env, Victim);
    EXPECT_EQ(W.Jinn.reporter().countFor("Local reference"), 1u)
        << "seed " << Seed;
  }
}

TEST(LocalRefProperty, InjectedDoubleDeleteAlwaysReports) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    JinnWorld W;
    JNIEnv *Env = W.env();
    const JNINativeInterface_ *Fns = Env->functions;
    SplitMix64 Rng(Seed * 131);
    runLegalOps(W, Rng, static_cast<int>(Rng.nextBelow(100)));
    jstring Victim = Fns->NewStringUTF(Env, "victim!");
    Fns->DeleteLocalRef(Env, Victim);
    Fns->DeleteLocalRef(Env, Victim);
    EXPECT_EQ(W.Jinn.reporter().countFor("Local reference"), 1u)
        << "seed " << Seed;
  }
}

TEST(LocalRefProperty, ShadowCountAgreesWithVmGroundTruth) {
  JinnWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = Env->functions;
  Fns->EnsureLocalCapacity(Env, 4096);
  SplitMix64 Rng(5);
  std::vector<jstring> Live;
  for (int I = 0; I < 400; ++I) {
    if (Rng.chance(3, 5)) {
      Live.push_back(Fns->NewStringUTF(Env, "x"));
    } else if (!Live.empty()) {
      size_t Pick = Rng.nextBelow(Live.size());
      Fns->DeleteLocalRef(Env, Live[Pick]);
      Live.erase(Live.begin() + Pick);
    }
    // Jinn's shadow bookkeeping vs. the VM's arena.
    EXPECT_EQ(W.Jinn.machines().LocalRef.liveCount(W.main().id()),
              W.main().liveLocalCount());
  }
}

//===----------------------------------------------------------------------===
// The shadow against the set-per-frame model
//===----------------------------------------------------------------------===

/// A local handle word of thread 1, the thread every shadow below stands
/// for.
uint64_t localWord(uint32_t Slot, uint32_t Gen) {
  jvm::HandleBits Bits;
  Bits.Kind = jvm::RefKind::Local;
  Bits.Thread = 1;
  Bits.Slot = Slot;
  Bits.Gen = Gen;
  return jvm::encodeHandle(Bits);
}

uint32_t slotOf(uint64_t Word) { return jvm::decodeHandle(Word)->Slot; }

/// The Figure 8 encoding in its plainest form: one word set per frame,
/// plus the slot rule the VM guarantees (a slot is reissued only after
/// its word died), under which acquiring a word drops any other word of
/// its slot from every frame. LocalRefShadow must answer exactly as this
/// does.
class SetPerFrameOracle {
public:
  explicit SetPerFrameOracle(uint32_t BaseCapacity) {
    pushFrame(BaseCapacity, false);
  }
  void pushFrame(uint32_t Capacity, bool Explicit) {
    Frames.push_back({Capacity, Explicit, {}});
  }
  bool popExplicitFrame() {
    if (!Frames.back().Explicit)
      return false;
    Frames.pop_back();
    return true;
  }
  void enterNative(uint32_t Capacity) {
    Entries.push_back(Frames.size());
    pushFrame(Capacity, false);
  }
  bool inNative() const { return !Entries.empty(); }
  size_t exitNative() {
    size_t Depth = Entries.back();
    Entries.pop_back();
    size_t Leaks = 0;
    for (; Frames.size() > Depth; Frames.pop_back())
      Leaks += Frames.back().Explicit;
    return Leaks;
  }
  void ensureCapacity(uint32_t Capacity) {
    Frames.back().Capacity = std::max(Frames.back().Capacity, Capacity);
  }
  size_t acquire(uint64_t Word) {
    for (Frame &F : Frames)
      std::erase_if(F.Live, [Word](uint64_t Held) {
        return Held != Word && slotOf(Held) == slotOf(Word);
      });
    Frames.back().Live.insert(Word);
    return Frames.back().Live.size();
  }
  bool tracks(uint64_t Word) const {
    for (const Frame &F : Frames)
      if (F.Live.count(Word))
        return true;
    return false;
  }
  bool release(uint64_t Word) {
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
      if (It->Live.erase(Word))
        return true;
    return false;
  }
  size_t liveCount() const {
    size_t N = 0;
    for (const Frame &F : Frames)
      N += F.Live.size();
    return N;
  }
  uint32_t topCapacity() const { return Frames.back().Capacity; }
  size_t depth() const { return Frames.size(); }

private:
  struct Frame {
    uint32_t Capacity;
    bool Explicit;
    std::unordered_set<uint64_t> Live;
  };
  std::vector<Frame> Frames;
  std::vector<size_t> Entries;
};

/// The machine's verdicts, computed from either shadow the way
/// LocalRefMachine computes them. \p VmLive is the VM's answer for a word
/// the shadow does not track (a pre-agent reference is live).
enum class Verdict { Ok, Overflow, Adopted, Dangling, PreAgent, DoubleFree };

template <typename ShadowT> Verdict acquireVerdict(ShadowT &S, uint64_t W) {
  return S.acquire(W) > S.topCapacity() ? Verdict::Overflow : Verdict::Ok;
}
template <typename ShadowT>
Verdict useVerdict(ShadowT &S, uint64_t W, bool VmLive) {
  if (S.tracks(W))
    return Verdict::Ok;
  if (!VmLive)
    return Verdict::Dangling;
  S.acquire(W);
  return Verdict::Adopted;
}
template <typename ShadowT>
Verdict deleteVerdict(ShadowT &S, uint64_t W, bool VmLive) {
  if (S.release(W))
    return Verdict::Ok;
  return VmLive ? Verdict::PreAgent : Verdict::DoubleFree;
}

/// A small pool of words so that words recur: acquired again while live in
/// a lower frame, deleted twice, used after their frame was popped. The
/// pool has more words than slots, so words 32-39 share their slot with
/// words 0-7 under a later generation and acquiring one drops the other.
/// Words 0-5 stand for pre-agent references the VM always reports live.
constexpr uint64_t PoolSize = 40;
constexpr uint32_t PoolSlots = 32;
constexpr uint64_t PreAgentWords = 6;
uint64_t poolWord(uint64_t I) {
  return localWord(static_cast<uint32_t>(I % PoolSlots),
                   static_cast<uint32_t>(1 + I / PoolSlots));
}

TEST(LocalRefShadowDifferential, RandomSequencesMatchSetPerFrameModel) {
  size_t MaxDepth = 0;
  uint64_t Recurring = 0; // acquires of a word some frame already holds
  uint64_t Evicting = 0;  // acquires of a word whose slot holds another
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    SplitMix64 Rng(Seed * 0x9E3779B97F4A7C15ULL);
    LocalRefShadow Shadow(4);
    SetPerFrameOracle Oracle(4);
    for (int Step = 0; Step < 4000; ++Step) {
      // Alternate climbing and descending phases so sequences reach depth
      // 64 and come back down.
      bool Climb = (Step / 300) % 2 == 0 && Oracle.depth() < 64;
      uint64_t Op = Rng.nextBelow(100);
      uint64_t I = Rng.nextBelow(PoolSize);
      uint64_t W = poolWord(I);
      bool VmLive = I < PreAgentWords || Oracle.tracks(W);
      uint32_t Capacity = 2 + static_cast<uint32_t>(Rng.nextBelow(6));
      SCOPED_TRACE(::testing::Message() << "seed " << Seed << " step " << Step
                                      << " op " << Op << " word " << I);
      if (Op < (Climb ? 12u : 3u)) { // native entry with two ref args
        Shadow.enterNative(Capacity);
        Oracle.enterNative(Capacity);
        for (uint64_t Arg : {W, poolWord(Rng.nextBelow(PoolSize))}) {
          Recurring += Oracle.tracks(Arg);
          Evicting += !Oracle.tracks(Arg) && Shadow.occupies(Arg);
          ASSERT_EQ(acquireVerdict(Shadow, Arg), acquireVerdict(Oracle, Arg));
        }
      } else if (Op < 24) { // PushLocalFrame, or native return
        if (Op < (Climb ? 22u : 15u)) {
          Shadow.pushFrame(Capacity, true);
          Oracle.pushFrame(Capacity, true);
        } else if (Oracle.inNative()) {
          ASSERT_TRUE(Shadow.inNative());
          ASSERT_EQ(Shadow.exitNative(), Oracle.exitNative());
        }
      } else if (Op < 34) { // PopLocalFrame
        ASSERT_EQ(Shadow.popExplicitFrame(), Oracle.popExplicitFrame());
      } else if (Op < 38) { // EnsureLocalCapacity
        Shadow.ensureCapacity(Capacity * 2);
        Oracle.ensureCapacity(Capacity * 2);
      } else if (Op < 64) { // acquire (a JNI function returned W)
        Recurring += Oracle.tracks(W);
        Evicting += !Oracle.tracks(W) && Shadow.occupies(W);
        ASSERT_EQ(acquireVerdict(Shadow, W), acquireVerdict(Oracle, W));
      } else if (Op < 82) { // use
        ASSERT_EQ(useVerdict(Shadow, W, VmLive), useVerdict(Oracle, W, VmLive));
      } else { // DeleteLocalRef
        ASSERT_EQ(deleteVerdict(Shadow, W, VmLive),
                  deleteVerdict(Oracle, W, VmLive));
      }
      ASSERT_EQ(Shadow.liveCount(), Oracle.liveCount());
      ASSERT_EQ(Shadow.topCapacity(), Oracle.topCapacity());
      ASSERT_EQ(Shadow.inNative(), Oracle.inNative());
      if (Step % 64 == 0) {
        for (uint64_t J = 0; J < PoolSize; ++J)
          ASSERT_EQ(Shadow.tracks(poolWord(J)), Oracle.tracks(poolWord(J)));
      }
      MaxDepth = std::max(MaxDepth, Oracle.depth());
    }
    while (Oracle.inNative())
      ASSERT_EQ(Shadow.exitNative(), Oracle.exitNative());
    ASSERT_EQ(Shadow.liveCount(), Oracle.liveCount());
  }
  EXPECT_GE(MaxDepth, 64u);
  EXPECT_GT(Recurring, 1000u);
  EXPECT_GT(Evicting, 1000u);
}

TEST(LocalRefShadowDifferential, CreateDeleteChurnKeepsOwnedListBounded) {
  LocalRefShadow Shadow;
  // Delete the newest word each time: the entry goes at once. The VM
  // hands the freed slot out again under the next generation.
  for (uint32_t I = 1; I <= 100000; ++I) {
    Shadow.acquire(localWord(0, I));
    ASSERT_TRUE(Shadow.release(localWord(0, I)));
    ASSERT_EQ(Shadow.topOwnedEntries(), 0u);
  }
  // Delete the previous word each time: stale entries pile up until
  // compaction drops them.
  Shadow.acquire(localWord(0, 0));
  for (uint32_t I = 1; I <= 100000; ++I) {
    Shadow.acquire(localWord(I % 2, I));
    ASSERT_TRUE(Shadow.release(localWord((I - 1) % 2, I - 1)));
    ASSERT_EQ(Shadow.liveCount(), 1u);
    ASSERT_LE(Shadow.topOwnedEntries(), 2 * Shadow.liveCount() + 16);
  }
}

TEST(LocalRefShadowDifferential, WordReacquiredInUpperFrameSurvivesItsPop) {
  const uint64_t W = localWord(7, 1);
  LocalRefShadow Shadow;
  Shadow.acquire(W);
  Shadow.pushFrame(16, /*Explicit=*/true);
  EXPECT_EQ(Shadow.acquire(W), 1u); // held by both frames now
  EXPECT_EQ(Shadow.liveCount(), 2u);
  EXPECT_TRUE(Shadow.popExplicitFrame());
  EXPECT_TRUE(Shadow.tracks(W));
  EXPECT_EQ(Shadow.liveCount(), 1u);

  // The same through a native frame, with the upper copy deleted and
  // acquired again before the return.
  Shadow.enterNative(16);
  Shadow.acquire(W);
  EXPECT_TRUE(Shadow.release(W)); // the upper copy goes first
  EXPECT_TRUE(Shadow.tracks(W));
  Shadow.acquire(W);
  EXPECT_EQ(Shadow.exitNative(), 0u);
  EXPECT_TRUE(Shadow.tracks(W));
  EXPECT_EQ(Shadow.liveCount(), 1u);
  EXPECT_TRUE(Shadow.release(W));
  EXPECT_FALSE(Shadow.tracks(W));
  EXPECT_FALSE(Shadow.release(W));
}

TEST(LocalRefShadowSlots, ReissuedSlotDropsTheDeadWordFromEveryFrame) {
  const uint64_t Dead = localWord(3, 1), Reissued = localWord(3, 2);
  LocalRefShadow Shadow;
  Shadow.acquire(localWord(0, 1));
  Shadow.acquire(Dead);
  Shadow.pushFrame(16, /*Explicit=*/true);
  Shadow.acquire(Dead); // held by both frames
  Shadow.pushFrame(16, /*Explicit=*/true);
  EXPECT_EQ(Shadow.liveCount(), 3u);
  // The VM reissued the slot, so Dead died: it leaves both frames.
  EXPECT_EQ(Shadow.acquire(Reissued), 1u);
  EXPECT_EQ(Shadow.liveCount(), 2u);
  EXPECT_FALSE(Shadow.tracks(Dead));
  EXPECT_TRUE(Shadow.tracks(Reissued));
  EXPECT_FALSE(Shadow.release(Dead)); // a double free from here on
  // Pops skip the dropped word's stale entries.
  EXPECT_TRUE(Shadow.popExplicitFrame());
  EXPECT_FALSE(Shadow.tracks(Reissued));
  EXPECT_EQ(Shadow.liveCount(), 1u);
  EXPECT_TRUE(Shadow.popExplicitFrame());
  EXPECT_EQ(Shadow.liveCount(), 1u);
  EXPECT_TRUE(Shadow.tracks(localWord(0, 1)));
  EXPECT_FALSE(Shadow.tracks(Dead));
}

TEST(LocalRefShadowSlots, OnlyTheWholeWordIsTracked) {
  namespace D = jvm::handle_detail;
  LocalRefShadow Shadow;
  const uint64_t W = localWord(5, 7);
  Shadow.acquire(W);
  EXPECT_TRUE(Shadow.tracks(W));
  // Same slot, another generation (a handle carries it mod 2^23).
  EXPECT_FALSE(Shadow.tracks(localWord(5, 8)));
  EXPECT_FALSE(Shadow.tracks(localWord(5, 6)));
  EXPECT_FALSE(Shadow.tracks(W ^ (uint64_t(1) << D::GenShift)));
  // Same slot and generation, another kind or thread.
  jvm::HandleBits Global = *jvm::decodeHandle(W);
  Global.Kind = jvm::RefKind::Global;
  Global.Thread = 0;
  EXPECT_FALSE(Shadow.tracks(jvm::encodeHandle(Global)));
  jvm::HandleBits Foreign = *jvm::decodeHandle(W);
  Foreign.Thread = 2;
  EXPECT_FALSE(Shadow.tracks(jvm::encodeHandle(Foreign)));
  EXPECT_FALSE(Shadow.release(jvm::encodeHandle(Foreign)));
  // A slot beyond every entry reads untracked.
  EXPECT_FALSE(Shadow.tracks(localWord(D::SlotMask, 7)));
  // Generations wrap at 2^23: the newest and the oldest differ.
  const uint64_t Newest = localWord(9, D::GenMask);
  Shadow.acquire(Newest);
  EXPECT_TRUE(Shadow.tracks(Newest));
  EXPECT_FALSE(Shadow.tracks(localWord(9, 0)));
  EXPECT_TRUE(Shadow.release(W));
  EXPECT_TRUE(Shadow.release(Newest));
  EXPECT_EQ(Shadow.liveCount(), 0u);
}

/// One native call's worth of shadow traffic on fresh words, like the
/// words a VM hands out (freed slots come back under a new generation):
/// entry with two arguments, uses, a JNI-returned reference deleted again,
/// an explicit frame, and the return.
void nativeCallCycle(LocalRefShadow &Shadow, uint32_t &Gen) {
  Shadow.enterNative(16);
  ++Gen;
  uint64_t Self = localWord(0, Gen), Arg = localWord(1, Gen);
  Shadow.acquire(Self);
  Shadow.acquire(Arg);
  for (int I = 0; I < 4; ++I) {
    uint64_t Made = localWord(2, ++Gen);
    Shadow.acquire(Made);
    (void)Shadow.tracks(Arg);
    (void)Shadow.tracks(Made);
    Shadow.release(Made);
  }
  Shadow.ensureCapacity(32);
  Shadow.pushFrame(8, /*Explicit=*/true);
  for (uint32_t Slot = 3; Slot < 9; ++Slot)
    Shadow.acquire(localWord(Slot, Gen));
  Shadow.release(localWord(3, Gen)); // oldest first: leaves an entry
  Shadow.popExplicitFrame();
  Shadow.exitNative();
}

TEST(LocalRefShadowDifferential, SteadyStateAllocatesNothing) {
  LocalRefShadow Shadow;
  uint32_t NextWord = 1;
  for (int I = 0; I < 64; ++I) // warm-up: frames, lists and table sized
    nativeCallCycle(Shadow, NextWord);
  uint64_t Before = HeapAllocations.load(std::memory_order_relaxed);
  for (int I = 0; I < 100000; ++I)
    nativeCallCycle(Shadow, NextWord);
  uint64_t After = HeapAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(After - Before, 0u);
  EXPECT_EQ(Shadow.liveCount(), 0u);
}

TEST(LocalRefShadowDifferential, CountChangeSeriesIsUnchanged) {
  JinnWorld W;
  jvm::ClassDef Def;
  Def.Name = "CountSeries";
  Def.nativeMethod("run", "()V", /*IsStatic=*/true);
  Def.nativeMethod("pick", "(Ljava/lang/Object;Ljava/lang/Object;)"
                           "Ljava/lang/Object;");
  W.define(Def);
  W.bindNative("CountSeries", "pick",
               "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;",
               [](JNIEnv *Env, jobject, const jvalue *Args) -> jvalue {
                 jvalue R;
                 R.l = Env->functions->NewLocalRef(Env, Args[1].l);
                 return R;
               });
  W.bindNative(
      "CountSeries", "run", "()V",
      [](JNIEnv *Env, jobject Cls, const jvalue *) -> jvalue {
        const JNINativeInterface_ *Fns = Env->functions;
        jstring A = Fns->NewStringUTF(Env, "a");
        jstring B = Fns->NewStringUTF(Env, "b");
        Fns->PushLocalFrame(Env, 4);
        jstring C = Fns->NewStringUTF(Env, "c");
        jobject D = Fns->NewLocalRef(Env, A);
        Fns->DeleteLocalRef(Env, C);
        Fns->GetStringUTFLength(Env, static_cast<jstring>(D));
        Fns->PopLocalFrame(Env, nullptr);
        Fns->EnsureLocalCapacity(Env, 32);
        jobject Obj = Fns->AllocObject(Env, static_cast<jclass>(Cls));
        jmethodID Pick = Fns->GetMethodID(
            Env, static_cast<jclass>(Cls), "pick",
            "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;");
        jobject Picked = Fns->CallObjectMethod(Env, Obj, Pick, A, B);
        Fns->DeleteLocalRef(Env, Picked);
        Fns->DeleteLocalRef(Env, A);
        Fns->DeleteLocalRef(Env, B);
        return jvalue{};
      });
  std::vector<size_t> Counts;
  W.Jinn.machines().LocalRef.OnCountChange =
      [&](uint32_t, size_t Live) { Counts.push_back(Live); };
  W.call("CountSeries", "run", "()V");
  EXPECT_EQ(W.reportCount(), 0u);
  // The series the set-per-frame shadow produced for this program.
  const std::vector<size_t> Expected = {1, 2, 3, 4, 5, 4, 3, 4, 5,
                                        6, 7, 8, 4, 5, 4, 3, 2, 0};
  EXPECT_EQ(Counts, Expected);
}

} // namespace
