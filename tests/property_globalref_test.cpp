//===- tests/property_globalref_test.cpp - Lock-free shadow properties ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the lock-free shadow layouts:
///
///  1. GlobalSlotTable is a word set: seeded create / delete / use / adopt
///     sequences over global and weak handles, issued the way the VM
///     issues them (a LIFO free list, one generation bump per issue and
///     per delete), give the same answers from the slot table as from a
///     plain set of words — double deletes and handles of a reissued slot
///     included.
///  2. The global-reference machine against a VM-truth oracle: over seeded
///     JNI sequences (pre-agent references made with Vm::newGlobalRef and
///     adopted on first touch, double deletes, stale uses), a report fires
///     exactly when the word is not live in the VM, and the leak count at
///     VM death is the oracle's shadow set.
///  3. A 4-thread storm over the slot table and over JNI global references
///     (run it in the -DJINN_TSAN=ON tree).
///  4. The per-thread shadow block: nested critical resources, monitor
///     entries, and depths read from another thread.
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "jinn/Machines.h"
#include "jni/Marshal.h"
#include "support/Rng.h"

#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace jinn;
using namespace jinn::testing;
using jinn::agent::GlobalSlotTable;

namespace {

constexpr const char *GlobalRefMachineName = "Global or weak global reference";

//===----------------------------------------------------------------------===
// 1. The slot table against a word-set oracle
//===----------------------------------------------------------------------===

/// Issues global and weak handle words exactly as jvm::Vm does: freed
/// slots are reused last-in first-out, and every issue and every delete
/// bumps the slot's generation.
class SlotIssuer {
public:
  /// A new live handle word.
  uint64_t issue(bool Weak) {
    uint32_t Slot;
    if (!Free.empty()) {
      Slot = Free.back();
      Free.pop_back();
    } else {
      Slot = static_cast<uint32_t>(Gens.size());
      Gens.push_back(0);
    }
    jvm::HandleBits Bits;
    Bits.Kind = Weak ? jvm::RefKind::WeakGlobal : jvm::RefKind::Global;
    Bits.Slot = Slot;
    Bits.Gen = ++Gens[Slot];
    uint64_t Word = jvm::encodeHandle(Bits);
    Live.insert(Word);
    return Word;
  }
  /// The VM's delete: true when \p Word was its slot's live handle.
  bool release(uint64_t Word) {
    if (!Live.count(Word))
      return false;
    Live.erase(Word);
    uint32_t Slot = jvm::decodeHandle(Word)->Slot;
    ++Gens[Slot];
    Free.push_back(Slot);
    return true;
  }
  bool live(uint64_t Word) const { return Live.count(Word) != 0; }

private:
  std::vector<uint32_t> Gens;
  std::vector<uint32_t> Free;
  std::unordered_set<uint64_t> Live;
};

TEST(GlobalSlotTableProperty, AgreesWithWordSetOracle) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SplitMix64 Rng(Seed);
    SlotIssuer Vm;
    GlobalSlotTable Table;
    std::unordered_set<uint64_t> Oracle; // words live in the shadow
    std::vector<uint64_t> Issued;        // every word ever handed out
    for (int Step = 0; Step < 2000; ++Step) {
      const bool Weak = Rng.chance(1, 3);
      const uint64_t Op = Rng.nextBelow(5);
      switch (Op) {
      case 0: { // NewGlobalRef / NewWeakGlobalRef
        uint64_t Word = Vm.issue(Weak);
        Table.publish(Word);
        Oracle.insert(Word);
        Issued.push_back(Word);
        break;
      }
      case 1: { // a reference the agent never saw (created pre-agent)
        Issued.push_back(Vm.issue(Weak));
        break;
      }
      case 2:   // Delete*GlobalRef of any word ever issued
      case 3: { // use of any word ever issued (adopting live strangers)
        if (Issued.empty())
          break;
        uint64_t Word = Issued[Rng.nextBelow(Issued.size())];
        bool InOracle = Oracle.count(Word) != 0;
        if (Op == 2) {
          ASSERT_EQ(Table.retire(Word), InOracle) << "seed " << Seed;
          Oracle.erase(Word);
          Vm.release(Word);
        } else {
          ASSERT_EQ(Table.wordAt(Word) == Word, InOracle) << "seed " << Seed;
          if (!InOracle && Vm.live(Word)) {
            Table.publish(Word);
            Oracle.insert(Word);
          }
        }
        break;
      }
      default: // the leak count
        ASSERT_EQ(Table.liveCount(), Oracle.size()) << "seed " << Seed;
        break;
      }
    }
    EXPECT_EQ(Table.liveCount(), Oracle.size()) << "seed " << Seed;
  }
}

TEST(GlobalSlotTableProperty, DoubleDeleteAndReissuedSlot) {
  SlotIssuer Vm;
  GlobalSlotTable Table;
  uint64_t Old = Vm.issue(/*Weak=*/false);
  Table.publish(Old);
  EXPECT_TRUE(Table.retire(Old));
  EXPECT_FALSE(Table.retire(Old)); // double delete
  Vm.release(Old);
  uint64_t Reissued = Vm.issue(/*Weak=*/true); // same slot, next gen
  ASSERT_EQ(jvm::decodeHandle(Reissued)->Slot, jvm::decodeHandle(Old)->Slot);
  Table.publish(Reissued);
  EXPECT_NE(Table.wordAt(Old), Old); // the old word must not pass
  EXPECT_EQ(Table.wordAt(Reissued), Reissued);
  EXPECT_FALSE(Table.retire(Old));
  EXPECT_EQ(Table.liveCount(), 1u);
}

TEST(GlobalSlotTableProperty, FourThreadStorm) {
  // Each thread owns every fourth slot and churns its words; all threads
  // also read the others' slots, and all race to install the same fresh
  // chunks.
  constexpr int Threads = 4;
  constexpr uint32_t SlotsPerThread = 3000; // spans several chunks
  GlobalSlotTable Table;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(100 + T);
      std::vector<uint64_t> Mine(SlotsPerThread, 0);
      for (int Step = 0; Step < 40000; ++Step) {
        uint32_t I = static_cast<uint32_t>(Rng.nextBelow(SlotsPerThread));
        jvm::HandleBits Bits;
        Bits.Kind = jvm::RefKind::Global;
        Bits.Slot = I * Threads + T;
        if (Mine[I] == 0) {
          Bits.Gen = static_cast<uint32_t>(Step + 1);
          Mine[I] = jvm::encodeHandle(Bits);
          Table.publish(Mine[I]);
        } else if (Rng.chance(1, 2)) {
          Mismatches += !Table.retire(Mine[I]);
          Mismatches += Table.retire(Mine[I]); // second delete must fail
          Mine[I] = 0;
        } else {
          Mismatches += Table.wordAt(Mine[I]) != Mine[I];
        }
        Bits.Slot = I * Threads + (T + 1) % Threads; // a neighbour's slot
        Bits.Gen = 0;
        (void)Table.wordAt(jvm::encodeHandle(Bits));
      }
      for (uint64_t Word : Mine)
        if (Word)
          Mismatches += !Table.retire(Word);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_EQ(Table.liveCount(), 0u);
}

//===----------------------------------------------------------------------===
// 2. The machine against a VM-truth oracle
//===----------------------------------------------------------------------===

TEST(GlobalRefProperty, ReportsExactlyTheDeadWords) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    JinnWorld W;
    JNIEnv *Env = W.env();
    const JNINativeInterface_ *Fns = Env->functions;
    SplitMix64 Rng(Seed * 7919);
    jclass Object = Fns->FindClass(Env, "java/lang/Object");
    jobject Target = Fns->AllocObject(Env, Object);

    std::unordered_set<uint64_t> VmLive; // VM truth
    std::unordered_set<uint64_t> Shadow; // words the agent tracks
    std::vector<uint64_t> Issued;
    uint64_t Expected = 0;
    for (int Step = 0; Step < 300; ++Step) {
      const bool Weak = Rng.chance(1, 3);
      uint64_t Pick =
          Issued.empty() ? 0 : Issued[Rng.nextBelow(Issued.size())];
      switch (Rng.nextBelow(4)) {
      case 0: { // through JNI: the agent sees it
        jobject G = Weak ? Fns->NewWeakGlobalRef(Env, Target)
                         : Fns->NewGlobalRef(Env, Target);
        uint64_t Word = jni::handleWord(G);
        VmLive.insert(Word);
        Shadow.insert(Word);
        Issued.push_back(Word);
        break;
      }
      case 1: { // behind the agent's back, as before it attached
        uint64_t Word = W.Vm.newGlobalRef(W.Vm.newString("pre"), Weak);
        VmLive.insert(Word);
        Issued.push_back(Word);
        break;
      }
      case 2: { // delete: a dead word is a double free
        if (!Pick)
          break;
        jobject G = jni::wordToRef(Pick);
        if (jvm::decodeHandle(Pick)->Kind == jvm::RefKind::WeakGlobal)
          Fns->DeleteWeakGlobalRef(Env, G);
        else
          Fns->DeleteGlobalRef(Env, G);
        Expected += !VmLive.count(Pick);
        VmLive.erase(Pick);
        Shadow.erase(Pick);
        break;
      }
      default: { // use: a dead word dangles, a live stranger is adopted
        if (!Pick)
          break;
        jobject G = jni::wordToRef(Pick);
        Fns->IsSameObject(Env, G, G);
        if (VmLive.count(Pick))
          Shadow.insert(Pick);
        else
          ++Expected;
        break;
      }
      }
      Fns->ExceptionClear(Env);
      ASSERT_EQ(W.Jinn.reporter().countFor(GlobalRefMachineName), Expected)
          << "seed " << Seed << " step " << Step;
    }
    W.Vm.shutdown();
    std::vector<std::string> Leaks;
    for (const agent::JinnReport &R : W.Jinn.reporter().reports())
      if (R.EndOfRun && R.Machine == GlobalRefMachineName)
        Leaks.push_back(R.Message);
    if (Shadow.empty()) {
      EXPECT_TRUE(Leaks.empty()) << "seed " << Seed;
    } else {
      ASSERT_EQ(Leaks.size(), 1u) << "seed " << Seed;
      EXPECT_EQ(Leaks[0].rfind(std::to_string(Shadow.size()) + " global", 0),
                0u)
          << Leaks[0];
    }
    EXPECT_EQ(W.reportCount(), Expected + !Shadow.empty()) << "seed " << Seed;
  }
}

/// JinnWorld with explicit agent options.
class OptionsJinnWorld : public VmWorld {
public:
  explicit OptionsJinnWorld(agent::JinnOptions Options)
      : Host(Rt), Jinn(static_cast<agent::JinnAgent &>(Host.load(
                      std::make_unique<agent::JinnAgent>(
                          std::move(Options))))) {}

  jvmti::AgentHost Host;
  agent::JinnAgent &Jinn;
};

TEST(GlobalRefProperty, FourThreadJniStormIsSilent) {
  OptionsJinnWorld W((agent::JinnOptions()));
  // One global shared by every thread, used concurrently.
  JNIEnv *Main = W.env();
  jobject Shared =
      Main->functions->NewGlobalRef(Main, Main->functions->NewStringUTF(
                                              Main, "shared"));
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&, T] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      SplitMix64 Rng(T + 1);
      jstring S = Fns->NewStringUTF(Env, "storm");
      std::vector<jobject> Mine;
      for (int Step = 0; Step < 400; ++Step) {
        if (Mine.empty() || Rng.chance(1, 3)) {
          Mine.push_back(Rng.chance(1, 2) ? Fns->NewWeakGlobalRef(Env, S)
                                          : Fns->NewGlobalRef(Env, S));
        } else if (Rng.chance(1, 2)) {
          size_t I = Rng.nextBelow(Mine.size());
          if (Fns->GetObjectRefType(Env, Mine[I]) == JNIWeakGlobalRefType)
            Fns->DeleteWeakGlobalRef(Env, Mine[I]);
          else
            Fns->DeleteGlobalRef(Env, Mine[I]);
          Mine.erase(Mine.begin() + I);
        } else {
          Fns->IsSameObject(Env, Mine[Rng.nextBelow(Mine.size())], Shared);
        }
      }
      for (jobject G : Mine)
        if (Fns->GetObjectRefType(Env, G) == JNIWeakGlobalRefType)
          Fns->DeleteWeakGlobalRef(Env, G);
        else
          Fns->DeleteGlobalRef(Env, G);
      Fns->DeleteLocalRef(Env, S);
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Workers)
    Th.join();
  ASSERT_EQ(Failures.load(), 0);
  Main->functions->DeleteGlobalRef(Main, Shared);
  W.Vm.shutdown();
  EXPECT_TRUE(W.Jinn.reporter().reports().empty());
  // The storm takes no lock: the pin stripes' counter, the only one
  // published, reads 0 because nothing was pinned (the VM-death leak
  // sweep's locks are not counted).
  std::vector<std::string> Published;
  for (const auto &[Name, Count] : W.Vm.diags().counters())
    if (Name.rfind("jinn.lock_acquires.", 0) == 0)
      Published.push_back(Name);
  EXPECT_EQ(Published,
            std::vector<std::string>{"jinn.lock_acquires.pinned-resource"});
  EXPECT_EQ(W.Vm.diags().counter("jinn.lock_acquires.pinned-resource"),
            0u);
}

//===----------------------------------------------------------------------===
// 4. The per-thread shadow block
//===----------------------------------------------------------------------===

TEST(ThreadShadowProperty, NestedCriticalsAndMonitorsReadFromAnotherThread) {
  // Critical-section nesting is left out: it would (rightly) reject the
  // second critical acquire, and this case wants two held resources.
  agent::JinnOptions Options;
  Options.EnabledMachines = {"Critical-section state", "Monitor",
                             "Monitor balance"};
  OptionsJinnWorld W(std::move(Options));
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = Env->functions;
  agent::MachineSet &Machines = W.Jinn.machines();
  const uint32_t Tid = W.main().id();
  struct Depths {
    int Critical = -1, Monitor = -1;
  };
  // Reads the main thread's depths on a fresh thread, joined before use.
  auto observe = [&] {
    Depths Seen;
    std::thread Observer([&] {
      Seen.Critical = Machines.CriticalState.depthOf(Tid);
      Seen.Monitor = Machines.MonitorBalance.depthOf(Tid);
    });
    Observer.join();
    return Seen;
  };

  jintArray A = Fns->NewIntArray(Env, 4);
  jintArray B = Fns->NewIntArray(Env, 4);
  ASSERT_EQ(Fns->MonitorEnter(Env, A), JNI_OK);
  ASSERT_EQ(Fns->MonitorEnter(Env, A), JNI_OK);
  EXPECT_EQ(observe().Monitor, 2);

  void *CritA = Fns->GetPrimitiveArrayCritical(Env, A, nullptr);
  void *CritB = Fns->GetPrimitiveArrayCritical(Env, B, nullptr);
  ASSERT_NE(CritA, nullptr);
  ASSERT_NE(CritB, nullptr);
  Depths Inside = observe();
  EXPECT_EQ(Inside.Critical, 2);
  EXPECT_EQ(Inside.Monitor, 2);
  Fns->ReleasePrimitiveArrayCritical(Env, B, CritB, 0);
  EXPECT_EQ(observe().Critical, 1);
  Fns->ReleasePrimitiveArrayCritical(Env, A, CritA, 0);

  EXPECT_EQ(Fns->MonitorExit(Env, A), JNI_OK);
  EXPECT_EQ(Fns->MonitorExit(Env, A), JNI_OK);
  Depths After = observe();
  EXPECT_EQ(After.Critical, 0);
  EXPECT_EQ(After.Monitor, 0);
  // Balanced releases leave nothing held in the thread's block.
  const agent::ThreadShadow *Block = Machines.Threads.find(Tid);
  ASSERT_NE(Block, nullptr);
  EXPECT_EQ(Block->Held.size(), 0u);
  // An unknown thread reads as depth 0 rather than creating a block.
  EXPECT_EQ(Machines.CriticalState.depthOf(Tid + 1000), 0);

  W.Vm.shutdown();
  EXPECT_TRUE(W.Jinn.reporter().reports().empty());
}

TEST(ThreadShadowProperty, MonitorHeldAtDeathIsCountedOnce) {
  // Two entries of one monitor on one thread and one of another monitor
  // on a second thread: two distinct monitors leak.
  JinnWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = Env->functions;
  jclass Object = Fns->FindClass(Env, "java/lang/Object");
  jobject First = Fns->NewGlobalRef(Env, Fns->AllocObject(Env, Object));
  jobject Second = Fns->NewGlobalRef(Env, Fns->AllocObject(Env, Object));
  ASSERT_EQ(Fns->MonitorEnter(Env, First), JNI_OK);
  ASSERT_EQ(Fns->MonitorEnter(Env, First), JNI_OK);
  JavaVM *Jvm = W.Rt.javaVm();
  std::thread Other([&] {
    JNIEnv *OtherEnv = nullptr;
    ASSERT_EQ(Jvm->functions->AttachCurrentThread(Jvm, &OtherEnv, nullptr),
              JNI_OK);
    EXPECT_EQ(OtherEnv->functions->MonitorEnter(OtherEnv, Second), JNI_OK);
    Jvm->functions->DetachCurrentThread(Jvm);
  });
  Other.join();
  W.Vm.shutdown();
  std::vector<std::string> Leaks;
  for (const agent::JinnReport &R : W.Jinn.reporter().reports())
    if (R.EndOfRun && R.Machine == "Monitor")
      Leaks.push_back(R.Message);
  ASSERT_EQ(Leaks.size(), 1u);
  EXPECT_EQ(Leaks[0].rfind("2 monitor(s)", 0), 0u) << Leaks[0];
}

} // namespace
