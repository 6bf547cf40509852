//===- tests/shard_stress_test.cpp - Striped shadow-state stress tests ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stress for the concurrency-scalable shadow-state layout: N OS threads
/// hammer create/use/delete of global references, monitors, and pinned
/// resources across shard boundaries, with and without deliberate
/// violations. The report list must match a single-threaded run of the
/// same logical scenarios (and keep exact program order on one thread),
/// warm clean crossings must take no lock but the pin stripes, and the
/// whole suite must run clean under -fsanitize=thread (configure with
/// -DJINN_TSAN=ON). The OpenMap each
/// shard holds is checked on its own: backward-shift erase across the
/// slab's wrap-around, and a fixed slab under insert/erase churn.
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "support/OpenMap.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace jinn;
using namespace jinn::testing;

namespace {

constexpr int NumThreads = 4;
constexpr int Iterations = 50;

/// Balanced churn over the three striped resource machines; no violation.
void correctChurn(JNIEnv *Env, int Rounds) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (int I = 0; I < Rounds; ++I) {
    jstring S = Fns->NewStringUTF(Env, "churn");
    jobject G = Fns->NewGlobalRef(Env, S);
    Fns->GetStringUTFLength(Env, static_cast<jstring>(G));
    if (Fns->MonitorEnter(Env, G) == JNI_OK)
      Fns->MonitorExit(Env, G);
    jintArray Arr = Fns->NewIntArray(Env, 4);
    if (jint *Elems = Fns->GetIntArrayElements(Env, Arr, nullptr))
      Fns->ReleaseIntArrayElements(Env, Arr, Elems, 0);
    Fns->DeleteLocalRef(Env, Arr);
    Fns->DeleteGlobalRef(Env, G);
    Fns->DeleteLocalRef(Env, S);
  }
}

/// One deterministic violation bundle: a global-ref double free, a pinned
/// double free, and a dangling local use — three reports, all with
/// thread-independent messages, resources balanced afterwards.
void violationBundle(JNIEnv *Env) {
  const JNINativeInterface_ *Fns = Env->functions;

  jstring S = Fns->NewStringUTF(Env, "doomed");
  jobject G = Fns->NewGlobalRef(Env, S);
  Fns->DeleteGlobalRef(Env, G);
  Fns->DeleteGlobalRef(Env, G); // violation 1: global double free
  Fns->ExceptionClear(Env);

  jintArray Arr = Fns->NewIntArray(Env, 8);
  jint *Elems = Fns->GetIntArrayElements(Env, Arr, nullptr);
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, 0);
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, 0); // violation 2: pin
  Fns->ExceptionClear(Env);
  Fns->DeleteLocalRef(Env, Arr);

  Fns->DeleteLocalRef(Env, S);
  Fns->GetStringUTFLength(Env, S); // violation 3: dangling local use
  Fns->ExceptionClear(Env);
}

/// Canonical order for comparing report lists across runs whose thread
/// interleavings differ.
std::vector<std::tuple<std::string, std::string, std::string, bool>>
canonical(const std::vector<agent::JinnReport> &Reports) {
  std::vector<std::tuple<std::string, std::string, std::string, bool>> Out;
  Out.reserve(Reports.size());
  for (const agent::JinnReport &Report : Reports)
    Out.emplace_back(Report.Machine, Report.Function, Report.Message,
                     Report.EndOfRun);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Runs \p Body on \p Threads attached OS threads (Body(Env) per thread),
/// or inline on the main thread Threads times when Threads == 0.
template <typename Fn>
void runOnThreads(VmWorld &W, int Threads, Fn Body) {
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      Body(Env);
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Workers)
    Th.join();
  ASSERT_EQ(Failures.load(), 0);
}

/// The names of the "jinn.lock_acquires.*" counters \p W published.
std::vector<std::string> publishedLockCounters(VmWorld &W) {
  std::vector<std::string> Published;
  for (const auto &[Name, Count] : W.Vm.diags().counters())
    if (Name.rfind("jinn.lock_acquires.", 0) == 0)
      Published.push_back(Name);
  return Published;
}

TEST(ShardStress, CorrectChurnAcrossShardBoundariesIsSilent) {
  JinnWorld W;
  runOnThreads(W, NumThreads,
               [](JNIEnv *Env) { correctChurn(Env, Iterations); });
  W.Vm.shutdown();
  EXPECT_TRUE(W.Jinn.reporter().reports().empty());
  // The pin stripes are the only shadow lock, and the only one whose
  // contention proxy is published: global refs, monitors and the thread
  // blocks take no lock at all. Each of the churn's two pin transitions
  // per round takes one stripe lock; the VM-death leak sweep is not
  // counted.
  EXPECT_EQ(publishedLockCounters(W),
            std::vector<std::string>{"jinn.lock_acquires.pinned-resource"});
  EXPECT_EQ(W.Vm.diags().counter("jinn.lock_acquires.pinned-resource"),
            2u * NumThreads * Iterations);
}

/// One clean round of the four lock-free shadow families: a global
/// reference used and deleted, a monitor entered and exited, a critical
/// section, and an explicit local frame.
void cleanLockFreeMix(JNIEnv *Env) {
  const JNINativeInterface_ *Fns = Env->functions;
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jobject G = Fns->NewGlobalRef(Env, Arr);
  Fns->GetArrayLength(Env, static_cast<jarray>(G));
  if (Fns->MonitorEnter(Env, G) == JNI_OK)
    Fns->MonitorExit(Env, G);
  if (void *Elems = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr))
    Fns->ReleasePrimitiveArrayCritical(Env, Arr, Elems, 0);
  if (Fns->PushLocalFrame(Env, 4) == JNI_OK) {
    Fns->NewStringUTF(Env, "framed");
    Fns->PopLocalFrame(Env, nullptr);
  }
  Fns->DeleteGlobalRef(Env, G);
  Fns->DeleteLocalRef(Env, Arr);
}

TEST(ShardStress, WarmCleanCrossingsTakeNoShadowLock) {
  JinnWorld W;
  agent::MachineSet &Machines = W.Jinn.machines();
  cleanLockFreeMix(W.env()); // warm-up: the thread's shadow block
  uint64_t Before = Machines.lockAcquires();
  for (int I = 0; I < Iterations; ++I)
    cleanLockFreeMix(W.env());
  // No lock but the pin stripes, and those exactly once for each of the
  // mix's two critical-pin transitions per round.
  EXPECT_EQ(Machines.lockAcquires() - Before, 2u * Iterations);
  W.Vm.shutdown();
  EXPECT_TRUE(W.Jinn.reporter().reports().empty());
  EXPECT_EQ(publishedLockCounters(W),
            std::vector<std::string>{"jinn.lock_acquires.pinned-resource"});
}

TEST(ShardStress, MergedReportListMatchesSingleThreadedRun) {
  // N threads, each running the same deterministic violation bundles...
  JinnWorld Mt;
  runOnThreads(Mt, NumThreads, [](JNIEnv *Env) {
    for (int I = 0; I < Iterations; ++I)
      violationBundle(Env);
  });
  Mt.Vm.shutdown();

  // ...must merge to exactly the reports of one thread running all of
  // them sequentially (same multiset; order is canonicalized because OS
  // interleavings differ across runs).
  JinnWorld St;
  for (int T = 0; T < NumThreads; ++T)
    for (int I = 0; I < Iterations; ++I)
      violationBundle(St.env());
  St.Vm.shutdown();

  auto MtList = canonical(Mt.Jinn.reporter().reports());
  auto StList = canonical(St.Jinn.reporter().reports());
  ASSERT_EQ(MtList.size(),
            static_cast<size_t>(NumThreads * Iterations * 3));
  EXPECT_EQ(MtList, StList);
}

TEST(ShardStress, SingleThreadProgramOrderIsPreserved) {
  // On one OS thread the list must equal exact program order, not just
  // the same multiset.
  JinnWorld W;
  for (int I = 0; I < 5; ++I)
    violationBundle(W.env());
  W.Vm.shutdown();
  const std::vector<agent::JinnReport> &Reports = W.Jinn.reporter().reports();
  ASSERT_EQ(Reports.size(), 15u);
  for (int I = 0; I < 5; ++I) {
    EXPECT_EQ(Reports[I * 3 + 0].Machine, "Global or weak global reference");
    EXPECT_EQ(Reports[I * 3 + 1].Machine,
              "Pinned or copied string or array");
    EXPECT_EQ(Reports[I * 3 + 2].Machine, "Local reference");
  }
}

//===----------------------------------------------------------------------===
// OpenMap: backward-shift erase
//===----------------------------------------------------------------------===

/// The first \p Count keys (from 1 up, skipping \p Exclude) whose probe
/// starts at slot \p Home of a 16-slot map.
std::vector<uint64_t> keysHomedAt(size_t Home, size_t Count,
                                  const std::vector<uint64_t> &Exclude = {}) {
  std::vector<uint64_t> Keys;
  for (uint64_t K = 1; Keys.size() < Count; ++K)
    if (OpenMap<uint64_t>::homeSlot(K, 16) == Home &&
        std::find(Exclude.begin(), Exclude.end(), K) == Exclude.end())
      Keys.push_back(K);
  return Keys;
}

TEST(OpenMap, EraseInClusterWrappingTheSlabEndKeepsEveryKeyFindable) {
  // Keys homed at slots 14 and 15 spill over the end into 0, 1, ...; keys
  // homed at 0 and 1 then sit behind them. Twelve keys: no growth.
  std::vector<uint64_t> Keys = keysHomedAt(14, 2);
  for (size_t Home : {15, 0, 1}) {
    std::vector<uint64_t> More = keysHomedAt(Home, Home == 15 ? 4 : 3);
    Keys.insert(Keys.end(), More.begin(), More.end());
  }
  ASSERT_EQ(Keys.size(), 12u);
  // Erase each key alone, then every key in a seeded order.
  for (size_t Victim = 0; Victim <= Keys.size(); ++Victim) {
    OpenMap<uint64_t> Map;
    for (uint64_t K : Keys)
      Map.findOrEmplace(K, K * 3);
    ASSERT_EQ(Map.capacity(), 16u);
    std::vector<uint64_t> Order = Keys;
    if (Victim < Keys.size()) {
      Order = {Keys[Victim]};
    } else {
      SplitMix64 Rng(42);
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    }
    std::vector<uint64_t> Erased;
    for (uint64_t Gone : Order) {
      ASSERT_TRUE(Map.erase(Gone));
      ASSERT_FALSE(Map.erase(Gone));
      Erased.push_back(Gone);
      for (uint64_t K : Keys) {
        bool WasErased =
            std::find(Erased.begin(), Erased.end(), K) != Erased.end();
        const uint64_t *V = Map.find(K);
        if (WasErased) {
          EXPECT_EQ(V, nullptr) << "erased key " << K;
        } else {
          ASSERT_NE(V, nullptr) << "key " << K << " lost after erasing "
                                << Gone;
          EXPECT_EQ(*V, K * 3);
        }
      }
      EXPECT_EQ(Map.size(), Keys.size() - Erased.size());
    }
  }
}

TEST(OpenMap, ChurnAtFixedLiveSizeNeverResizesTheSlab) {
  constexpr uint64_t LiveSize = 1000;
  OpenMap<uint32_t> Map;
  for (uint64_t K = 1; K <= LiveSize; ++K)
    Map.findOrEmplace(K, static_cast<uint32_t>(K));
  const size_t Capacity = Map.capacity();
  // Erase the oldest key, insert a fresh one: a million times.
  for (uint64_t K = LiveSize + 1; K <= LiveSize + 1000000; ++K) {
    ASSERT_TRUE(Map.erase(K - LiveSize));
    Map.findOrEmplace(K, static_cast<uint32_t>(K));
    ASSERT_EQ(Map.capacity(), Capacity);
  }
  EXPECT_EQ(Map.size(), LiveSize);
  for (uint64_t K = 1000001; K <= LiveSize + 1000000; ++K)
    ASSERT_NE(Map.find(K), nullptr) << K;
  EXPECT_EQ(Map.find(1000), nullptr);
  EXPECT_EQ(Map.find(0), nullptr); // key 0 marks empty slots
}

} // namespace
