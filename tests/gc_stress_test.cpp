//===- tests/gc_stress_test.cpp - Concurrent allocation vs. GC stress ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stress tests for the concurrent substrate VM (DESIGN.md §12): TLAB
/// allocation and incremental marking racing real mutator threads. The
/// invariants under test are the ones the bug detectors depend on:
///
///   (a) no live (reachable) object is ever reclaimed or corrupted,
///   (b) moving GC still invalidates stale ObjectIds — a reclaimed id
///       never resolves again, so the Table 1 dangling micros keep firing,
///   (c) the newborn handshake keeps a just-allocated object alive across
///       a collection triggered by its own allocation, on every thread.
///
/// The suite is meant to run clean under -fsanitize=thread and
/// -fsanitize=address (configure with -DJINN_TSAN=ON / -DJINN_ASAN=ON).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace jinn;
using namespace jinn::testing;
using jinn::jvm::HeapObject;
using jinn::jvm::ObjectId;

namespace {

constexpr int NumThreads = 4;

jvm::VmOptions stressOptions() {
  jvm::VmOptions Options;
  Options.IncrementalMark = true;
  Options.GcMarkStepBudget = 16; // many mark pauses -> many mutator windows
  Options.TlabSlots = 8;         // frequent refills contend on the heap lock
  Options.MoveOnGc = true;
  return Options;
}

/// Spin barrier so worker phases line up without depending on <barrier>.
struct SpinBarrier {
  explicit SpinBarrier(int N) : Target(N) {}
  void arriveAndWait() {
    int Gen = Generation.load(std::memory_order_acquire);
    if (Arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == Target) {
      Arrived.store(0, std::memory_order_relaxed);
      Generation.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    while (Generation.load(std::memory_order_acquire) == Gen)
      std::this_thread::yield();
  }
  const int Target;
  std::atomic<int> Arrived{0};
  std::atomic<int> Generation{0};
};

// (a) Live objects survive: workers build object graphs (arrays of strings,
// exercising the SetObjectArrayElement write barrier) and re-read them while
// a dedicated collector thread runs back-to-back incremental cycles.
TEST(GcStress, ConcurrentAllocatorsVsIncrementalCollector) {
  VmWorld W(stressOptions());
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<int> Failures{0};
  std::atomic<bool> Done{false};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      jclass StringCls = Fns->FindClass(Env, "java/lang/String");
      for (int I = 0; I < 200; ++I) {
        jobjectArray Arr = Fns->NewObjectArray(Env, 4, StringCls, nullptr);
        for (jsize K = 0; K < 4; ++K) {
          jstring S = Fns->NewStringUTF(Env, "payload");
          // Stores into a possibly-already-marked container: the dirty
          // barrier must re-grey Arr or the payload dies mid-cycle.
          Fns->SetObjectArrayElement(Env, Arr, K, S);
          Fns->DeleteLocalRef(Env, S);
        }
        for (jsize K = 0; K < 4; ++K) {
          jstring S = static_cast<jstring>(
              Fns->GetObjectArrayElement(Env, Arr, K));
          if (Fns->GetStringUTFLength(Env, S) != 7)
            ++Failures;
          Fns->DeleteLocalRef(Env, S);
        }
        Fns->DeleteLocalRef(Env, Arr);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  std::thread Collector([&] {
    // do-while: on a loaded box the workers can all finish before this
    // thread is first scheduled, and the stats assertions below need at
    // least one completed cycle.
    do
      W.Vm.gc();
    while (!Done.load(std::memory_order_acquire));
  });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true, std::memory_order_release);
  Collector.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_FALSE(W.main().Poisoned);
  EXPECT_GT(W.Vm.heap().stats().MarkIncrements, 0u);
  EXPECT_GT(W.Vm.heap().stats().MovingGcCount, 0u);
}

// (b) Stale ids stay stale: ids whose objects were dropped concurrently
// must never resolve after collection, while rooted ids keep resolving with
// intact payloads and fresh simulated addresses (motion still happens).
TEST(GcStress, MovingGcInvalidatesDroppedIdsAndPreservesRootedOnes) {
  VmWorld W(stressOptions());
  std::atomic<int> Failures{0};
  std::vector<std::vector<ObjectId>> Dropped(NumThreads);
  std::vector<std::vector<ObjectId>> Rooted(NumThreads);
  std::atomic<bool> Done{false};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < 150; ++I) {
        ObjectId Keep;
        {
          // Allocate and root inside one mutator scope, the way a JNI
          // call does: outside it the collector may run between the two
          // and reclaim the still-unrooted string.
          jvm::Vm::MutatorScope Scope(W.Vm);
          Keep = W.Vm.newStringUtf16(u"rooted-payload");
          W.Vm.newGlobalRef(Keep, /*Weak=*/false); // root it for the VM's life
        }
        Rooted[T].push_back(Keep);
        // Allocated and immediately dropped: reclaimable garbage.
        Dropped[T].push_back(W.Vm.newPrimArray(jvm::JType::Int, 16));
      }
    });
  std::thread Collector([&] {
    while (!Done.load(std::memory_order_acquire))
      W.Vm.gc();
  });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true, std::memory_order_release);
  Collector.join();

  // Two full cycles from quiescence: anything the racing cycles left
  // floating is gone after the second.
  W.Vm.gc();
  W.Vm.gc();
  for (int T = 0; T < NumThreads; ++T) {
    for (ObjectId Id : Dropped[T]) {
      EXPECT_EQ(W.Vm.heap().resolve(Id), nullptr);
      EXPECT_TRUE(W.Vm.heap().isStale(Id));
    }
    for (ObjectId Id : Rooted[T]) {
      HeapObject *Obj = W.Vm.heap().resolve(Id);
      ASSERT_NE(Obj, nullptr);
      EXPECT_EQ(Obj->Chars, u"rooted-payload");
      EXPECT_GT(Obj->MoveCount, 0u); // the simulated mover still ran
    }
  }
  EXPECT_EQ(Failures.load(), 0);
}

// (c) Newborn handshake: AutoGcPeriod=1 triggers a collection inside every
// allocation, from whichever thread trips the period. The object each call
// returns must be usable immediately — the Newborn slot publication closes
// the allocated-but-unreachable window.
TEST(GcStress, NewbornSurvivesGcTriggeredByItsOwnAllocation) {
  jvm::VmOptions Options = stressOptions();
  Options.AutoGcPeriod = 1;
  Options.GcMarkStepBudget = 4;
  VmWorld W(Options);
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      for (int I = 0; I < 100; ++I) {
        jstring S = Fns->NewStringUTF(Env, "newborn");
        if (Fns->GetStringUTFLength(Env, S) != 7)
          ++Failures;
        Fns->DeleteLocalRef(Env, S);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(W.Vm.heap().stats().GcCount, 0u);
}

// Regression (ISSUE satellite 1): concurrent findClass on a not-yet-defined
// array class must return one canonical Klass* — the shared->unique window
// re-probes under the definition lock instead of defining twice.
TEST(GcStress, ConcurrentArrayClassLookupYieldsOneKlass) {
  VmWorld W;
  constexpr int Lookups = 8;
  SpinBarrier Barrier(Lookups);
  std::vector<jvm::Klass *> Results(Lookups, nullptr);
  std::vector<std::thread> Threads;
  for (int T = 0; T < Lookups; ++T)
    Threads.emplace_back([&, T] {
      Barrier.arriveAndWait(); // maximize same-instant definition attempts
      Results[T] = W.Vm.findClass("[[Ljava/lang/String;");
    });
  for (std::thread &Th : Threads)
    Th.join();
  ASSERT_NE(Results[0], nullptr);
  for (int T = 1; T < Lookups; ++T)
    EXPECT_EQ(Results[T], Results[0]);
  // The element class chain was defined exactly once too.
  EXPECT_EQ(W.Vm.findClass("[[Ljava/lang/String;"), Results[0]);
}

// The dangling-reference detection path end to end, after racing cycles:
// a stale id observed through JNI still routes through the undefined-op
// policy (the Table 1 dangling micros depend on exactly this).
TEST(GcStress, DanglingDetectionStillFiresAfterConcurrentCycles) {
  VmWorld W(stressOptions());
  std::atomic<bool> Done{false};
  std::thread Collector([&] {
    while (!Done.load(std::memory_order_acquire))
      W.Vm.gc();
  });
  ObjectId Doomed;
  for (int I = 0; I < 50; ++I)
    Doomed = W.Vm.newPrimArray(jvm::JType::Int, 4);
  Done.store(true, std::memory_order_release);
  Collector.join();
  W.Vm.gc();
  W.Vm.gc();
  EXPECT_TRUE(W.Vm.heap().isStale(Doomed));
  EXPECT_EQ(W.Vm.heap().resolve(Doomed), nullptr);
}

// Report determinism across the new substrate knobs: the same
// single-threaded violation sequence must produce byte-identical report
// lists whether the mark is incremental or monolithic, and whatever the
// TLAB batch size — the knobs change pause shape, never detection.
TEST(GcStress, SubstrateKnobsDoNotChangeReports) {
  auto runConfig = [](jvm::VmOptions Options) {
    Options.AutoGcPeriod = 8; // collections interleave with the violations
    JinnWorld W(Options);
    JNIEnv *Env = W.env();
    const JNINativeInterface_ *Fns = Env->functions;
    for (int I = 0; I < 20; ++I) {
      jstring S = Fns->NewStringUTF(Env, "doomed");
      jobject G = Fns->NewGlobalRef(Env, S);
      Fns->DeleteGlobalRef(Env, G);
      Fns->DeleteGlobalRef(Env, G); // violation: global double free
      Fns->ExceptionClear(Env);
      Fns->DeleteLocalRef(Env, S);
      Fns->GetStringUTFLength(Env, S); // violation: dangling local use
      Fns->ExceptionClear(Env);
      W.Vm.gc();
    }
    W.Vm.shutdown();
    std::vector<std::string> Out;
    for (const agent::JinnReport &Report : W.reports())
      Out.push_back(Report.Machine + "|" + Report.Function + "|" +
                    Report.Message);
    return Out;
  };

  jvm::VmOptions Monolithic;
  Monolithic.IncrementalMark = false;
  jvm::VmOptions TinySteps;
  TinySteps.IncrementalMark = true;
  TinySteps.GcMarkStepBudget = 4;
  TinySteps.TlabSlots = 1;
  std::vector<std::string> Defaults = runConfig(jvm::VmOptions());
  EXPECT_EQ(Defaults.size(), 40u);
  EXPECT_EQ(runConfig(Monolithic), Defaults);
  EXPECT_EQ(runConfig(TinySteps), Defaults);
}

} // namespace
