//===- tests/concurrency_test.cpp - Multi-threaded JNI/VM stress tests ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// True multi-threaded execution: several OS threads attach through the
/// invocation interface and hammer local/global references, string and
/// array allocation, monitors, and the collector concurrently — with and
/// without the Jinn agent interposed. The suite is meant to run clean
/// under -fsanitize=thread (configure with -DJINN_TSAN=ON).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "scenarios/Scenarios.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace jinn;
using namespace jinn::testing;

namespace {

constexpr int NumThreads = 4;

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

TEST(Concurrency, LocalAndGlobalRefsAcrossThreads) {
  VmWorld W;
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
      for (int I = 0; I < 200; ++I) {
        jstring S = Fns->NewStringUTF(Env, "concurrent");
        if (Fns->GetStringUTFLength(Env, S) != 10)
          ++Failures;
        jobject G = Fns->NewGlobalRef(Env, S);
        Fns->DeleteLocalRef(Env, S);
        if (Fns->GetStringUTFLength(Env, static_cast<jstring>(G)) != 10)
          ++Failures;
        if (I % 16 == 0) {
          if (Fns->PushLocalFrame(Env, 8) == JNI_OK) {
            jstring Inner = Fns->NewStringUTF(Env, "frame-local");
            if (Fns->GetStringUTFLength(Env, Inner) != 11)
              ++Failures;
            Fns->PopLocalFrame(Env, nullptr);
          }
        }
        Fns->DeleteGlobalRef(Env, G);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_FALSE(W.main().Poisoned);
}

TEST(Concurrency, AllocationSurvivesAutoGcOnAllThreads) {
  jvm::VmOptions Options;
  Options.AutoGcPeriod = 32; // collect aggressively while workers allocate
  VmWorld W(Options);
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      for (int I = 0; I < 150; ++I) {
        jintArray Arr = Fns->NewIntArray(Env, 8);
        jint Out[8] = {0};
        jint In[8] = {T, I, T + I, T * I, 1, 2, 3, 4};
        Fns->SetIntArrayRegion(Env, Arr, 0, 8, In);
        jstring S = Fns->NewStringUTF(Env, "gc-survivor");
        Fns->GetIntArrayRegion(Env, Arr, 0, 8, Out);
        if (std::memcmp(In, Out, sizeof In) != 0)
          ++Failures;
        if (Fns->GetStringUTFLength(Env, S) != 11)
          ++Failures;
        Fns->DeleteLocalRef(Env, S);
        Fns->DeleteLocalRef(Env, Arr);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(W.Vm.heap().stats().GcCount, 0u);
}

TEST(Concurrency, ExplicitGcRacesMutators) {
  VmWorld W;
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
      for (int I = 0; I < 120; ++I) {
        jstring S = Fns->NewStringUTF(Env, "raced");
        if (Fns->GetStringUTFLength(Env, S) != 5)
          ++Failures;
        Fns->DeleteLocalRef(Env, S);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  std::thread Collector([&] {
    while (!Done.load(std::memory_order_acquire))
      W.Vm.gc(); // stop-the-world from an unattached host thread
  });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true, std::memory_order_release);
  Collector.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(Concurrency, MonitorsBalanceAcrossThreads) {
  VmWorld W;
  JavaVM *Jvm = W.Rt.javaVm();
  // A shared object all workers contend on, published as a global ref.
  JNIEnv *Main = W.env();
  jstring Local = Main->functions->NewStringUTF(Main, "shared-lock");
  jobject Shared = Main->functions->NewGlobalRef(Main, Local);
  Main->functions->DeleteLocalRef(Main, Local);

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
        // The simulator cannot block a logical thread, so a contended
        // MonitorEnter surfaces as JNI_ERR (with no pending exception);
        // retry until the owner releases. A bounded spin keeps a genuine
        // failure from hanging the test.
        jint Rc = JNI_ERR;
        for (int Spin = 0; Spin < 100000; ++Spin) {
          Rc = Fns->MonitorEnter(Env, Shared);
          if (Rc == JNI_OK || Fns->ExceptionCheck(Env))
            break;
          std::this_thread::yield();
        }
        if (Rc != JNI_OK) {
          ++Failures;
          continue;
        }
        if (Fns->MonitorExit(Env, Shared) != JNI_OK)
          ++Failures;
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(W.Vm.heldMonitorCount(), 0u);
  Main->functions->DeleteGlobalRef(Main, Shared);
}

TEST(Concurrency, JinnStaysSilentOnCorrectConcurrentUsage) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  scenarios::ScenarioWorld World(Config);
  workloads::prepareWorkloadWorld(World);
  const workloads::WorkloadInfo &Info = *workloads::workloadByName("db");
  workloads::WorkloadRun Run =
      workloads::runWorkloadConcurrent(Info, World, 64, NumThreads);
  EXPECT_GT(Run.JniCalls, 0u);
  ASSERT_NE(World.Jinn, nullptr);
  EXPECT_TRUE(World.Jinn->reporter().reports().empty());
}

TEST(Concurrency, NoViolationIsLostUnderContention) {
  JinnWorld W;
  JavaVM *Jvm = W.Rt.javaVm();
  SpinBarrier Barrier(NumThreads);
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
      jstring S = Fns->NewStringUTF(Env, "doomed");
      jobject G = Fns->NewGlobalRef(Env, S);
      Fns->DeleteLocalRef(Env, S);
      Fns->DeleteGlobalRef(Env, G);
      // All first deletes are done before any second delete runs, so slot
      // recycling cannot re-adopt a word another worker is double-freeing.
      Barrier.arriveAndWait();
      Fns->DeleteGlobalRef(Env, G); // double free: one violation per thread
      Fns->ExceptionClear(Env);
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(W.Jinn.reporter().countFor("Global or weak global reference"),
            static_cast<size_t>(NumThreads));
}

TEST(Concurrency, RacingPinReleasesReportEachExtraRelease) {
  // Two threads release one pinned buffer per round: one release pairs
  // with the acquire, the other is a double free, whichever thread runs
  // first and however the two checks interleave with the winning release
  // freeing the runtime's buffer record. The checker copies what it needs
  // under the runtime's buffer lock, so the loser's check never reads a
  // freed record (run it in the ASan and TSan trees).
  constexpr int Rounds = 200;
  JinnWorld W;
  JavaVM *Jvm = W.Rt.javaVm();
  JNIEnv *Main = W.env();
  jintArray Local = Main->functions->NewIntArray(Main, 8);
  auto Shared =
      static_cast<jintArray>(Main->functions->NewGlobalRef(Main, Local));
  Main->functions->DeleteLocalRef(Main, Local);
  std::atomic<jint *> Elems{nullptr};
  SpinBarrier Barrier(2);
  std::atomic<int> Failures{0};
  auto Releaser = [&](bool Pins) {
    JNIEnv *Env = nullptr;
    if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
      ++Failures;
      return;
    }
    const JNINativeInterface_ *Fns = Env->functions;
    for (int R = 0; R < Rounds; ++R) {
      if (Pins)
        Elems.store(Fns->GetIntArrayElements(Env, Shared, nullptr));
      Barrier.arriveAndWait();
      Fns->ReleaseIntArrayElements(Env, Shared, Elems.load(), 0);
      Fns->ExceptionClear(Env);
      Barrier.arriveAndWait();
    }
    Jvm->functions->DetachCurrentThread(Jvm);
  };
  std::thread First(Releaser, true), Second(Releaser, false);
  First.join();
  Second.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(W.Rt.outstandingBuffers(), 0u);
  EXPECT_EQ(W.Jinn.reporter().countFor("Pinned or copied string or array"),
            static_cast<size_t>(Rounds));
  EXPECT_EQ(W.reportCount(), static_cast<size_t>(Rounds));
  Main->functions->DeleteGlobalRef(Main, Shared);
}

} // namespace
