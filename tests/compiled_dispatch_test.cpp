//===- tests/compiled_dispatch_test.cpp - One compiled dispatch table ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every boundary observer — the synthesized machine checks, the trace
/// recorder, the sampler, hand-registered hooks — runs as a slot of one
/// compiled per-function program that the dispatcher republishes on every
/// change. This suite pins the contract down:
///
///  1. Parity: adding observers (the recorder, a no-op hook published
///     after load) never changes a report list, on every Table-1
///     microbenchmark and every checked-in fuzz reproducer, full and
///     ablated.
///  2. Shape: recording, sampling, interpose-only and foreign hooks all
///     run on the compiled table, with all-function slots first.
///  3. Republish under fire: installs that land while worker threads
///     storm crossings drop no crossing and race nothing. Meant to run
///     clean under -fsanitize=thread (configure with -DJINN_TSAN=ON).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Executor.h"
#include "jinn/JinnAgent.h"
#include "jni/JniRuntime.h"
#include "jvm/JThread.h"
#include "jvm/Vm.h"
#include "jvmti/Interpose.h"
#include "jvmti/Jvmti.h"
#include "scenarios/Scenarios.h"
#include "trace/Replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace jinn;

namespace {

scenarios::WorldConfig jinnConfig(std::vector<std::string> Machines = {}) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnEnabledMachines = std::move(Machines);
  return Config;
}

void expectSameReports(const std::vector<agent::JinnReport> &A,
                       const std::vector<agent::JinnReport> &B,
                       const char *Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Machine, B[I].Machine) << Label << " #" << I;
    EXPECT_EQ(A[I].Function, B[I].Function) << Label << " #" << I;
    EXPECT_EQ(A[I].Message, B[I].Message) << Label << " #" << I;
    EXPECT_EQ(A[I].EndOfRun, B[I].EndOfRun) << Label << " #" << I;
  }
}

/// Publishes a no-op pre and post hook on every function: a republish
/// after load that changes the program's shape but must change nothing
/// observable.
void addNoOpObservers(jvmti::InterposeDispatcher &D) {
  D.addPreAll([](jvmti::CapturedCall &) {});
  D.addPostAll([](jvmti::CapturedCall &) {});
}

void runObserverEquivalence(std::vector<std::string> Machines) {
  for (const scenarios::MicroInfo &Info : scenarios::allMicrobenchmarks()) {
    SCOPED_TRACE(Info.ClassName);
    scenarios::ScenarioWorld Inline(jinnConfig(Machines));
    EXPECT_TRUE(Inline.Jinn->fusedInstalled());
    scenarios::runMicrobenchmark(Info.Id, Inline);
    Inline.shutdown();

    scenarios::WorldConfig RecordConfig = jinnConfig(Machines);
    RecordConfig.JinnMode = agent::TraceMode::RecordAndReplay;
    scenarios::ScenarioWorld Recorded(RecordConfig);
    scenarios::runMicrobenchmark(Info.Id, Recorded);
    Recorded.shutdown();

    scenarios::ScenarioWorld Hooked(jinnConfig(Machines));
    addNoOpObservers(jvmti::dispatcherFor(Hooked.Rt));
    scenarios::runMicrobenchmark(Info.Id, Hooked);
    Hooked.shutdown();

    EXPECT_EQ(scenarios::classify(Inline), scenarios::classify(Recorded));
    EXPECT_EQ(scenarios::classify(Inline), scenarios::classify(Hooked));
    expectSameReports(Inline.Jinn->reporter().reports(),
                      Recorded.Jinn->reporter().reports(),
                      "inline-vs-recorded");
    expectSameReports(Inline.Jinn->reporter().reports(),
                      Hooked.Jinn->reporter().reports(), "inline-vs-hooked");
  }
}

TEST(CompiledDispatch, FullConfigurationReportsIdenticalAcrossObservers) {
  runObserverEquivalence({});
}

TEST(CompiledDispatch, AblatedConfigurationReportsIdenticalAcrossObservers) {
  // Only the local-reference machine: most functions carry no slot at all
  // and cross bare, and the result must still be report-preserving.
  runObserverEquivalence({"Local reference"});
}

TEST(CompiledDispatch, CorpusReproducersReportIdenticalAcrossObservers) {
  std::vector<std::string> Errors;
  std::vector<fuzz::CorpusEntry> Entries =
      fuzz::loadCorpusDir(JINN_SOURCE_DIR "/fuzz/corpus", Errors);
  for (const std::string &Error : Errors)
    ADD_FAILURE() << Error;
  ASSERT_FALSE(Entries.empty());
  for (const fuzz::CorpusEntry &Entry : Entries) {
    if (Entry.Seq.Domain == "py")
      continue; // the Python boundary has its own interposition
    SCOPED_TRACE(Entry.Name);
    // Inline checking alone, then the same checks behind the recorder's
    // slots (record+replay, which also runs the replay oracle).
    fuzz::ExecutorOptions Opts;
    Opts.RunXcheck = false;
    Opts.RunReplay = false;
    fuzz::ExecResult Inline = fuzz::runJniSequence(Entry.Seq, Opts);
    Opts.RunReplay = true;
    fuzz::ExecResult Recorded = fuzz::runJniSequence(Entry.Seq, Opts);

    EXPECT_EQ(Inline.Pass, Recorded.Pass);
    EXPECT_EQ(Inline.ExecutedOps, Recorded.ExecutedOps);
    expectSameReports(Inline.Inline, Recorded.Inline, "inline-vs-recorded");
  }
}

//===----------------------------------------------------------------------===
// Shape: every observer is a slot of the one compiled table.
//===----------------------------------------------------------------------===

TEST(CompiledDispatch, RecordingRunsOnTheCompiledTable) {
  for (agent::TraceMode Mode :
       {agent::TraceMode::RecordOnly, agent::TraceMode::RecordAndReplay}) {
    SCOPED_TRACE(agent::traceModeName(Mode));
    scenarios::WorldConfig Config = jinnConfig();
    Config.JinnMode = Mode;
    scenarios::ScenarioWorld World(Config);
    EXPECT_TRUE(World.Jinn->fusedInstalled());
    const jvmti::InterposeDispatcher &D = jvmti::dispatcherFor(World.Rt);
    const jvmti::DispatchTable &Table = *D.table();
    EXPECT_FALSE(Table.Sampling);
    const void *Recorder = World.Jinn->recorder();
    bool Checking = Mode != agent::TraceMode::RecordOnly;
    for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
      const jvmti::DispatchTable::FnRec &Rec = Table.Fns[I];
      // The recorder's slot leads both phases of every function.
      ASSERT_GE(Rec.PreCount, 1u) << jni::fnName(static_cast<jni::FnId>(I));
      ASSERT_GE(Rec.PostCount, 1u) << jni::fnName(static_cast<jni::FnId>(I));
      EXPECT_EQ(Table.Slots[Rec.PreBegin].Obj, Recorder);
      EXPECT_EQ(Table.Slots[Rec.PostBegin].Obj, Recorder);
      if (!Checking) {
        EXPECT_EQ(Rec.PreCount, 1u);
        EXPECT_EQ(Rec.PostCount, 1u);
      }
    }
    // JNIEnv state observes every function pre: with checking on, every
    // function runs a machine slot after the recorder's.
    if (Checking) {
      EXPECT_EQ(D.preCount(jni::FnId::GetVersion), 2u);
    }
    World.shutdown();
  }
}

TEST(CompiledDispatch, InterposeOnlyObservesEveryFunction) {
  // The Table 3 "interposing" column: capture plus an indirect call each
  // way on every function, never a free empty table.
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::InterposeOnly;
  scenarios::ScenarioWorld World(Config);
  const jvmti::InterposeDispatcher &D = jvmti::dispatcherFor(World.Rt);
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    jni::FnId Id = static_cast<jni::FnId>(I);
    EXPECT_EQ(D.preCount(Id), 1u) << jni::fnName(Id);
    EXPECT_EQ(D.postCount(Id), 1u) << jni::fnName(Id);
  }
  JNIEnv *Env = World.env();
  EXPECT_GT(Env->functions->GetVersion(Env), 0);
  World.shutdown();
}

TEST(CompiledDispatch, SampledThreadGating) {
  // 1-in-4 whole-thread sampling: the table carries the Sampling flag, and
  // an unsampled thread's crossings reach no slot at all — it is neither
  // recorded nor checked — while a sampled thread is both.
  scenarios::WorldConfig Config = jinnConfig();
  Config.JinnSampleRate = 4;
  scenarios::ScenarioWorld World(Config);
  ASSERT_TRUE(World.Jinn->fusedInstalled());
  ASSERT_TRUE(jvmti::dispatcherFor(World.Rt).table()->Sampling);

  JavaVM *Jvm = World.Rt.javaVm();
  constexpr int NumThreads = 12;
  std::vector<uint32_t> Ids(NumThreads);
  std::vector<std::string> Names(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    std::thread Worker([&, T] {
      Names[T] = "gated-" + std::to_string(T);
      JNIEnv *Env = nullptr;
      ASSERT_EQ(Jvm->functions->AttachCurrentThread(Jvm, &Env,
                                                    Names[T].data()),
                JNI_OK);
      Ids[T] = Env->thread->id();
      const JNINativeInterface_ *Fns = Env->functions;
      // One dangling use per thread: reported exactly when sampled.
      jstring S = Fns->NewStringUTF(Env, "gated");
      Fns->DeleteLocalRef(Env, S);
      Fns->GetStringUTFLength(Env, S);
      Fns->ExceptionClear(Env);
      Jvm->functions->DetachCurrentThread(Jvm);
    });
    Worker.join();
  }
  World.shutdown();

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  size_t Sampled = 0;
  for (int T = 0; T < NumThreads; ++T) {
    bool IsSampled = World.Jinn->sampledThread(Ids[T], Names[T]);
    Sampled += IsSampled;
    size_t JniEvents = std::count_if(
        Recorded.Events.begin(), Recorded.Events.end(),
        [&](const trace::TraceEvent &Ev) {
          return Ev.ThreadId == Ids[T] &&
                 (Ev.Kind == trace::EventKind::JniPre ||
                  Ev.Kind == trace::EventKind::JniPost);
        });
    if (IsSampled) {
      EXPECT_GT(JniEvents, 0u) << Names[T];
    } else {
      EXPECT_EQ(JniEvents, 0u) << Names[T];
    }
  }
  ASSERT_GT(Sampled, 0u) << "the seed sampled no thread; pick another";
  ASSERT_LT(Sampled, static_cast<size_t>(NumThreads))
      << "the seed sampled every thread; pick another";
  EXPECT_EQ(World.Jinn->reporter().countFor("Local reference"), Sampled);
}

TEST(CompiledDispatch, AgentCompilesAlongsideForeignHooks) {
  // A hook installed before the agent loads (a debugger, another agent)
  // stays in the program: it runs first, on every crossing, and the
  // agent's checks still run after it.
  jvm::Vm Vm((jvm::VmOptions()));
  jni::JniRuntime Rt(Vm);
  std::atomic<uint64_t> Seen{0};
  jvmti::dispatcherFor(Rt).addPreAll([&Seen](jvmti::CapturedCall &) {
    Seen.fetch_add(1, std::memory_order_relaxed);
  });

  jvmti::AgentHost Host(Rt);
  auto &Jinn = static_cast<agent::JinnAgent &>(
      Host.load(std::make_unique<agent::JinnAgent>()));
  EXPECT_TRUE(Jinn.fusedInstalled());
  EXPECT_EQ(jvmti::dispatcherFor(Rt).preCount(jni::FnId::GetVersion), 2u);

  JNIEnv *Env = Rt.mainEnv();
  jstring S = Env->functions->NewStringUTF(Env, "x");
  Env->functions->DeleteLocalRef(Env, S);
  Env->functions->GetStringUTFLength(Env, S);
  EXPECT_EQ(Seen.load(), 3u);
  EXPECT_EQ(Jinn.reporter().countFor("Local reference"), 1u);
}

TEST(CompiledDispatch, EveryInstallRepublishesAndKeepsTheOldTable) {
  jvmti::InterposeDispatcher D;
  const jvmti::DispatchTable *Empty = D.table();
  ASSERT_NE(Empty, nullptr);
  EXPECT_EQ(D.preCount(jni::FnId::GetVersion), 0u);

  D.addPre(jni::FnId::GetVersion, [](jvmti::CapturedCall &) {});
  const jvmti::DispatchTable *First = D.table();
  EXPECT_NE(First, Empty);
  EXPECT_EQ(D.preCount(jni::FnId::GetVersion), 1u);

  // A batch of many slots is one publish; the superseded table is still
  // intact for crossings that loaded it before the install.
  jvmti::SlotBatch Batch;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I)
    Batch.Post.push_back({static_cast<jni::FnId>(I),
                          {[](const void *, jvmti::CapturedCall &) {},
                           nullptr}});
  D.install(std::move(Batch));
  const jvmti::DispatchTable *Second = D.table();
  EXPECT_NE(Second, First);
  EXPECT_EQ(First->Fns[0].PostCount, 0u);
  EXPECT_EQ(Second->Fns[0].PostCount, 1u);
  EXPECT_EQ(D.hookCount(), 1u + jni::NumJniFunctions);
  EXPECT_EQ(D.demotionCount(), 0u);

  D.setSampler([](jvm::JThread &) { return true; });
  EXPECT_TRUE(D.table()->Sampling);
  D.setSampler(nullptr);
  EXPECT_FALSE(D.table()->Sampling);

  D.clear();
  EXPECT_EQ(D.hookCount(), 0u);
  EXPECT_EQ(D.table(), Empty);
}

//===----------------------------------------------------------------------===
// Republish under fire: installs racing worker crossings.
//===----------------------------------------------------------------------===

TEST(CompiledDispatch, MidRunRepublishStormDropsNoCrossing) {
  scenarios::ScenarioWorld World(jinnConfig());
  ASSERT_TRUE(World.Jinn->fusedInstalled());
  jvmti::InterposeDispatcher &D = jvmti::dispatcherFor(World.Rt);

  // Installed before the storm: every NewStringUTF crossing the workers
  // make must reach it, across every republish below.
  std::atomic<uint64_t> Counted{0};
  D.addPre(jni::FnId::NewStringUTF, [&Counted](jvmti::CapturedCall &) {
    Counted.fetch_add(1, std::memory_order_relaxed);
  });

  // The main thread's env, taken before workers attach (the VM's thread
  // list is not safe to read during attach).
  JNIEnv *MainEnv = World.env();
  JavaVM *Jvm = World.Rt.javaVm();
  std::atomic<bool> Stop{false};
  std::atomic<int> Failures{0};
  std::atomic<uint64_t> Crossings{0};
  constexpr int NumThreads = 4;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      while (!Stop.load(std::memory_order_relaxed)) {
        jstring S = Fns->NewStringUTF(Env, "storm");
        if (Fns->GetStringUTFLength(Env, S) != 5)
          ++Failures;
        Fns->DeleteLocalRef(Env, S);
        Crossings.fetch_add(1, std::memory_order_relaxed);
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });

  while (Crossings.load(std::memory_order_relaxed) < 256)
    std::this_thread::yield();

  // The republish storm: each install recompiles and publishes while the
  // workers cross. The last one must be seen by every later crossing.
  std::atomic<uint64_t> Seen{0};
  for (int Round = 0; Round < 64; ++Round) {
    D.addPost(static_cast<jni::FnId>(Round % jni::NumJniFunctions),
              [](jvmti::CapturedCall &) {});
    std::this_thread::yield();
  }
  D.addPre(jni::FnId::GetVersion, [&Seen](jvmti::CapturedCall &) {
    Seen.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr uint64_t Calls = 64;
  for (uint64_t I = 0; I < Calls; ++I)
    MainEnv->functions->GetVersion(MainEnv);
  EXPECT_EQ(Seen.load(std::memory_order_relaxed), Calls);

  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(Crossings.load(), 256u);
  EXPECT_EQ(Counted.load(), Crossings.load())
      << "a NewStringUTF crossing ran on a table without its hook";

  World.shutdown();
  // Balanced allocation on every thread across the republishes: the
  // checker must stay silent.
  for (const agent::JinnReport &R : World.Jinn->reporter().reports())
    ADD_FAILURE() << "[" << R.Machine << "] " << R.Function << ": "
                  << R.Message;
}

TEST(CompiledDispatch, ConcurrentStormStaysClean) {
  // The machine slots share shadow state across threads; TSan must see
  // the same locking discipline as a single-threaded run.
  scenarios::ScenarioWorld World(jinnConfig());
  ASSERT_TRUE(World.Jinn->fusedInstalled());
  JavaVM *Jvm = World.Rt.javaVm();
  std::atomic<int> Failures{0};
  constexpr int NumThreads = 4;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      JNIEnv *Env = nullptr;
      if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK) {
        ++Failures;
        return;
      }
      const JNINativeInterface_ *Fns = Env->functions;
      for (int I = 0; I < 300; ++I) {
        jstring S = Fns->NewStringUTF(Env, "compiled");
        jobject G = Fns->NewGlobalRef(Env, S);
        if (Fns->GetStringUTFLength(Env, static_cast<jstring>(G)) != 8)
          ++Failures;
        Fns->DeleteLocalRef(Env, S);
        Fns->DeleteGlobalRef(Env, G);
        if (I % 16 == 0 && Fns->PushLocalFrame(Env, 8) == JNI_OK) {
          jstring Inner = Fns->NewStringUTF(Env, "frame");
          if (Fns->GetStringUTFLength(Env, Inner) != 5)
            ++Failures;
          Fns->PopLocalFrame(Env, nullptr);
        }
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  World.shutdown();
  EXPECT_TRUE(World.Jinn->reporter().reports().empty());
}

TEST(CompiledDispatch, InlineReportsAreASubMultisetOfReplayed) {
  // Concurrent buggy threads under record+replay: every inline report must
  // reappear in the replay (as a multiset; cross-thread order is the
  // scheduler's).
  scenarios::WorldConfig Config = jinnConfig();
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  scenarios::ScenarioWorld World(Config);
  JavaVM *Jvm = World.Rt.javaVm();
  constexpr int NumThreads = 4;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      JNIEnv *Env = nullptr;
      ASSERT_EQ(Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr),
                JNI_OK);
      const JNINativeInterface_ *Fns = Env->functions;
      for (int I = 0; I < 50; ++I) {
        jstring S = Fns->NewStringUTF(Env, "multiset");
        Fns->DeleteLocalRef(Env, S);
        if (I % 10 == 0) {
          Fns->GetStringUTFLength(Env, S); // dangling: one report
          Fns->ExceptionClear(Env);
        }
      }
      Jvm->functions->DetachCurrentThread(Jvm);
    });
  for (std::thread &Th : Threads)
    Th.join();
  World.shutdown();

  auto Key = [](const agent::JinnReport &R) {
    return std::make_tuple(R.Machine, R.Function, R.Message, R.EndOfRun);
  };
  auto Less = [&](const agent::JinnReport &A, const agent::JinnReport &B) {
    return Key(A) < Key(B);
  };
  std::vector<agent::JinnReport> Inline = World.Jinn->reporter().reports();
  EXPECT_EQ(Inline.size(), NumThreads * 5u);
  trace::ReplayResult Replayed =
      trace::replayTrace(World.Jinn->recorder()->collect(), World.Vm);
  EXPECT_EQ(Replayed.InexactCrossings, 0u);
  std::vector<agent::JinnReport> Replay = Replayed.Reports;
  std::sort(Inline.begin(), Inline.end(), Less);
  std::sort(Replay.begin(), Replay.end(), Less);
  EXPECT_TRUE(std::includes(Replay.begin(), Replay.end(), Inline.begin(),
                            Inline.end(), Less));
}

} // namespace
