//===- tests/trace_replay_test.cpp - Trace record/replay determinism -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism guarantee of the boundary-crossing trace subsystem:
/// replaying a record+replay trace — directly or after a round trip
/// through the binary trace file — reproduces the inline checker's report
/// list byte-for-byte, for every microbenchmark and for the concurrent
/// workload driver. Also covers record-only traces (replay is the only
/// checker), the file format's rejection of corrupt input, and the
/// Chrome-trace and counters exporters. Meant to run clean under
/// -fsanitize=thread (configure with -DJINN_TSAN=ON).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "scenarios/Scenarios.h"
#include "trace/Export.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

using namespace jinn;
using namespace jinn::scenarios;

namespace {

WorldConfig recordingConfig(agent::TraceMode Mode) {
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnMode = Mode;
  return Config;
}

/// gtest-friendly equality over full report structs.
void expectReportsEqual(const std::vector<agent::JinnReport> &Expected,
                        const std::vector<agent::JinnReport> &Actual,
                        const char *Label) {
  ASSERT_EQ(Expected.size(), Actual.size()) << Label;
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Expected[I].Machine, Actual[I].Machine) << Label << " #" << I;
    EXPECT_EQ(Expected[I].Function, Actual[I].Function) << Label << " #" << I;
    EXPECT_EQ(Expected[I].Message, Actual[I].Message) << Label << " #" << I;
    EXPECT_EQ(Expected[I].EndOfRun, Actual[I].EndOfRun) << Label << " #" << I;
  }
}

std::vector<agent::JinnReport> sorted(std::vector<agent::JinnReport> Reports) {
  std::sort(Reports.begin(), Reports.end(),
            [](const agent::JinnReport &A, const agent::JinnReport &B) {
              return std::make_tuple(A.Machine, A.Function, A.Message,
                                     A.EndOfRun) <
                     std::make_tuple(B.Machine, B.Function, B.Message,
                                     B.EndOfRun);
            });
  return Reports;
}

/// A scratch trace-file path unique to this test binary.
std::string tracePath(const char *Tag) {
  return std::string("trace_replay_test_") + Tag + ".jinntrace";
}

// Every microbenchmark, recorded in record+replay mode, must replay to the
// inline checker's exact report list — both from the in-memory trace and
// after a round trip through the binary file format.
TEST(ReplayDeterminism, AllMicrosByteIdentical) {
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    SCOPED_TRACE(Info.ClassName);
    ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
    runMicrobenchmark(Info.Id, World);
    World.shutdown();

    const std::vector<agent::JinnReport> &Inline =
        World.Jinn->reporter().reports();
    if (Info.DetectableAtBoundary) {
      EXPECT_FALSE(Inline.empty()) << "inline checker missed the bug";
    }

    trace::Trace Recorded = World.Jinn->recorder()->collect();
    EXPECT_FALSE(Recorded.Events.empty());

    trace::ReplayResult Direct = trace::replayTrace(Recorded, World.Vm);
    EXPECT_EQ(Direct.InexactCrossings, 0u);
    expectReportsEqual(Inline, Direct.Reports, "direct replay");

    std::string Path = tracePath(Info.ClassName);
    std::string Err;
    ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
    trace::Trace FromDisk;
    ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
    std::remove(Path.c_str());

    trace::ReplayResult RoundTrip = trace::replayTrace(FromDisk, World.Vm);
    EXPECT_EQ(RoundTrip.InexactCrossings, 0u);
    expectReportsEqual(Inline, RoundTrip.Reports, "file round-trip replay");
  }
}

// A local used after the VM reissued its slot under a new generation is
// dangling: the slot-indexed shadow compares whole words, and replay runs
// the same shadow over the recorded crossings, so both report it alike.
TEST(ReplayDeterminism, StaleLocalInReissuedSlotReportsAlike) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  World.runAsNative("ReissuedLocal", [](JNIEnv *Env) {
    const JNINativeInterface_ *Fns = Env->functions;
    jstring Old = Fns->NewStringUTF(Env, "old");
    Fns->DeleteLocalRef(Env, Old);
    jstring Reissued = Fns->NewStringUTF(Env, "new");
    ASSERT_EQ(jvm::decodeHandle(jni::handleWord(Reissued))->Slot,
              jvm::decodeHandle(jni::handleWord(Old))->Slot);
    Fns->GetStringUTFLength(Env, Old);
    Fns->ExceptionClear(Env);
    Fns->GetStringUTFLength(Env, Reissued); // the live word stays clean
    Fns->DeleteLocalRef(Env, Reissued);
  });
  World.shutdown();

  const std::vector<agent::JinnReport> &Inline =
      World.Jinn->reporter().reports();
  ASSERT_EQ(Inline.size(), 1u);
  EXPECT_EQ(Inline[0].Machine, "Local reference");
  EXPECT_EQ(Inline[0].Function, "GetStringUTFLength");
  EXPECT_NE(Inline[0].Message.find("argument 1 is a dangling local "
                                   "reference"),
            std::string::npos)
      << Inline[0].Message;

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
  EXPECT_EQ(Replayed.InexactCrossings, 0u);
  expectReportsEqual(Inline, Replayed.Reports, "replay");
}

// Record-only traces carry no inline verdicts (no machines ran), but
// replaying them must still catch every boundary-detectable bug.
TEST(ReplayDeterminism, RecordOnlyReplayCatchesBugs) {
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    SCOPED_TRACE(Info.ClassName);
    ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
    runMicrobenchmark(Info.Id, World);
    World.shutdown();

    EXPECT_TRUE(World.Jinn->reporter().reports().empty())
        << "record-only must not check inline";

    trace::Trace Recorded = World.Jinn->recorder()->collect();
    trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
    if (Info.DetectableAtBoundary)
      EXPECT_GT(Replayed.Reports.size(), 0u)
          << "offline replay missed a detectable bug";
    else
      EXPECT_EQ(Replayed.Reports.size(), 0u);
  }
}

// The concurrent workload driver: record+replay across several OS threads,
// deterministic-merge the trace, and verify the replay reproduces the
// inline reports. Cross-thread inline report order is scheduler-dependent,
// so the comparison is over sorted lists (the workload is correct JNI, so
// both lists are normally empty — the assertion is that replay invents
// nothing and loses nothing).
TEST(ReplayDeterminism, ConcurrentWorkloadRecordReplay) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  workloads::prepareWorkloadWorld(World);
  const workloads::WorkloadInfo &Info = *workloads::workloadByName("jack");
  workloads::WorkloadRun Run =
      workloads::runWorkloadConcurrent(Info, World, /*ScaleDivisor=*/8192,
                                       /*NumThreads=*/4);
  World.shutdown();
  EXPECT_GT(Run.JniCalls + Run.NativeTransitions, 0u);

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  EXPECT_GT(Recorded.Events.size(), 0u);

  // The merged order must be a valid total order: per-thread sequence
  // numbers strictly increase along the epoch order.
  std::map<uint32_t, uint64_t> LastSeq;
  for (size_t I = 0; I < Recorded.Events.size(); ++I) {
    const trace::TraceEvent &Ev = Recorded.Events[I];
    EXPECT_EQ(Ev.Epoch, I);
    auto It = LastSeq.find(Ev.ThreadId);
    if (It != LastSeq.end()) {
      EXPECT_GT(Ev.Seq, It->second) << "per-thread order broken at " << I;
    }
    LastSeq[Ev.ThreadId] = Ev.Seq;
  }

  trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
  EXPECT_EQ(Replayed.EventsReplayed, Recorded.Events.size());
  EXPECT_EQ(Replayed.InexactCrossings, 0u);
  expectReportsEqual(sorted(World.Jinn->reporter().reports()),
                     sorted(Replayed.Reports), "concurrent replay");
}

// A native with more formals than a trace event keeps (ten, against
// MaxNativeArgs = 8): the replayed entry sees only the first eight
// actuals, so its local-reference frame holds two fewer references than
// the inline one did. Replay must count both of the native's crossings as
// inexact instead of silently losing the inline overflow report.
TEST(ReplayDeterminism, TruncatedNativeCrossingsAreInexact) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  std::string Desc = "(";
  for (int I = 0; I < 10; ++I)
    Desc += "Ljava/lang/Object;";
  Desc += ")V";
  jvm::ClassDef Def;
  Def.Name = "replay/Wide";
  Def.nativeMethod("wide", Desc, /*IsStatic=*/true);
  jvm::Klass *Kl = World.Vm.defineClass(Def);
  // The receiver mirror, ten arguments and seven new strings: 18 live
  // references in a frame of 16.
  World.Rt.registerNative(Kl, "wide", Desc,
                          [](JNIEnv *Env, jobject, const jvalue *) {
                            for (int I = 0; I < 7; ++I)
                              Env->functions->NewStringUTF(Env, "x");
                            return jvalue{};
                          });
  jvm::JThread &Main = World.Vm.mainThread();
  {
    jvm::Vm::TempRoots Scope(Main);
    jvm::ObjectId Str = World.Vm.newString("arg");
    Scope.add(Str);
    World.Vm.invoke(Main, Kl->findMethod("wide", Desc, /*WantStatic=*/true),
                    jvm::Value::makeNull(),
                    std::vector<jvm::Value>(10, jvm::Value::makeRef(Str)),
                    /*VirtualDispatch=*/false);
  }
  World.shutdown();
  EXPECT_EQ(World.Jinn->reporter().countFor("Local reference"), 1u);

  trace::ReplayResult Replayed =
      trace::replayTrace(World.Jinn->recorder()->collect(), World.Vm);
  EXPECT_EQ(Replayed.InexactCrossings, 2u);
  EXPECT_EQ(Replayed.violationsPerMachine().count("Local reference"), 0u);
}

// The binary file format: a round trip preserves the header, the thread
// names, and every event byte.
TEST(TraceFileFormat, RoundTripPreservesEverything) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = tracePath("roundtrip");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  trace::Trace FromDisk;
  ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
  std::remove(Path.c_str());

  EXPECT_EQ(Recorded.Head.Version, FromDisk.Head.Version);
  EXPECT_EQ(Recorded.Head.NativeFrameCapacity,
            FromDisk.Head.NativeFrameCapacity);
  EXPECT_EQ(Recorded.Head.DroppedEvents, FromDisk.Head.DroppedEvents);
  EXPECT_EQ(Recorded.ThreadNames, FromDisk.ThreadNames);
  ASSERT_EQ(Recorded.Events.size(), FromDisk.Events.size());
  // Records are written verbatim, so even the indeterminate slack bytes
  // past each array's count survive — memcmp is exact.
  for (size_t I = 0; I < Recorded.Events.size(); ++I)
    EXPECT_EQ(std::memcmp(&Recorded.Events[I], &FromDisk.Events[I],
                          sizeof(trace::TraceEvent)),
              0)
        << "event " << I;
}

TEST(TraceFileFormat, RejectsCorruptMagic) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::NullArgument, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = tracePath("corrupt");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  {
    std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(File.is_open());
    File.put('X'); // clobber the first magic byte
  }
  trace::Trace Out;
  EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
  EXPECT_FALSE(Err.empty());
  std::remove(Path.c_str());
}

/// Writes \p T to a scratch file and overwrites the 8-byte event count of
/// its header (after magic, version, record size, frame capacity and
/// thread count) with \p Count.
std::string writeWithEventCount(const trace::Trace &T, const char *Tag,
                                uint64_t Count) {
  std::string Path = tracePath(Tag);
  std::string Err;
  EXPECT_TRUE(trace::writeTraceFile(T, Path, &Err)) << Err;
  std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
  File.seekp(8 + 4 * sizeof(uint32_t));
  File.write(reinterpret_cast<const char *>(&Count), sizeof(Count));
  return Path;
}

// A header claiming more events than the file holds is refused before any
// allocation sized from it — including counts whose byte size overflows.
TEST(TraceFileFormat, RejectsEventCountPastTheFileEnd) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::NullArgument, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  ASSERT_FALSE(Recorded.Events.empty());

  for (uint64_t Count : {uint64_t(Recorded.Events.size() + 1),
                         uint64_t(1) << 40, ~uint64_t(0)}) {
    SCOPED_TRACE(Count);
    std::string Path = writeWithEventCount(Recorded, "oversized", Count);
    trace::Trace Out;
    std::string Err;
    EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
    EXPECT_NE(Err.find("truncated event stream"), std::string::npos) << Err;
    std::remove(Path.c_str());
  }
}

// Events whose JNI function id or argument count is out of range, or
// whose native method is no method of the VM (a foreign or damaged
// trace), are refused by replay with a clean error instead of indexing
// the trait table or the argument array past its end, or dereferencing
// the method word.
TEST(TraceFileFormat, ReplayRejectsOutOfRangeEvents) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  EXPECT_TRUE(Recorded.wellFormed());

  // Each corruption applies to the first event of its kind.
  struct Corruption {
    const char *Tag;
    trace::EventKind Kind;
    void (*Apply)(trace::TraceEvent &);
  };
  const Corruption Corruptions[] = {
      {"fn", trace::EventKind::JniPre,
       [](trace::TraceEvent &Ev) { Ev.Fn = 0xFFFF; }},
      {"fn-count", trace::EventKind::JniPre,
       [](trace::TraceEvent &Ev) {
         Ev.Fn = static_cast<uint16_t>(jni::NumJniFunctions);
       }},
      {"args", trace::EventKind::JniPre,
       [](trace::TraceEvent &Ev) { Ev.NumArgs = 200; }},
      {"peeks", trace::EventKind::JniPre,
       [](trace::TraceEvent &Ev) { Ev.Snap.NumPeeks = 200; }},
      {"method", trace::EventKind::NativeEntry,
       [](trace::TraceEvent &Ev) { Ev.MethodWord = 0x4141414141414141; }},
  };
  for (const Corruption &C : Corruptions) {
    SCOPED_TRACE(C.Tag);
    auto First = std::find_if(
        Recorded.Events.begin(), Recorded.Events.end(),
        [&](const trace::TraceEvent &Ev) { return Ev.Kind == C.Kind; });
    ASSERT_NE(First, Recorded.Events.end());
    size_t Index = First - Recorded.Events.begin();
    trace::Trace Bad = Recorded;
    C.Apply(Bad.Events[Index]);

    // Through the file format, as jinn-replay and jinn-verify read it.
    std::string Path = tracePath(C.Tag);
    std::string Err;
    ASSERT_TRUE(trace::writeTraceFile(Bad, Path, &Err)) << Err;
    trace::Trace FromDisk;
    ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
    std::remove(Path.c_str());

    trace::ReplayResult Replayed = trace::replayTrace(FromDisk, World.Vm);
    EXPECT_NE(Replayed.Error.find("malformed trace event " +
                                  std::to_string(Index)),
              std::string::npos)
        << Replayed.Error;
    EXPECT_EQ(Replayed.EventsReplayed, 0u);
    EXPECT_TRUE(Replayed.Reports.empty());
  }
}

// A JNI event must carry exactly its function's parameters, each of the
// class the traits declare. A live capture writes only those records, so
// replay must never build a short call: a crafted event one argument
// short, or with one argument reclassified, is refused through the file
// format with an error naming the event, and nothing replays.
TEST(TraceFileFormat, ReplayRejectsShortOrMisclassifiedArguments) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  ASSERT_TRUE(Recorded.wellFormed());
  auto First = std::find_if(
      Recorded.Events.begin(), Recorded.Events.end(),
      [](const trace::TraceEvent &Ev) {
        return Ev.Kind == trace::EventKind::JniPre && Ev.NumArgs >= 1;
      });
  ASSERT_NE(First, Recorded.Events.end());
  size_t Index = First - Recorded.Events.begin();

  const std::pair<const char *, void (*)(trace::TraceEvent &)> Crafted[] = {
      {"short", [](trace::TraceEvent &Ev) { --Ev.NumArgs; }},
      {"long", [](trace::TraceEvent &Ev) { ++Ev.NumArgs; }},
      {"class",
       [](trace::TraceEvent &Ev) {
         Ev.Args[0].Cls = Ev.Args[0].Cls == uint8_t(jni::ArgClass::Ref)
                              ? uint8_t(jni::ArgClass::Scalar)
                              : uint8_t(jni::ArgClass::Ref);
       }},
  };
  for (const auto &[Tag, Apply] : Crafted) {
    SCOPED_TRACE(Tag);
    trace::Trace Bad = Recorded;
    Apply(Bad.Events[Index]);
    std::string Err;
    EXPECT_FALSE(Bad.wellFormed(&Err));
    EXPECT_EQ(Err, "malformed trace event " + std::to_string(Index) +
                       " (jni-pre): JNI arguments differ from the "
                       "function's parameters in count or class");

    std::string Path = tracePath(Tag);
    ASSERT_TRUE(trace::writeTraceFile(Bad, Path, &Err)) << Err;
    trace::Trace FromDisk;
    ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
    std::remove(Path.c_str());
    trace::ReplayResult Replayed = trace::replayTrace(FromDisk, World.Vm);
    EXPECT_NE(Replayed.Error.find("differ from the function's parameters"),
              std::string::npos)
        << Replayed.Error;
    EXPECT_EQ(Replayed.EventsReplayed, 0u);
    EXPECT_TRUE(Replayed.Reports.empty());
  }
}

TEST(TraceFileFormat, ReplayRejectsOutOfRangeThreadIds) {
  // Replay indexes the thread-block table by recorded thread ids, so an id
  // at or past jvm::MaxThreadIds, on the event or in its snapshot, must be
  // refused before any event runs.
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  ASSERT_TRUE(Recorded.wellFormed());
  auto IndexOf = [&Recorded](trace::EventKind Kind) {
    auto It = std::find_if(
        Recorded.Events.begin(), Recorded.Events.end(),
        [Kind](const trace::TraceEvent &Ev) { return Ev.Kind == Kind; });
    return static_cast<size_t>(It - Recorded.Events.begin());
  };
  const size_t Attach = IndexOf(trace::EventKind::ThreadAttach);
  const size_t Pre = IndexOf(trace::EventKind::JniPre);
  ASSERT_LT(Attach, Recorded.Events.size());
  ASSERT_LT(Pre, Recorded.Events.size());

  struct Case {
    const char *Tag;
    size_t Index;
    const char *Kind;
    void (*Apply)(trace::TraceEvent &);
  };
  const Case Crafted[] = {
      {"attach", Attach, "thread-attach",
       [](trace::TraceEvent &Ev) { Ev.ThreadId = jvm::MaxThreadIds; }},
      {"event", Pre, "jni-pre",
       [](trace::TraceEvent &Ev) { Ev.ThreadId = jvm::MaxThreadIds + 7; }},
      {"snapshot", Pre, "jni-pre",
       [](trace::TraceEvent &Ev) { Ev.Snap.ThreadId = 0xffffffffu; }},
  };
  for (const Case &C : Crafted) {
    SCOPED_TRACE(C.Tag);
    trace::Trace Bad = Recorded;
    C.Apply(Bad.Events[C.Index]);
    std::string Err;
    EXPECT_FALSE(Bad.wellFormed(&Err));
    EXPECT_EQ(Err, "malformed trace event " + std::to_string(C.Index) +
                       " (" + C.Kind + "): thread id out of range");

    std::string Path = tracePath(C.Tag);
    ASSERT_TRUE(trace::writeTraceFile(Bad, Path, &Err)) << Err;
    trace::Trace FromDisk;
    ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
    std::remove(Path.c_str());
    EXPECT_FALSE(FromDisk.wellFormed());
    trace::ReplayResult Replayed = trace::replayTrace(FromDisk, World.Vm);
    EXPECT_NE(Replayed.Error.find("thread id out of range"),
              std::string::npos)
        << Replayed.Error;
    EXPECT_EQ(Replayed.EventsReplayed, 0u);
    EXPECT_TRUE(Replayed.Reports.empty());
  }
}

TEST(TraceFileFormat, MissingFileFails) {
  trace::Trace Out;
  std::string Err;
  EXPECT_FALSE(
      trace::readTraceFile(Out, "trace_replay_test_nonexistent.jinntrace",
                           &Err));
  EXPECT_FALSE(Err.empty());
}

// The exporters: chrome trace JSON materializes with the expected
// skeleton, and the counters add up.
TEST(TraceExport, ChromeTraceAndCounters) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalOverflow, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = "trace_replay_test_chrome.json";
  std::string Err;
  ASSERT_TRUE(trace::writeChromeTrace(Recorded, Path, &Err)) << Err;
  std::ifstream File(Path);
  std::string Text((std::istreambuf_iterator<char>(File)),
                   std::istreambuf_iterator<char>());
  std::remove(Path.c_str());
  EXPECT_NE(Text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Text.find("thread_name"), std::string::npos);

  trace::TraceCounters Counters = trace::computeCounters(Recorded);
  EXPECT_EQ(Counters.TotalEvents, Recorded.Events.size());
  uint64_t KindSum = 0;
  for (size_t K = 0; K < trace::NumEventKinds; ++K)
    KindSum += Counters.KindCounts[K];
  EXPECT_EQ(KindSum, Counters.TotalEvents);
  EXPECT_EQ(Counters.DroppedEvents, Recorded.Head.DroppedEvents);
}

// Bounded recording drops whole chunks (oldest first) and reports the
// loss; the remaining suffix still replays without crashing.
TEST(TraceExport, BoundedRecordingCountsDrops) {
  WorldConfig Config = recordingConfig(agent::TraceMode::RecordOnly);
  Config.JinnRecorder.RingCapacity = 8;
  Config.JinnRecorder.MaxChunksPerThread = 2;
  ScenarioWorld World(Config);
  workloads::prepareWorkloadWorld(World);
  const workloads::WorkloadInfo &Info = *workloads::workloadByName("db");
  workloads::runWorkload(Info, World, /*ScaleDivisor=*/4096);
  World.shutdown();

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  EXPECT_GT(Recorded.Head.DroppedEvents, 0u);
  trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
  EXPECT_EQ(Replayed.EventsReplayed, Recorded.Events.size());
}

} // namespace
