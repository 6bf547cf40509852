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

// Events whose JNI function id or argument count is out of range (a
// foreign or damaged trace) are refused by replay with a clean error
// instead of indexing the trait table or the argument array past its end.
TEST(TraceFileFormat, ReplayRejectsOutOfRangeEvents) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  auto FirstJni = std::find_if(
      Recorded.Events.begin(), Recorded.Events.end(),
      [](const trace::TraceEvent &Ev) {
        return Ev.Kind == trace::EventKind::JniPre;
      });
  ASSERT_NE(FirstJni, Recorded.Events.end());
  size_t Index = FirstJni - Recorded.Events.begin();
  EXPECT_TRUE(Recorded.wellFormed());

  struct Corruption {
    const char *Tag;
    void (*Apply)(trace::TraceEvent &);
  };
  const Corruption Corruptions[] = {
      {"fn", [](trace::TraceEvent &Ev) { Ev.Fn = 0xFFFF; }},
      {"fn-count",
       [](trace::TraceEvent &Ev) {
         Ev.Fn = static_cast<uint16_t>(jni::NumJniFunctions);
       }},
      {"args", [](trace::TraceEvent &Ev) { Ev.NumArgs = 200; }},
      {"peeks", [](trace::TraceEvent &Ev) { Ev.Snap.NumPeeks = 200; }},
  };
  for (const Corruption &C : Corruptions) {
    SCOPED_TRACE(C.Tag);
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
