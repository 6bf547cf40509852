//===- tests/monitor_soak_test.cpp - Production monitoring soak tests ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-monitoring contract under attach/detach churn: the
/// multi-tenant server soak runs thousands of short-lived request threads
/// while a monitor drains the streaming recorder into a bounded sink.
/// Asserts (1) deterministic sampled reports — the same seed and request
/// schedule produce the same report list twice; (2) sampled-report
/// replay: every inline report of a sampled run is reproduced by replaying
/// the sink's retained trace; (3) bounded memory — per-thread recorder
/// buffers retire at detach, queue overflow surfaces in the
/// jinn.trace.dropped_events diagnostics counter, and RSS stays under the
/// soak ceiling; (4) the sink implementations retain, rotate, and prune as
/// configured. Meant to run clean under -fsanitize=thread (JINN_TSAN).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "monitor/Monitor.h"
#include "monitor/TraceSink.h"
#include "support/Resource.h"
#include "trace/Replay.h"
#include "workloads/ServerSoak.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

#include <unistd.h>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

/// Sanitizer builds inflate RSS by design; the absolute-memory assertions
/// are only meaningful on plain builds.
constexpr bool SanitizedBuild =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

WorldConfig sampledConfig(uint32_t SampleRate) {
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnSampleRate = SampleRate;
  // Record even at rate 1, so every configuration streams a trace for the
  // monitor to drain (sampling > 1 would force this promotion itself).
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  Config.JinnRecorder.StreamChunks = true;
  Config.JinnRecorder.MaxQueuedChunks = 4096;
  return Config;
}

SoakOptions smallSoak() {
  SoakOptions Opts;
  Opts.Workers = 2;
  Opts.Requests = 128;
  Opts.OpsPerRequest = 12;
  Opts.Tenants = 3;
  Opts.BugEveryNRequests = 4;
  return Opts;
}

std::vector<agent::JinnReport>
violations(const std::vector<agent::JinnReport> &Reports) {
  std::vector<agent::JinnReport> Out;
  for (const agent::JinnReport &R : Reports)
    if (!R.EndOfRun)
      Out.push_back(R);
  return Out;
}

/// Multiset inclusion of \p Sub in \p Super over (Machine, Function,
/// Message).
bool includedIn(const std::vector<agent::JinnReport> &Sub,
                std::vector<agent::JinnReport> Super) {
  for (const agent::JinnReport &R : Sub) {
    auto It = std::find_if(Super.begin(), Super.end(),
                           [&](const agent::JinnReport &S) {
                             return S.Machine == R.Machine &&
                                    S.Function == R.Function &&
                                    S.Message == R.Message;
                           });
    if (It == Super.end())
      return false;
    Super.erase(It);
  }
  return true;
}

} // namespace

// Same seed, same 1-worker request schedule => byte-identical sampled
// report lists across two fresh worlds. The sampling decision is keyed on
// the deterministic request-thread names, so which requests get checked is
// a pure function of the options.
TEST(MonitorSoak, DeterministicSampledReportMerge) {
  SoakOptions Opts = smallSoak();
  Opts.Workers = 1; // one worker => a deterministic request schedule
  Opts.Requests = 96;
  std::vector<agent::JinnReport> Lists[2];
  uint64_t Bugs[2] = {0, 0};
  for (int Round = 0; Round < 2; ++Round) {
    ScenarioWorld World(sampledConfig(8));
    SoakStats Stats = runServerSoak(World, Opts);
    Bugs[Round] = Stats.SeededBugs;
    Lists[Round] = violations(World.Jinn->reporter().reports());
    World.shutdown();
  }
  EXPECT_EQ(Bugs[0], Bugs[1]);
  EXPECT_GT(Bugs[0], 0u);
  ASSERT_EQ(Lists[0].size(), Lists[1].size());
  for (size_t I = 0; I < Lists[0].size(); ++I) {
    EXPECT_EQ(Lists[0][I].Machine, Lists[1][I].Machine) << I;
    EXPECT_EQ(Lists[0][I].Function, Lists[1][I].Function) << I;
    EXPECT_EQ(Lists[0][I].Message, Lists[1][I].Message) << I;
  }
}

// The replay contract of sampled mode: the trace retains the complete
// event stream of every sampled thread (and nothing else), so replaying
// the monitor's retained trace reproduces the inline report list exactly.
TEST(MonitorSoak, SampledReportsReplayFromRetainedTrace) {
  // Rate 4 over ~48 seeded bugs: the chance that no buggy request lands
  // on a sampled thread is (3/4)^48, i.e. negligible.
  ScenarioWorld World(sampledConfig(4));
  // The replay contract holds for reports whose lifecycle the retention
  // window covers; size the ring to hold the whole run so every inline
  // report is in scope no matter how many ticks elapse.
  monitor::RingSink::Options SinkOpts;
  SinkOpts.MaxSegments = 1u << 20;
  SinkOpts.MaxBytes = 1ull << 32;
  monitor::RingSink Sink(SinkOpts);
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink,
                               {/*IntervalMs=*/5});
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 192;
  SoakStats Stats = runServerSoak(World, Opts);
  Monitor.finish();
  EXPECT_GT(Stats.SeededBugs, 0u);

  std::vector<agent::JinnReport> Inline =
      violations(World.Jinn->reporter().reports());
  World.shutdown();

  trace::Trace Retained = Sink.retained();
  EXPECT_GT(Retained.Events.size(), 0u);
  trace::ReplayResult Replayed = trace::replayTrace(Retained, World.Vm);
  EXPECT_EQ(Replayed.InexactCrossings, 0u)
      << "a replayed crossing fell back to the live VM for a peek";
  std::vector<agent::JinnReport> Offline = violations(Replayed.Reports);

  // Replay reproduces the inline reports exactly — same multiset in both
  // directions (order may differ: inline keeps arrival order across
  // threads, replay walks the global time order).
  EXPECT_GT(Inline.size(), 0u);
  EXPECT_EQ(Inline.size(), Offline.size());
  EXPECT_TRUE(includedIn(Inline, Offline))
      << Inline.size() << " inline vs " << Offline.size() << " replayed";
  EXPECT_TRUE(includedIn(Offline, Inline));

  // The monitor aggregated the sampled threads' crossings.
  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  EXPECT_GT(Snap.Crossings, 0u);
  EXPECT_GT(Snap.LatencySamples, 0u);
  EXPECT_GE(Snap.Reports, Inline.size());
}

// Attach/detach churn must not accumulate per-thread state: recorder
// buffers retire at DetachCurrentThread and their storage is recycled, so
// after thousands of request threads only the still-attached threads
// (main) hold buffers.
TEST(MonitorSoak, DetachRetiresPerThreadBuffers) {
  ScenarioWorld World(sampledConfig(16));
  monitor::RingSink Sink;
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink,
                               {/*IntervalMs=*/5});
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 256;
  runServerSoak(World, Opts);
  Monitor.finish();

  // Request threads are detached; only main (and no retired ghosts) may
  // still own a recorder buffer.
  EXPECT_LE(World.Jinn->recorder()->liveThreadBuffers(), 1u);
  World.shutdown();
}

// Queue overflow in streaming mode (a monitor that never drains) must be
// bounded and surface in the jinn.trace.dropped_events counter rather
// than growing without limit or passing silently.
TEST(MonitorSoak, DroppedEventsSurfaceInDiagnostics) {
  WorldConfig Config = sampledConfig(1); // record every request thread
  Config.JinnRecorder.MaxQueuedChunks = 4; // tiny queue, no drainer
  ScenarioWorld World(Config);
  SoakOptions Opts = smallSoak();
  Opts.Requests = 96;
  runServerSoak(World, Opts);

  trace::TraceRecorder *Recorder = World.Jinn->recorder();
  EXPECT_GT(Recorder->droppedEvents(), 0u);
  EXPECT_EQ(World.Vm.diags().counter("jinn.trace.dropped_events"),
            Recorder->droppedEvents());
  // The drained view reports the drop delta it observed.
  trace::Trace Segment = Recorder->drainSealed();
  EXPECT_GT(Segment.Head.DroppedEvents, 0u);
  World.shutdown();
}

// The soak must hold RSS under the production ceiling: bounded recorder
// queue, bounded sink, retired buffers. (Absolute RSS is only meaningful
// on non-sanitized builds.)
TEST(MonitorSoak, RssStaysUnderCeiling) {
  if (SanitizedBuild)
    GTEST_SKIP() << "RSS ceiling not meaningful under sanitizers";
  if (currentRssBytes() == 0)
    GTEST_SKIP() << "RSS probe unavailable on this platform";
  constexpr uint64_t CeilingBytes = 768ull << 20;
  ScenarioWorld World(sampledConfig(16));
  monitor::RingSink::Options SinkOpts;
  SinkOpts.MaxSegments = 64;
  SinkOpts.MaxBytes = 64ull << 20;
  monitor::RingSink Sink(SinkOpts);
  monitor::MonitorOptions MonOpts;
  MonOpts.IntervalMs = 5;
  MonOpts.RssCeilingBytes = CeilingBytes;
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink, MonOpts);
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 512;
  SoakStats Stats = runServerSoak(World, Opts);
  Monitor.finish();
  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  EXPECT_LT(Snap.PeakRssBytes, CeilingBytes);
  EXPECT_LT(Stats.PeakRssBytes, CeilingBytes);
  World.shutdown();
}

// RingSink honors its segment-count bound, drop-oldest.
TEST(MonitorSoak, RingSinkEvictsOldest) {
  monitor::RingSink::Options Opts;
  Opts.MaxSegments = 3;
  monitor::RingSink Sink(Opts);
  for (uint64_t I = 0; I < 6; ++I) {
    trace::Trace Seg;
    Seg.Events.resize(4);
    for (size_t E = 0; E < Seg.Events.size(); ++E) {
      Seg.Events[E].TimeNs = I * 100 + E;
      Seg.Events[E].ThreadId = 1;
      Seg.Events[E].Seq = I * 100 + E;
      Seg.Events[E].Kind = trace::EventKind::GcEpoch;
    }
    Sink.append(std::move(Seg));
  }
  monitor::SinkStats Stats = Sink.stats();
  EXPECT_EQ(Stats.AppendedSegments, 6u);
  EXPECT_EQ(Stats.RetainedSegments, 3u);
  EXPECT_EQ(Stats.DroppedSegments, 3u);
  EXPECT_EQ(Stats.DroppedEvents, 12u);
  trace::Trace Merged = Sink.retained();
  ASSERT_EQ(Merged.Events.size(), 12u);
  // Oldest-first global order with fresh epochs.
  for (size_t E = 0; E + 1 < Merged.Events.size(); ++E) {
    EXPECT_LE(Merged.Events[E].TimeNs, Merged.Events[E + 1].TimeNs);
    EXPECT_EQ(Merged.Events[E].Epoch, E);
  }
  EXPECT_EQ(Merged.Events.front().TimeNs, 300u); // segments 0-2 evicted
}

namespace {

/// A four-event GcEpoch segment at time base \p Base with header facts
/// \p Version and \p Capacity.
trace::Trace headedSegment(uint64_t Base, uint32_t Version,
                           uint32_t Capacity) {
  trace::Trace Seg;
  Seg.Head.Version = Version;
  Seg.Head.NativeFrameCapacity = Capacity;
  Seg.Events.resize(4);
  for (size_t E = 0; E < Seg.Events.size(); ++E) {
    Seg.Events[E].TimeNs = Base + E;
    Seg.Events[E].ThreadId = 1;
    Seg.Events[E].Seq = Base + E;
    Seg.Events[E].Kind = trace::EventKind::GcEpoch;
  }
  return Seg;
}

} // namespace

// Segments of different recordings disagree on their header facts; the
// merge refuses them instead of letting the last segment's header win.
TEST(MonitorSoak, MergeRefusesMixedHeaders) {
  trace::Trace Out;
  std::string Err;
  std::vector<trace::Trace> Same = {headedSegment(0, 1, 32),
                                    headedSegment(100, 1, 32)};
  ASSERT_TRUE(monitor::mergeSegments(std::move(Same), Out, &Err)) << Err;
  EXPECT_EQ(Out.Events.size(), 8u);
  EXPECT_EQ(Out.Head.NativeFrameCapacity, 32u);

  std::vector<trace::Trace> MixedCapacity = {headedSegment(0, 1, 16),
                                             headedSegment(100, 1, 32)};
  EXPECT_FALSE(monitor::mergeSegments(std::move(MixedCapacity), Out, &Err));
  EXPECT_NE(Err.find("native frame capacity 32"), std::string::npos) << Err;
  EXPECT_TRUE(Out.Events.empty());

  std::vector<trace::Trace> MixedVersion = {headedSegment(0, 1, 16),
                                            headedSegment(100, 2, 16)};
  EXPECT_FALSE(monitor::mergeSegments(std::move(MixedVersion), Out, &Err));
  EXPECT_NE(Err.find("version 2"), std::string::npos) << Err;

  // A sink holding mixed segments hands back nothing and says why.
  monitor::RingSink Sink;
  Sink.append(headedSegment(0, 1, 16));
  Sink.append(headedSegment(100, 1, 64));
  EXPECT_TRUE(Sink.retained().Events.empty());
  EXPECT_NE(Sink.lastError().find("segment 1"), std::string::npos)
      << Sink.lastError();
}

// The merged trace is checked like any trace read from a file: an event
// naming an out-of-range JNI function is refused.
TEST(MonitorSoak, MergeRefusesMalformedEvents) {
  std::vector<trace::Trace> Segments = {headedSegment(0, 1, 16)};
  Segments[0].Events[2].Kind = trace::EventKind::JniPre;
  Segments[0].Events[2].Fn = 0xFFFF;
  trace::Trace Out;
  std::string Err;
  EXPECT_FALSE(monitor::mergeSegments(std::move(Segments), Out, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_TRUE(Out.Events.empty());
}

// RotatingFileSink writes segment files, prunes past MaxSegments, and
// retained() reads the survivors (plus pending) back as one trace.
TEST(MonitorSoak, RotatingFileSinkRotatesAndPrunes) {
  // Unique per process so concurrent runs of the same binary don't race
  // on each other's segment files.
  const std::string Dir =
      "monitor_soak_test_segments." + std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  monitor::RotatingFileSink::Options Opts;
  Opts.Directory = Dir;
  Opts.RotateBytes = sizeof(trace::TraceEvent) * 8; // rotate every ~8 events
  Opts.MaxSegments = 2;
  monitor::RotatingFileSink Sink(Opts);
  for (uint64_t I = 0; I < 5; ++I) {
    trace::Trace Seg;
    Seg.Events.resize(8);
    for (size_t E = 0; E < Seg.Events.size(); ++E) {
      Seg.Events[E].TimeNs = I * 100 + E;
      Seg.Events[E].ThreadId = 1;
      Seg.Events[E].Seq = I * 100 + E;
      Seg.Events[E].Kind = trace::EventKind::GcEpoch;
    }
    Sink.append(std::move(Seg));
  }
  EXPECT_EQ(Sink.lastError(), "");
  EXPECT_LE(Sink.segmentFiles().size(), 2u);
  monitor::SinkStats Stats = Sink.stats();
  EXPECT_EQ(Stats.AppendedEvents, 40u);
  EXPECT_GT(Stats.DroppedSegments, 0u);
  trace::Trace Merged = Sink.retained();
  EXPECT_EQ(Merged.Events.size(), Stats.RetainedEvents);
  EXPECT_LE(Merged.Events.size(), 16u + 8u); // 2 files + <=1 pending rotation
  for (size_t E = 0; E + 1 < Merged.Events.size(); ++E)
    EXPECT_LE(Merged.Events[E].TimeNs, Merged.Events[E + 1].TimeNs);
  std::filesystem::remove_all(Dir);
}

// The pure sampling predicate is deterministic, respects rate 1, and the
// request-name scheme actually yields a nonempty strict subset at N=16.
TEST(MonitorSoak, SamplingPredicateIsDeterministicAndNontrivial) {
  ScenarioWorld World(sampledConfig(16));
  agent::JinnAgent &Jinn = *World.Jinn;
  unsigned Sampled = 0;
  const unsigned Names = 512;
  for (unsigned K = 0; K < Names; ++K) {
    std::string Name = "req-0-" + std::to_string(K);
    bool A = Jinn.sampledThread(100 + K, Name);
    bool B = Jinn.sampledThread(100 + K, Name);
    EXPECT_EQ(A, B) << Name;
    Sampled += A ? 1 : 0;
  }
  // ~1/16 of 512 = 32 expected; accept a wide band but not the extremes.
  EXPECT_GT(Sampled, 8u);
  EXPECT_LT(Sampled, 128u);

  ScenarioWorld Full(sampledConfig(1));
  EXPECT_TRUE(Full.Jinn->sampledThread(7, "anything"));
  World.shutdown();
  Full.shutdown();
}
