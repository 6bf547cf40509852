//===- perfbench/Soak.cpp - The multi-tenant server soak -----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `soak` workload: runServerSoak with short-lived request threads.
/// Every round builds a fresh world per configuration (production,
/// interpose-only, inline fused Jinn, and 1-in-16 sampled Jinn with
/// recorder, sink and monitor) and runs the same seeded requests in each,
/// in a seeded rotation, so the inline/production ratio is taken over
/// back-to-back slices.
///
//===----------------------------------------------------------------------===//

#include "Soak.h"
#include "Worlds.h"

#include "monitor/Monitor.h"
#include "monitor/TraceSink.h"
#include "support/Format.h"
#include "support/Resource.h"
#include "support/Rng.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <malloc.h>
#include <mutex>
#include <thread>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace perfbench {

namespace {

constexpr uint64_t BugEvery = 8;
constexpr uint32_t SampleRate = 16;

/// Requests per slice, spread over the workers.
constexpr uint64_t RequestsPerSlice = 960;

/// Parses a request thread name "req-<worker>-<k>"; false otherwise.
bool parseRequestName(const std::string &Name, unsigned &Worker,
                      unsigned long long &K) {
  return std::sscanf(Name.c_str(), "req-%u-%llu", &Worker, &K) == 2;
}

/// Every inline (non end-of-run) report must appear in \p Replayed, as a
/// multiset.
bool replayIncludes(const std::vector<agent::JinnReport> &Inline,
                    const std::vector<agent::JinnReport> &Replayed) {
  std::vector<const agent::JinnReport *> Pool;
  for (const agent::JinnReport &R : Replayed)
    if (!R.EndOfRun)
      Pool.push_back(&R);
  for (const agent::JinnReport &R : Inline) {
    if (R.EndOfRun)
      continue;
    bool Found = false;
    for (auto It = Pool.begin(); It != Pool.end(); ++It)
      if ((*It)->Machine == R.Machine && (*It)->Function == R.Function &&
          (*It)->Message == R.Message) {
        Pool.erase(It);
        Found = true;
        break;
      }
    if (!Found)
      return false;
  }
  return true;
}

WorldConfig worldConfig(SoakConfig Config, const RunOptions &Opts) {
  WorldConfig C;
  switch (Config) {
  case SoakConfig::Production:
    C.Checker = CheckerKind::None;
    break;
  case SoakConfig::Interpose:
    C.Checker = CheckerKind::InterposeOnly;
    break;
  case SoakConfig::Inline:
    C.Checker = CheckerKind::Jinn;
    break;
  case SoakConfig::Sampled:
    C.Checker = CheckerKind::Jinn;
    C.JinnSampleRate = SampleRate;
    C.JinnSampleSeed = SplitMix64(Opts.Seed).split(0x73616d70).next();
    C.JinnRecorder.StreamChunks = true;
    C.JinnRecorder.MaxQueuedChunks = 4096;
    break;
  }
  return C;
}

const char *soakConfigName(SoakConfig Config) {
  switch (Config) {
  case SoakConfig::Production:
    return "production";
  case SoakConfig::Interpose:
    return "interpose";
  case SoakConfig::Inline:
    return "inline";
  case SoakConfig::Sampled:
    return "sampled16";
  }
  return "?";
}

/// A benchmark-owned thread that ticks the monitor every \p PeriodMs and
/// times each tick (in place of JinnMonitor::start()).
class Ticker {
public:
  Ticker(monitor::JinnMonitor &Monitor, unsigned PeriodMs)
      : Monitor(Monitor), PeriodMs(PeriodMs), Thread([this] { loop(); }) {}
  ~Ticker() { stop(); }
  Ticker(const Ticker &) = delete;
  Ticker &operator=(const Ticker &) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    Cv.notify_all();
    if (Thread.joinable())
      Thread.join();
  }
  /// Tick durations in ms (read after stop()).
  const std::vector<double> &tickMs() const { return TickMs; }

private:
  void loop() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Cv.wait_for(Lock, std::chrono::milliseconds(PeriodMs),
                        [this] { return Stop; })) {
      Lock.unlock();
      Span S("monitor.tick");
      double Ms = timeIt([&] { Monitor.tick(); }) * 1e3;
      Lock.lock();
      TickMs.push_back(Ms);
    }
  }

  monitor::JinnMonitor &Monitor;
  unsigned PeriodMs;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
  std::vector<double> TickMs;
  std::thread Thread; ///< last: starts once the members above exist
};

/// The sampled configuration's monitoring, trace round trip and checks.
void runSampled(ScenarioWorld &World, const SoakOptions &Soak,
                const RunOptions &Opts, SoakSlice &Slice, Oracle &Check) {
  monitor::RingSink::Options SinkOpts;
  SinkOpts.MaxSegments = 4096;
  SinkOpts.MaxBytes = 512ull << 20;
  monitor::RingSink Sink(SinkOpts);
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink);
  {
    Ticker Tick(Monitor, 20);
    Slice.Seconds = timeIt([&] {
      Span S("workloads.runServerSoak");
      Slice.Stats = runServerSoak(World, Soak);
    });
    Tick.stop();
    Slice.TickMs = Tick.tickMs();
  }
  Slice.FinishMs = timeIt([&] {
                     Span S("monitor.finish");
                     Monitor.finish();
                   }) *
                   1e3;
  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  Slice.SinkRetainedBytes = Snap.Sink.RetainedBytes;
  Slice.SinkDroppedEvents = Snap.Sink.DroppedEvents;

  std::vector<agent::JinnReport> Inline = World.Jinn->reporter().reports();
  World.shutdown();
  trace::Trace Retained = Sink.retained();
  Slice.RecorderDrops = Retained.Head.DroppedEvents + Snap.DroppedEvents;
  Slice.TraceEvents = Retained.Events.size();

  // Expected reports: the buggy requests the agent's sampling selects.
  // With one worker the request set is known up front; with several, the
  // retained thread table says which requests each worker ran.
  uint64_t Expected = 0;
  bool AllSampled = true;
  if (Soak.Workers == 1) {
    for (uint64_t K = 0; K < Slice.Stats.Requests; K += BugEvery)
      Expected += World.Jinn->sampledThread(
          0, formatString("req-0-%llu", static_cast<unsigned long long>(K)));
  }
  for (const auto &[Id, Name] : Retained.ThreadNames) {
    unsigned Worker = 0;
    unsigned long long K = 0;
    if (!parseRequestName(Name, Worker, K))
      continue;
    ++Slice.RecordedThreads;
    AllSampled &= World.Jinn->sampledThread(Id, Name);
    if (Soak.Workers != 1 && K % BugEvery == 0)
      ++Expected;
  }
  const uint64_t Requests = Slice.Stats.Requests;
  Check.check(AllSampled, Requests,
              "soak: recorded a thread the sampler did not select");
  Check.check(Slice.Stats.Reports == Expected, Requests,
              formatString("soak: sampled reports %llu != %llu sampled bugs",
                           static_cast<unsigned long long>(Slice.Stats.Reports),
                           static_cast<unsigned long long>(Expected)));
  Check.check(Slice.RecorderDrops == 0, Slice.RecorderDrops,
              formatString("soak: recorder dropped %llu events",
                           static_cast<unsigned long long>(Slice.RecorderDrops)));

  // Round trip through a trace file, then replay.
  std::string Path = Opts.WorkDir + "/soak-retained.jinntrace";
  std::string Err;
  bool Wrote = false, Read = false;
  Slice.WriteSeconds = timeIt([&] {
    Span S("trace.writeTraceFile");
    Wrote = trace::writeTraceFile(Retained, Path, &Err);
  });
  std::error_code Ec;
  Slice.FileBytes = Wrote ? std::filesystem::file_size(Path, Ec) : 0;
  trace::Trace Back;
  Slice.ReadSeconds = timeIt([&] {
    Span S("trace.readTraceFile");
    Read = Wrote && trace::readTraceFile(Back, Path, &Err);
  });
  std::filesystem::remove(Path, Ec);
  Check.check(Wrote && Read, 1, "soak: trace file round trip failed: " + Err);
  trace::ReplayResult Replayed;
  Slice.ReplaySeconds = timeIt([&] {
    Span S("trace.replayTrace");
    Replayed = trace::replayTrace(Back, World.Vm);
  });
  Slice.ReplayedEvents = Replayed.EventsReplayed;
  Check.check(replayIncludes(Inline, Replayed.Reports), Requests,
              "soak: replay misses an inline report");
}

} // namespace

SoakOptions soakOptions(const RunOptions &Opts, uint64_t Requests,
                        uint64_t Round) {
  SoakOptions Soak;
  Soak.Workers = Opts.SoakWorkers;
  Soak.Requests = Requests;
  Soak.OpsPerRequest = 24;
  Soak.Tenants = 4;
  Soak.BugEveryNRequests = BugEvery;
  Soak.Seed = SplitMix64(Opts.Seed).split(Round).next();
  return Soak;
}

SoakSlice runSoakSlice(SoakConfig Config, const SoakOptions &Soak,
                       const RunOptions &Opts, Oracle &Check) {
  SoakSlice Slice;
  // Hand the previous slices' freed memory back to the system first, so
  // each slice's peak reflects its own world rather than allocator history.
  malloc_trim(0);
  Slice.RssBeforeBytes = currentRssBytes();
  std::unique_ptr<ScenarioWorld> World;
  Slice.SetupSeconds = timeIt([&] {
    World = buildWorld(worldConfig(Config, Opts));
    Span S("workloads.prepareSoakWorld");
    prepareSoakWorld(*World);
  });

  if (Config == SoakConfig::Sampled) {
    runSampled(*World, Soak, Opts, Slice, Check);
  } else {
    Slice.Seconds = timeIt([&] {
      Span S("workloads.runServerSoak");
      Slice.Stats = runServerSoak(*World, Soak);
    });
    if (Config == SoakConfig::Inline)
      Check.check(Slice.Stats.Reports == Slice.Stats.SeededBugs,
                  Slice.Stats.Requests,
                  formatString("soak: inline reports %llu != %llu seeded bugs",
                               static_cast<unsigned long long>(
                                   Slice.Stats.Reports),
                               static_cast<unsigned long long>(
                                   Slice.Stats.SeededBugs)));
    World->shutdown();
  }
  Check.check(Slice.Stats.Requests == Soak.Requests, Soak.Requests,
              formatString("soak: %s completed %llu of %llu requests",
                           soakConfigName(Config),
                           static_cast<unsigned long long>(Slice.Stats.Requests),
                           static_cast<unsigned long long>(Soak.Requests)));
  return Slice;
}

WorkloadResult runSoak(const RunOptions &Opts, double Seconds) {
  WorkloadResult Result;
  const SoakConfig Configs[] = {SoakConfig::Production, SoakConfig::Interpose,
                                SoakConfig::Inline, SoakConfig::Sampled};
  constexpr unsigned NumConfigs = 4;
  SplitMix64 Rng(Opts.Seed ^ 0x736f616bULL);
  Budget Loop(Opts, Seconds);
  uint64_t Round = 0;
  for (; Loop.more(Round); ++Round) {
    SoakOptions Soak = soakOptions(Opts, RequestsPerSlice, Round);
    SoakSlice Slices[NumConfigs];
    unsigned Rotate = static_cast<unsigned>(Rng.next() % NumConfigs);
    for (unsigned K = 0; K < NumConfigs; ++K) {
      unsigned C = (K + Rotate) % NumConfigs;
      Slices[C] = runSoakSlice(Configs[C], Soak, Opts, Result.Check);
    }
    const SoakSlice &Prod = Slices[0], &Inter = Slices[1], &Inl = Slices[2],
                    &Samp = Slices[3];
    Result.sample("setup_s", "s",
                  Inl.SetupSeconds + Samp.SetupSeconds);
    Result.sample("check_slowdown", "x", Inl.Seconds / Prod.Seconds);
    Result.sample("interpose_slowdown", "x", Inter.Seconds / Prod.Seconds);
    Result.sample("ops_per_s", "1/s",
                  static_cast<double>(Inl.Stats.Requests) / Inl.Seconds,
                  /*HigherIsBetter=*/true);
    Result.sample("peak_rss_mb", "MB",
                  static_cast<double>(std::max(Inl.Stats.PeakRssBytes,
                                               Samp.Stats.PeakRssBytes)) /
                      (1024.0 * 1024.0));
    Result.sample("sampled_requests_per_s", "req/s",
                  static_cast<double>(Samp.Stats.Requests) / Samp.Seconds,
                  /*HigherIsBetter=*/true);
    Result.sample("replay_events_per_s", "events/s",
                  static_cast<double>(Samp.ReplayedEvents) /
                      (Samp.ReadSeconds + Samp.ReplaySeconds),
                  /*HigherIsBetter=*/true);
    Result.Counts["requests"] += Inl.Stats.Requests;
    Result.Counts["inline_reports"] += Inl.Stats.Reports;
    Result.Counts["sampled_reports"] += Samp.Stats.Reports;
    Result.Counts["seeded_bugs"] += Inl.Stats.SeededBugs;
    if (Opts.SoakWorkers == 1)
      Result.Counts["jni_calls"] += Inl.Stats.JniCalls;
  }
  Result.Counts["rounds"] = Round;
  return Result;
}

} // namespace perfbench
