//===- monitor/Monitor.cpp - Production monitoring loop ------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "monitor/Monitor.h"

#include "support/Compiler.h"
#include "support/Format.h"
#include "support/Resource.h"

#include <algorithm>

using namespace jinn;
using namespace jinn::monitor;

namespace {

/// Crossing-kind tags for the open-crossing stacks.
constexpr uint8_t JniCrossing = 0;
constexpr uint8_t NativeCrossing = 1;

} // namespace

std::string MonitorSnapshot::toJson() const {
  std::string Json = formatString(
      "{\"uptime_ms\":%llu,\"ticks\":%llu,\"events\":%llu,"
      "\"crossings\":%llu,\"crossings_per_sec\":%.1f,\"reports\":%llu,"
      "\"dropped_events\":%llu,\"p50_crossing_ns\":%llu,"
      "\"p99_crossing_ns\":%llu,\"latency_samples\":%llu,"
      "\"rss_bytes\":%llu,\"peak_rss_bytes\":%llu,\"rss_ceiling_bytes\":%llu",
      static_cast<unsigned long long>(UptimeMs),
      static_cast<unsigned long long>(Ticks),
      static_cast<unsigned long long>(Events),
      static_cast<unsigned long long>(Crossings), CrossingsPerSec,
      static_cast<unsigned long long>(Reports),
      static_cast<unsigned long long>(DroppedEvents),
      static_cast<unsigned long long>(P50CrossingNs),
      static_cast<unsigned long long>(P99CrossingNs),
      static_cast<unsigned long long>(LatencySamples),
      static_cast<unsigned long long>(RssBytes),
      static_cast<unsigned long long>(PeakRssBytes),
      static_cast<unsigned long long>(RssCeilingBytes));
  Json += formatString(
      ",\"sink\":{\"appended_segments\":%llu,\"appended_events\":%llu,"
      "\"retained_segments\":%llu,\"retained_events\":%llu,"
      "\"retained_bytes\":%llu,\"dropped_segments\":%llu,"
      "\"dropped_events\":%llu}",
      static_cast<unsigned long long>(Sink.AppendedSegments),
      static_cast<unsigned long long>(Sink.AppendedEvents),
      static_cast<unsigned long long>(Sink.RetainedSegments),
      static_cast<unsigned long long>(Sink.RetainedEvents),
      static_cast<unsigned long long>(Sink.RetainedBytes),
      static_cast<unsigned long long>(Sink.DroppedSegments),
      static_cast<unsigned long long>(Sink.DroppedEvents));
  Json += ",\"reports_by_machine\":{";
  bool First = true;
  for (const auto &[Machine, Count] : ReportsByMachine) {
    Json += formatString("%s\"%s\":%llu", First ? "" : ",", Machine.c_str(),
                         static_cast<unsigned long long>(Count));
    First = false;
  }
  Json += "}}";
  return Json;
}

JinnMonitor::JinnMonitor(jvm::Vm &Vm, agent::JinnAgent &Agent, TraceSink &Sink,
                         MonitorOptions Opts)
    : Vm(Vm), Agent(Agent), Sink(Sink), Opts(std::move(Opts)),
      Start(std::chrono::steady_clock::now()) {
  if (!this->Opts.SnapshotPath.empty())
    SnapshotFile = std::fopen(this->Opts.SnapshotPath.c_str(), "w");
}

JinnMonitor::~JinnMonitor() {
  stop();
  if (SnapshotFile)
    std::fclose(SnapshotFile);
}

void JinnMonitor::aggregateLocked(const trace::Trace &Segment) {
  Events += Segment.Events.size();
  DroppedEvents += Segment.Head.DroppedEvents;
  for (const trace::TraceEvent &Event : Segment.Events) {
    switch (Event.Kind) {
    case trace::EventKind::JniPre:
      Crossings += 1;
      OpenCrossings[Event.ThreadId].push_back({JniCrossing, Event.TimeNs});
      break;
    case trace::EventKind::NativeEntry:
      Crossings += 1;
      OpenCrossings[Event.ThreadId].push_back({NativeCrossing, Event.TimeNs});
      break;
    case trace::EventKind::JniPost:
    case trace::EventKind::NativeExit: {
      uint8_t Want = Event.Kind == trace::EventKind::JniPost ? JniCrossing
                                                             : NativeCrossing;
      auto It = OpenCrossings.find(Event.ThreadId);
      if (It == OpenCrossings.end())
        break;
      auto &Stack = It->second;
      // A suppressed JNI call records a pre without a post; such stale
      // entries are discarded when the enclosing crossing closes over
      // them (kind mismatch).
      while (!Stack.empty() && Stack.back().first != Want)
        Stack.pop_back();
      if (Stack.empty())
        break;
      uint64_t Delta = Event.TimeNs >= Stack.back().second
                           ? Event.TimeNs - Stack.back().second
                           : 0;
      Stack.pop_back();
      unsigned Bucket = 0;
      for (uint64_t V = Delta; V >>= 1;)
        ++Bucket;
      LatencyBuckets[Bucket] += 1;
      LatencySamples += 1;
      break;
    }
    case trace::EventKind::ThreadDetach:
      OpenCrossings.erase(Event.ThreadId);
      break;
    default:
      break;
    }
  }
  LastRss = currentRssBytes();
  PeakRss = std::max(PeakRss, LastRss);
}

uint64_t JinnMonitor::percentileLocked(double Fraction) const {
  if (!LatencySamples)
    return 0;
  uint64_t Target = static_cast<uint64_t>(Fraction *
                                          static_cast<double>(LatencySamples));
  if (Target >= LatencySamples)
    Target = LatencySamples - 1;
  uint64_t Seen = 0;
  for (size_t K = 0; K < LatencyBuckets.size(); ++K) {
    Seen += LatencyBuckets[K];
    if (Seen > Target)
      return (1ULL << K) + (1ULL << K) / 2; // bucket midpoint
  }
  return 0;
}

MonitorSnapshot JinnMonitor::snapshotLocked() const {
  MonitorSnapshot Snap;
  auto Now = std::chrono::steady_clock::now();
  Snap.UptimeMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Now - Start)
          .count());
  Snap.Ticks = Ticks;
  Snap.Events = Events;
  Snap.Crossings = Crossings;
  double Seconds = static_cast<double>(Snap.UptimeMs) / 1000.0;
  Snap.CrossingsPerSec =
      Seconds > 0 ? static_cast<double>(Crossings) / Seconds : 0.0;
  Snap.Reports = Agent.reporter().reportCount();
  Snap.ReportsByMachine = Agent.reporter().reportCountsByMachine();
  Snap.DroppedEvents = DroppedEvents;
  Snap.P50CrossingNs = percentileLocked(0.50);
  Snap.P99CrossingNs = percentileLocked(0.99);
  Snap.LatencySamples = LatencySamples;
  Snap.RssBytes = LastRss;
  Snap.PeakRssBytes = PeakRss;
  Snap.RssCeilingBytes = Opts.RssCeilingBytes;
  Snap.Sink = Sink.stats();
  return Snap;
}

void JinnMonitor::emitSnapshotLocked() {
  if (!SnapshotFile)
    return;
  std::string Line = snapshotLocked().toJson();
  std::fprintf(SnapshotFile, "%s\n", Line.c_str());
  std::fflush(SnapshotFile);
}

void JinnMonitor::tick() {
  trace::Trace Segment;
  if (trace::TraceRecorder *Recorder = Agent.recorder())
    Segment = Recorder->drainSealed();
  std::lock_guard<std::mutex> Lock(Mu);
  Ticks += 1;
  aggregateLocked(Segment);
  if (!Segment.Events.empty())
    Sink.append(std::move(Segment));
  Vm.diags().setCounter("jinn.monitor.crossings", Crossings);
  Vm.diags().setCounter("jinn.monitor.events", Events);
  emitSnapshotLocked();
}

void JinnMonitor::start() {
  {
    std::lock_guard<std::mutex> Lock(CvMu);
    if (Running)
      return;
    Running = true;
    StopFlag = false;
  }
  Worker = std::thread([this] {
    std::unique_lock<std::mutex> Lock(CvMu);
    while (!StopFlag) {
      Cv.wait_for(Lock, std::chrono::milliseconds(Opts.IntervalMs),
                  [this] { return StopFlag; });
      if (StopFlag)
        break;
      Lock.unlock();
      tick();
      Lock.lock();
    }
  });
}

void JinnMonitor::stop() {
  {
    std::lock_guard<std::mutex> Lock(CvMu);
    if (!Running)
      return;
    StopFlag = true;
  }
  Cv.notify_all();
  if (Worker.joinable())
    Worker.join();
  std::lock_guard<std::mutex> Lock(CvMu);
  Running = false;
}

void JinnMonitor::finish() {
  stop();
  tick(); // drain everything queued up to quiescence
  trace::TraceRecorder *Recorder = Agent.recorder();
  std::lock_guard<std::mutex> Lock(Mu);
  if (FinalHarvestDone || !Recorder) {
    emitSnapshotLocked();
    return;
  }
  FinalHarvestDone = true;
  // Ring remnants of still-attached threads (e.g. main) were never sealed
  // into the queue; a full collect picks them up. The queue is empty after
  // the tick above, so nothing is duplicated.
  trace::Trace Rest = Recorder->collect();
  // collect() reports the recorder's *total* drop count; earlier drains
  // already accounted for part of it, so fold in only the remainder.
  uint64_t Total = Rest.Head.DroppedEvents;
  Rest.Head.DroppedEvents = Total > DroppedEvents ? Total - DroppedEvents : 0;
  Ticks += 1;
  aggregateLocked(Rest);
  if (!Rest.Events.empty())
    Sink.append(std::move(Rest));
  emitSnapshotLocked();
}

MonitorSnapshot JinnMonitor::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return snapshotLocked();
}

ReplayVerdict jinn::monitor::replayVerdict(size_t Matched,
                                           size_t InlineReports,
                                           uint64_t DroppedEvents) {
  if (DroppedEvents > 0)
    return ReplayVerdict::Incomplete;
  return Matched == InlineReports ? ReplayVerdict::Pass : ReplayVerdict::Fail;
}

const char *jinn::monitor::replayVerdictName(ReplayVerdict Verdict) {
  switch (Verdict) {
  case ReplayVerdict::Pass:
    return "PASS";
  case ReplayVerdict::Fail:
    return "FAIL";
  case ReplayVerdict::Incomplete:
    return "INCOMPLETE";
  }
  JINN_UNREACHABLE("invalid ReplayVerdict");
}
