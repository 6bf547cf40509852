//===- monitor/Monitor.h - Production monitoring loop --------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-monitoring loop: a JinnMonitor owns the periodic tick
/// that drains the recorder's streaming queue, folds each drained segment
/// into online aggregates (crossings/s, p50/p99 crossing latency, report
/// counts, drop counts, RSS peak), appends the segment to a bounded
/// TraceSink, and emits one JSON snapshot line per tick — the stream a
/// fleet-metrics pipeline would scrape.
///
/// Crossing latency is measured from the trace itself: each thread's
/// JniPre..JniPost (and NativeEntry..NativeExit) pairs are matched with a
/// per-thread stack carried across ticks, and the deltas feed a log-bucket
/// histogram, so percentiles cost O(64) memory regardless of run length.
///
/// Lifecycle: construct over a running agent (the agent must be in a
/// recording mode with StreamChunks on), then either call tick() manually
/// or start()/stop() the background thread; finish() performs the final
/// harvest once mutator threads are quiesced — it drains the queue, then
/// collect()s ring remnants, so the sink ends up with every event exactly
/// once.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_MONITOR_MONITOR_H
#define JINN_MONITOR_MONITOR_H

#include "jinn/JinnAgent.h"
#include "monitor/TraceSink.h"

#include <array>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <thread>

namespace jinn::monitor {

struct MonitorOptions {
  /// Background tick period (start()/stop() mode).
  uint64_t IntervalMs = 250;
  /// When non-empty, every tick appends one snapshot JSON line here.
  std::string SnapshotPath;
  /// Advisory RSS ceiling recorded into snapshots (gates alert on it);
  /// 0 = none.
  uint64_t RssCeilingBytes = 0;
};

/// One point-in-time aggregate view. All counters are cumulative since
/// monitor construction.
struct MonitorSnapshot {
  uint64_t UptimeMs = 0;
  uint64_t Ticks = 0;
  uint64_t Events = 0;          ///< trace events aggregated so far
  uint64_t Crossings = 0;       ///< boundary crossings (JNI calls + native entries)
  double CrossingsPerSec = 0.0; ///< Crossings over uptime
  uint64_t Reports = 0;         ///< reporter's violation count
  uint64_t DroppedEvents = 0;   ///< recorder-side drops observed in segments
  uint64_t P50CrossingNs = 0;   ///< median crossing latency (log-bucket approx)
  uint64_t P99CrossingNs = 0;
  uint64_t LatencySamples = 0;
  uint64_t RssBytes = 0;
  uint64_t PeakRssBytes = 0;
  uint64_t RssCeilingBytes = 0;
  SinkStats Sink;
  std::map<std::string, uint64_t> ReportsByMachine;

  /// Single-line JSON rendering (the JSONL snapshot format).
  std::string toJson() const;
};

/// Drives periodic drain -> aggregate -> sink ticks over a running agent.
class JinnMonitor {
public:
  /// \p Agent must outlive the monitor and be in a recording mode.
  JinnMonitor(jvm::Vm &Vm, agent::JinnAgent &Agent, TraceSink &Sink,
              MonitorOptions Opts = {});
  ~JinnMonitor();

  /// One monitoring step: drain the recorder's streaming queue, aggregate,
  /// append to the sink, emit a snapshot line. Thread-safe (the background
  /// thread and a harness may both call it).
  void tick();

  /// Starts/stops the background tick thread. Idempotent.
  void start();
  void stop();

  /// Final harvest, to be called once mutator threads are quiesced: stops
  /// the background thread, drains the queue, then collect()s whatever the
  /// still-attached threads (e.g. main) hold in partial rings, appending
  /// both to the sink, and emits a last snapshot.
  void finish();

  MonitorSnapshot snapshot() const;

private:
  void aggregateLocked(const trace::Trace &Segment);
  MonitorSnapshot snapshotLocked() const;
  void emitSnapshotLocked();
  uint64_t percentileLocked(double Fraction) const;

  jvm::Vm &Vm;
  agent::JinnAgent &Agent;
  TraceSink &Sink;
  MonitorOptions Opts;
  std::chrono::steady_clock::time_point Start;

  mutable std::mutex Mu;
  uint64_t Ticks = 0;
  uint64_t Events = 0;
  uint64_t Crossings = 0;
  uint64_t DroppedEvents = 0;
  uint64_t PeakRss = 0;
  uint64_t LastRss = 0;
  /// log2-bucketed crossing latencies (bucket k covers [2^k, 2^(k+1)) ns).
  std::array<uint64_t, 64> LatencyBuckets{};
  uint64_t LatencySamples = 0;
  /// Per-thread stack of open crossing start times, carried across ticks
  /// (a crossing can span a segment boundary). Erased at thread detach.
  std::map<uint32_t, std::vector<std::pair<uint8_t, uint64_t>>> OpenCrossings;
  std::FILE *SnapshotFile = nullptr;
  bool FinalHarvestDone = false;

  std::thread Worker;
  std::mutex CvMu;
  std::condition_variable Cv;
  bool StopFlag = false;
  bool Running = false;
};

/// The verdict of a replay check: do the reports replayed from a sink's
/// retained trace reproduce the reports the agent made inline?
enum class ReplayVerdict : uint8_t {
  Pass,       ///< every inline report was reproduced
  Fail,       ///< nothing was dropped, yet some inline report was not
  Incomplete, ///< events were dropped: the retained trace is not the run
};

/// Judges a replay check in which \p Matched of \p InlineReports inline
/// reports were reproduced from a retained trace that lost
/// \p DroppedEvents events (recorder and sink drops together). With any
/// drop the verdict is Incomplete: the replay contract covers retained
/// events only, so a mismatch then says the retention window was too
/// small, not that the contract broke.
ReplayVerdict replayVerdict(size_t Matched, size_t InlineReports,
                            uint64_t DroppedEvents);

/// "PASS", "FAIL" or "INCOMPLETE".
const char *replayVerdictName(ReplayVerdict Verdict);

} // namespace jinn::monitor

#endif // JINN_MONITOR_MONITOR_H
