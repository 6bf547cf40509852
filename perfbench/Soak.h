//===- perfbench/Soak.h - Server-soak slices -----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One soak slice: a fresh world of one configuration, a fixed number of
/// runServerSoak requests, and that configuration's output checks. The
/// sampled configuration adds a streaming recorder, a RingSink, a
/// JinnMonitor ticked every 20 ms by a benchmark thread, and afterwards
/// writes the retained trace to a file, reads it back and replays it.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PERFBENCH_SOAK_H
#define JINN_PERFBENCH_SOAK_H

#include "Bench.h"

#include "workloads/ServerSoak.h"

#include <vector>

namespace perfbench {

enum class SoakConfig { Production, Interpose, Inline, Sampled };

/// Everything one slice measured. Fields after Stats are filled only by
/// the sampled configuration.
struct SoakSlice {
  double SetupSeconds = 0; ///< world construction plus class preparation
  double Seconds = 0;      ///< runServerSoak wall time
  uint64_t RssBeforeBytes = 0;
  jinn::workloads::SoakStats Stats;

  std::vector<double> TickMs;
  double FinishMs = 0;
  uint64_t TraceEvents = 0;
  uint64_t RecordedThreads = 0;
  uint64_t FileBytes = 0;
  uint64_t RecorderDrops = 0;
  uint64_t SinkRetainedBytes = 0;
  uint64_t SinkDroppedEvents = 0;
  double WriteSeconds = 0, ReadSeconds = 0, ReplaySeconds = 0;
  uint64_t ReplayedEvents = 0;
};

/// Soak options of round \p Round: \p Requests requests over the run's
/// worker count, 24 operations each, 4 tenants, the pitfall-1 bug every
/// 8th request of each worker, and a seed drawn from the run seed.
jinn::workloads::SoakOptions soakOptions(const RunOptions &Opts,
                                         uint64_t Requests, uint64_t Round);

/// Runs one slice and records its output checks in \p Check.
SoakSlice runSoakSlice(SoakConfig Config,
                       const jinn::workloads::SoakOptions &Soak,
                       const RunOptions &Opts, Oracle &Check);

} // namespace perfbench

#endif // JINN_PERFBENCH_SOAK_H
