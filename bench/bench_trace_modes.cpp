//===- bench/bench_trace_modes.cpp - Trace-mode overhead comparison ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the boundary treatments of the Jinn agent across the Table 3
/// workloads: inline-check (the paper's deployment), record-only
/// (recorder at the boundary, checking deferred to offline replay), and
/// record+replay (both). All three run on the one compiled dispatch
/// table; they differ only in its slots. Reports wall-clock normalized to
/// the production run and the absolute per-crossing overhead each mode
/// adds. The acceptance claim: record-only adds less per-crossing overhead
/// than record+replay, i.e. deferring the checks offline takes the machine
/// slots off the boundary. Also measures multi-threaded runs and offline
/// replay throughput.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

struct ModeSpec {
  const char *Name;
  bool Jinn;             ///< false = production run (no agent)
  agent::TraceMode Mode; ///< meaningful when Jinn
};

const ModeSpec Modes[] = {
    {"production", false, agent::TraceMode::InlineCheck},
    {"inline-check", true, agent::TraceMode::InlineCheck},
    {"record-only", true, agent::TraceMode::RecordOnly},
    {"record+replay", true, agent::TraceMode::RecordAndReplay},
};

WorldConfig configFor(const ModeSpec &Mode) {
  WorldConfig Config;
  if (Mode.Jinn) {
    Config.Checker = CheckerKind::Jinn;
    Config.JinnMode = Mode.Mode;
    // Bounded recording: long workloads would otherwise hold the whole
    // event stream (hundreds of bytes per crossing) in memory. The ring
    // cost per event is what we are measuring; dropped history is fine.
    Config.JinnRecorder.MaxChunksPerThread = 8;
  }
  return Config;
}

struct Timing {
  double Seconds = 0;
  uint64_t Crossings = 0; ///< JNI calls + native-method invocations
};

constexpr size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);

/// Times all modes over one workload with interleaved rounds: each round
/// times every mode back-to-back, and each mode keeps its fastest round.
/// Interleaving exposes every mode to the same machine-noise phases, and
/// min-of-rounds discards scheduler spikes — both essential when one run
/// is sub-millisecond. One timed sample is a block of consecutive runs,
/// which measures the sustained cost: recording is buffer-heavy, and a
/// single cold run after three other modes trampled the cache would
/// charge the eviction bill to the recorder. Each mode's world is warmed
/// at the measured scale first so the bounded recorder reaches its
/// allocation-free steady state before any timing.
std::array<Timing, NumModes> measureWorkload(const WorkloadInfo &Info,
                                             uint64_t Scale) {
  constexpr int Rounds = 5;
  constexpr int BlockRuns = 4;
  std::array<std::unique_ptr<ScenarioWorld>, NumModes> Worlds;
  std::array<Timing, NumModes> Out;
  for (size_t M = 0; M < NumModes; ++M) {
    Worlds[M] = std::make_unique<ScenarioWorld>(configFor(Modes[M]));
    prepareWorkloadWorld(*Worlds[M]);
    runWorkload(Info, *Worlds[M], Scale); // warm-up
    Out[M].Seconds = 1e300;
  }
  for (int R = 0; R < Rounds; ++R)
    for (size_t M = 0; M < NumModes; ++M) {
      uint64_t Crossings = 0;
      double Seconds = bench::timeSeconds([&] {
        for (int B = 0; B < BlockRuns; ++B) {
          WorkloadRun Run = runWorkload(Info, *Worlds[M], Scale);
          Crossings += Run.JniCalls + Run.NativeTransitions;
        }
      });
      Out[M].Crossings = Crossings;
      Out[M].Seconds = std::min(Out[M].Seconds, Seconds);
    }
  return Out;
}

void printModesTable(uint64_t Scale, bench::JsonResults &Json,
                     bool &RecordCheaper) {
  bench::printHeader(
      "Trace modes - normalized runtime and per-crossing overhead\n"
      "(production run = 1.00; overhead in ns per boundary crossing)");
  std::printf("%-11s | %7s %7s %7s | %9s %9s %9s\n", "benchmark", "inline",
              "record", "rec+rep", "inline ns", "record ns", "recrep ns");
  bench::printRule();

  double SumInlineNs = 0, SumRecordNs = 0, SumRecRepNs = 0;
  size_t N = 0;
  for (const WorkloadInfo &Info : allWorkloads()) {
    std::array<Timing, NumModes> T = measureWorkload(Info, Scale);
    const Timing &Base = T[0], &Inline = T[1], &Record = T[2],
                 &RecRep = T[3];
    double Crossings = static_cast<double>(
        Base.Crossings ? Base.Crossings : 1);
    double InlineNs = (Inline.Seconds - Base.Seconds) / Crossings * 1e9;
    double RecordNs = (Record.Seconds - Base.Seconds) / Crossings * 1e9;
    double RecRepNs = (RecRep.Seconds - Base.Seconds) / Crossings * 1e9;
    std::printf("%-11s | %6.2fx %6.2fx %6.2fx | %9.1f %9.1f %9.1f\n",
                Info.Name, Inline.Seconds / Base.Seconds,
                Record.Seconds / Base.Seconds, RecRep.Seconds / Base.Seconds,
                InlineNs, RecordNs, RecRepNs);
    Json.add(std::string(Info.Name) + "/inline_ns_per_crossing", InlineNs,
             "ns");
    Json.add(std::string(Info.Name) + "/record_ns_per_crossing", RecordNs,
             "ns");
    Json.add(std::string(Info.Name) + "/recrep_ns_per_crossing", RecRepNs,
             "ns");
    SumInlineNs += InlineNs;
    SumRecordNs += RecordNs;
    SumRecRepNs += RecRepNs;
    ++N;
  }
  bench::printRule();
  double MeanInline = SumInlineNs / static_cast<double>(N);
  double MeanRecord = SumRecordNs / static_cast<double>(N);
  double MeanRecRep = SumRecRepNs / static_cast<double>(N);
  std::printf("%-11s | %7s %7s %7s | %9.1f %9.1f %9.1f   mean\n", "mean", "",
              "", "", MeanInline, MeanRecord, MeanRecRep);
  // Record+replay runs the recorder's slots plus the machine slots, so
  // record-only must come out cheaper: that gap is what recording and
  // replaying offline takes off the boundary.
  RecordCheaper = MeanRecord < MeanRecRep;
  std::printf("\nacceptance: record-only %.1f ns/crossing %s record+replay "
              "%.1f ns/crossing : %s\n",
              MeanRecord, RecordCheaper ? "<" : ">=", MeanRecRep,
              RecordCheaper ? "PASS" : "FAIL");
  Json.add("mean_inline_ns_per_crossing", MeanInline, "ns");
  Json.add("mean_record_ns_per_crossing", MeanRecord, "ns");
  Json.add("mean_recrep_ns_per_crossing", MeanRecRep, "ns");
  Json.add("record_only_cheaper_than_recrep",
           std::string(RecordCheaper ? "true" : "false"));
}

void printConcurrentTable(uint64_t Scale, bench::JsonResults &Json) {
  bench::printHeader("Trace modes under the concurrent workload driver\n"
                     "(workload \"jack\", aggregate wall-clock, median of 3)");
  const WorkloadInfo &Info = *workloadByName("jack");
  std::printf("%-14s |", "mode");
  for (unsigned NumThreads : {1u, 2u, 4u})
    std::printf(" %8u thr", NumThreads);
  std::printf("\n");
  bench::printRule();
  // Same interleaved min-of-rounds discipline as the single-thread table.
  const unsigned ThreadCounts[] = {1, 2, 4};
  double Best[NumModes][3];
  for (unsigned C = 0; C < 3; ++C) {
    std::array<std::unique_ptr<ScenarioWorld>, NumModes> Worlds;
    for (size_t M = 0; M < NumModes; ++M) {
      Worlds[M] = std::make_unique<ScenarioWorld>(configFor(Modes[M]));
      prepareWorkloadWorld(*Worlds[M]);
      runWorkloadConcurrent(Info, *Worlds[M], Scale, ThreadCounts[C]);
      Best[M][C] = 1e300;
    }
    for (int R = 0; R < 3; ++R)
      for (size_t M = 0; M < NumModes; ++M)
        Best[M][C] = std::min(Best[M][C], bench::timeSeconds([&] {
          runWorkloadConcurrent(Info, *Worlds[M], Scale, ThreadCounts[C]);
        }));
  }
  for (size_t M = 0; M < NumModes; ++M) {
    std::printf("%-14s |", Modes[M].Name);
    for (unsigned C = 0; C < 3; ++C) {
      std::printf(" %9.2fms", Best[M][C] * 1e3);
      Json.add(std::string("mt/") + Modes[M].Name + "/" +
                   std::to_string(ThreadCounts[C]) + "t",
               Best[M][C] * 1e3, "ms");
    }
    std::printf("\n");
  }
}

void printReplayThroughput(uint64_t Scale, bench::JsonResults &Json) {
  bench::printHeader("Offline replay throughput (workload \"db\")");
  // Record a full-fidelity trace (unbounded) at a deeper scale so the
  // whole event stream fits comfortably in memory.
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  ScenarioWorld World(Config);
  prepareWorkloadWorld(World);
  const WorkloadInfo &Info = *workloadByName("db");
  runWorkload(Info, World, Scale * 4);
  World.shutdown();

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  const std::string Path = "bench_trace_modes.jinntrace";
  std::string Err;
  if (!trace::writeTraceFile(Recorded, Path, &Err)) {
    std::printf("trace write failed: %s\n", Err.c_str());
    return;
  }
  trace::Trace FromDisk;
  if (!trace::readTraceFile(FromDisk, Path, &Err)) {
    std::printf("trace read failed: %s\n", Err.c_str());
    return;
  }
  std::remove(Path.c_str());

  trace::ReplayResult Replayed;
  double Seconds = bench::medianSeconds(
      [&] { Replayed = trace::replayTrace(FromDisk, World.Vm); }, 3);
  double EventsPerSec =
      static_cast<double>(Replayed.EventsReplayed) / Seconds;
  std::printf("%llu events replayed in %.2f ms  (%.2f M events/s, "
              "%zu reports)\n",
              static_cast<unsigned long long>(Replayed.EventsReplayed),
              Seconds * 1e3, EventsPerSec / 1e6, Replayed.Reports.size());
  Json.add("replay_events", static_cast<double>(Replayed.EventsReplayed),
           "events");
  Json.add("replay_throughput", EventsPerSec, "events/s");
}

void BM_TraceModeUnit(benchmark::State &State, const ModeSpec &Mode) {
  ScenarioWorld World(configFor(Mode));
  prepareWorkloadWorld(World);
  const WorkloadInfo &Info = *workloadByName("db");
  runWorkload(Info, World, 1024); // warm-up
  uint64_t Crossings = 0;
  for (auto _ : State) {
    WorkloadRun Run = runWorkload(Info, World, 256);
    benchmark::DoNotOptimize(Run.Checksum);
    Crossings += Run.JniCalls + Run.NativeTransitions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Crossings));
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = 2048;
  if (const char *Env = std::getenv("JINN_BENCH_SCALE"))
    Scale = std::strtoull(Env, nullptr, 10);
  if (!Scale)
    Scale = 2048;

  bench::JsonResults Json("trace_modes");
  Json.add("scale_divisor", static_cast<double>(Scale), "");
  bool RecordCheaper = false;
  printModesTable(Scale, Json, RecordCheaper);
  printConcurrentTable(Scale, Json);
  printReplayThroughput(Scale, Json);
  Json.writeFile();

  for (const ModeSpec &Mode : Modes)
    benchmark::RegisterBenchmark(
        (std::string("TraceModeUnit/") + Mode.Name).c_str(),
        BM_TraceModeUnit, Mode);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  std::printf("\nPer-call costs (google-benchmark):\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RecordCheaper ? 0 : 1;
}
