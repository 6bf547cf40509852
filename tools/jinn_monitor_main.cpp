//===- tools/jinn_monitor_main.cpp - Production monitoring CLI -----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jinn-monitor: run the multi-tenant server soak under the production
/// monitoring configuration — deterministic sampled checking, streaming
/// recorder, bounded trace sink, periodic JSON snapshots — and print the
/// final snapshot. The command-line shape a deployment's sidecar would
/// have.
///
///   jinn-monitor [options]
///     --workers N        concurrent request workers        (default 4)
///     --requests N       total requests                    (default 800)
///     --duration-ms N    run under load for N ms instead   (default off)
///     --ops N            JNI ops per request               (default 24)
///     --tenants N        tenants sharing global state      (default 4)
///     --sample-rate N    check 1-in-N request threads      (default 16)
///     --sample-seed N    sampling stream root seed
///     --bug-every N      seeded-bug every Nth request      (default 0)
///     --sink-dir PATH    rotating file sink directory (default: in-memory)
///     --rotate-bytes N   segment file rotation threshold   (default 4 MiB)
///     --segments N       segment files retained            (default 8)
///     --interval-ms N    monitor tick period               (default 100)
///     --snapshots PATH   JSONL snapshot stream file
///     --replay           verify sampled reports replay from the sink
///
/// Exits 0 on success; 2 on usage errors or when --replay cannot verify
/// because the recorder or the sink dropped events (INCOMPLETE); 1 when
/// --replay verification fails with nothing dropped or a seeded-bug run
/// produced no reports.
///
//===----------------------------------------------------------------------===//

#include "monitor/Monitor.h"
#include "monitor/TraceSink.h"
#include "trace/Replay.h"
#include "workloads/ServerSoak.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

struct CliOptions {
  SoakOptions Soak;
  uint32_t SampleRate = 16;
  uint64_t SampleSeed = 0x6a696e6e5eedULL;
  std::string SinkDir;
  size_t RotateBytes = 4u << 20;
  size_t Segments = 8;
  uint64_t IntervalMs = 100;
  std::string SnapshotPath;
  bool Replay = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--requests N] [--duration-ms N]\n"
               "          [--ops N] [--tenants N] [--sample-rate N]\n"
               "          [--sample-seed N] [--bug-every N] [--sink-dir P]\n"
               "          [--rotate-bytes N] [--segments N] [--interval-ms N]\n"
               "          [--snapshots P] [--replay]\n",
               Argv0);
  return 2;
}

bool parseUint(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return End && *End == '\0' && End != Text;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  Cli.Soak.Requests = 800;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto NextUint = [&](uint64_t &Out) {
      return I + 1 < Argc && parseUint(Argv[++I], Out);
    };
    uint64_t V = 0;
    if (Arg == "--workers" && NextUint(V))
      Cli.Soak.Workers = static_cast<unsigned>(V);
    else if (Arg == "--requests" && NextUint(V))
      Cli.Soak.Requests = V;
    else if (Arg == "--duration-ms" && NextUint(V))
      Cli.Soak.DurationMs = V;
    else if (Arg == "--ops" && NextUint(V))
      Cli.Soak.OpsPerRequest = V;
    else if (Arg == "--tenants" && NextUint(V))
      Cli.Soak.Tenants = static_cast<unsigned>(V);
    else if (Arg == "--sample-rate" && NextUint(V))
      Cli.SampleRate = static_cast<uint32_t>(V);
    else if (Arg == "--sample-seed" && NextUint(V))
      Cli.SampleSeed = V;
    else if (Arg == "--bug-every" && NextUint(V))
      Cli.Soak.BugEveryNRequests = V;
    else if (Arg == "--sink-dir" && I + 1 < Argc)
      Cli.SinkDir = Argv[++I];
    else if (Arg == "--rotate-bytes" && NextUint(V))
      Cli.RotateBytes = static_cast<size_t>(V);
    else if (Arg == "--segments" && NextUint(V))
      Cli.Segments = static_cast<size_t>(V);
    else if (Arg == "--interval-ms" && NextUint(V))
      Cli.IntervalMs = V;
    else if (Arg == "--snapshots" && I + 1 < Argc)
      Cli.SnapshotPath = Argv[++I];
    else if (Arg == "--replay")
      Cli.Replay = true;
    else
      return usage(Argv[0]);
  }

  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnSampleRate = Cli.SampleRate;
  Config.JinnSampleSeed = Cli.SampleSeed;
  // Sampling promotes to record+replay by itself; record even at rate 1 so
  // the monitor always has a stream to aggregate.
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  Config.JinnRecorder.StreamChunks = true;
  ScenarioWorld World(Config);

  std::unique_ptr<monitor::TraceSink> Sink;
  if (!Cli.SinkDir.empty()) {
    monitor::RotatingFileSink::Options SinkOpts;
    SinkOpts.Directory = Cli.SinkDir;
    SinkOpts.RotateBytes = Cli.RotateBytes;
    SinkOpts.MaxSegments = Cli.Segments;
    Sink = std::make_unique<monitor::RotatingFileSink>(SinkOpts);
  } else {
    monitor::RingSink::Options SinkOpts;
    SinkOpts.MaxSegments = Cli.Segments ? Cli.Segments * 64 : 0;
    Sink = std::make_unique<monitor::RingSink>(SinkOpts);
  }

  monitor::MonitorOptions MonOpts;
  MonOpts.IntervalMs = Cli.IntervalMs;
  MonOpts.SnapshotPath = Cli.SnapshotPath;
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, *Sink, MonOpts);
  Monitor.start();

  SoakStats Stats = runServerSoak(World, Cli.Soak);
  Monitor.finish();

  std::vector<agent::JinnReport> Inline = World.Jinn->reporter().reports();
  World.shutdown();

  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  std::printf("%s\n", Snap.toJson().c_str());
  std::fprintf(stderr,
               "jinn-monitor: %llu requests in %.2fs (%.0f req/s), "
               "%llu JNI calls, %llu seeded bugs, %llu reports\n",
               static_cast<unsigned long long>(Stats.Requests), Stats.Seconds,
               Stats.Seconds > 0
                   ? static_cast<double>(Stats.Requests) / Stats.Seconds
                   : 0.0,
               static_cast<unsigned long long>(Stats.JniCalls),
               static_cast<unsigned long long>(Stats.SeededBugs),
               static_cast<unsigned long long>(Stats.Reports));

  int Exit = 0;
  if (Cli.Soak.BugEveryNRequests && Cli.SampleRate > 0 && Stats.Reports == 0 &&
      Stats.SeededBugs >= Cli.SampleRate) {
    std::fprintf(stderr, "jinn-monitor: seeded-bug run produced no reports\n");
    Exit = 1;
  }

  if (Cli.Replay) {
    trace::Trace Retained = Sink->retained();
    trace::ReplayResult Replayed = trace::replayTrace(Retained, World.Vm);
    size_t Matched = 0, InlineViolations = 0;
    std::vector<const agent::JinnReport *> Pool;
    for (const agent::JinnReport &R : Replayed.Reports)
      if (!R.EndOfRun)
        Pool.push_back(&R);
    for (const agent::JinnReport &R : Inline) {
      if (R.EndOfRun)
        continue;
      ++InlineViolations;
      for (auto It = Pool.begin(); It != Pool.end(); ++It)
        if ((*It)->Machine == R.Machine && (*It)->Function == R.Function &&
            (*It)->Message == R.Message) {
          Pool.erase(It);
          ++Matched;
          break;
        }
    }
    uint64_t Dropped = Snap.DroppedEvents + Snap.Sink.DroppedEvents;
    monitor::ReplayVerdict Verdict =
        monitor::replayVerdict(Matched, InlineViolations, Dropped);
    std::fprintf(stderr,
                 "jinn-monitor: replay: %zu/%zu inline reports reproduced "
                 "from %llu retained events (%zu replay reports, %llu "
                 "events dropped): %s\n",
                 Matched, InlineViolations,
                 static_cast<unsigned long long>(Retained.Events.size()),
                 Replayed.Reports.size(),
                 static_cast<unsigned long long>(Dropped),
                 monitor::replayVerdictName(Verdict));
    if (Verdict == monitor::ReplayVerdict::Incomplete)
      Exit = 2;
    else if (Verdict == monitor::ReplayVerdict::Fail)
      Exit = 1;
  }
  return Exit;
}
