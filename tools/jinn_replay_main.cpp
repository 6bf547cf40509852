//===- tools/jinn_replay_main.cpp - Offline replay checking driver -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the boundary-crossing trace subsystem: runs a
/// scenario (microbenchmark or Table 3 workload) with the trace recorder
/// attached, round-trips the recording through the binary trace file,
/// replays it through a fresh set of synthesized machines, and verifies
/// the determinism guarantee — the replayed report list must be
/// byte-identical to what the inline checker produced.
///
///   jinn-replay                          verify every microbenchmark
///   jinn-replay --micro LocalDangling    just one
///   jinn-replay --workload jack          record+replay a workload
///   jinn-replay --record-only ...        no inline machines; replay is
///                                        the only checker
///   jinn-replay --chrome t.json ...      export chrome://tracing JSON
///   jinn-replay --counters ...           print aggregated trace counters
///
//===----------------------------------------------------------------------===//

#include "jinn/JinnAgent.h"
#include "scenarios/Scenarios.h"
#include "trace/Export.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

using namespace jinn;
using scenarios::ScenarioWorld;
using scenarios::WorldConfig;

namespace {

struct DriverOptions {
  std::string Micro;        ///< run one micro by class name (default: all)
  std::string Workload;     ///< run a Table 3 workload instead
  uint64_t Scale = 4096;    ///< workload scale divisor
  unsigned Threads = 1;     ///< >1: concurrent workload driver
  bool RecordOnly = false;  ///< TraceMode::RecordOnly instead of both
  std::string TracePath;    ///< keep the trace file here (default: temp)
  std::string ChromePath;   ///< also export chrome trace JSON
  bool Counters = false;    ///< print the aggregated counters report
  std::vector<std::string> Machines; ///< replay machine filter
};

/// Bounds of the numeric options: --threads starts that many OS threads,
/// and --scale divides 64-bit transition counts.
constexpr uint64_t MaxThreads = 64;
constexpr uint64_t MaxScale = UINT32_MAX;

void printUsage() {
  std::printf(
      "usage: jinn-replay [options]\n"
      "  Records boundary-crossing traces, replays them through freshly\n"
      "  synthesized machines, and verifies the inline/replay report lists\n"
      "  are identical. Default: all microbenchmarks in record+replay mode.\n"
      "\n"
      "  --micro <class>     run one microbenchmark (e.g. LocalDangling)\n"
      "  --workload <name>   record a Table 3 workload (e.g. jack, db)\n"
      "  --scale <n>         workload scale divisor, 1..4294967295\n"
      "                      (default 4096)\n"
      "  --threads <n>       drive the workload from <n> OS threads, 1..64\n"
      "  --record-only       record without inline machines; replay is the\n"
      "                      only checker (no inline comparison)\n"
      "  --trace <path>      keep the binary trace file at <path>\n"
      "  --chrome <path>     write chrome://tracing JSON to <path>\n"
      "  --counters          print the aggregated counters report\n"
      "  --machines <a,b>    replay only these machines (spec names)\n");
}

/// Parses a decimal count in [1, Max]; anything else is a usage error.
bool parseCount(const char *Text, uint64_t Max, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE || V == 0 || V > Max)
    return false;
  Out = V;
  return true;
}

bool reportsEqual(const agent::JinnReport &A, const agent::JinnReport &B) {
  return A.Machine == B.Machine && A.Function == B.Function &&
         A.Message == B.Message && A.EndOfRun == B.EndOfRun;
}

bool reportListsEqual(std::vector<agent::JinnReport> A,
                      std::vector<agent::JinnReport> B, bool Sorted) {
  if (A.size() != B.size())
    return false;
  if (Sorted) {
    auto Key = [](const agent::JinnReport &R) {
      return std::make_tuple(R.Machine, R.Function, R.Message, R.EndOfRun);
    };
    auto Less = [&](const agent::JinnReport &X, const agent::JinnReport &Y) {
      return Key(X) < Key(Y);
    };
    std::sort(A.begin(), A.end(), Less);
    std::sort(B.begin(), B.end(), Less);
  }
  for (size_t I = 0; I < A.size(); ++I)
    if (!reportsEqual(A[I], B[I]))
      return false;
  return true;
}

/// Result of one record/round-trip/replay cycle.
struct CycleResult {
  uint64_t Events = 0;
  size_t InlineReports = 0;
  size_t ReplayReports = 0;
  /// Replayed crossings that fell back to the live VM for a peek.
  uint64_t Inexact = 0;
  bool Match = false;
  std::string Error; ///< non-empty on file/infrastructure failure
};

/// Records \p Run into \p World's recorder, round-trips the trace through
/// the binary file format, replays it, and compares report lists. The
/// world must be configured with a recording Jinn mode; \p Run executes
/// the scenario (the world is shut down afterwards). \p SortReports
/// relaxes the comparison to multiset equality for concurrent drivers,
/// where cross-thread inline report order is scheduler-dependent.
CycleResult runCycle(ScenarioWorld &World, const DriverOptions &Opts,
                     const std::function<void()> &Run, bool SortReports) {
  CycleResult Out;
  Run();
  World.shutdown();

  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = Opts.TracePath.empty() ? "jinn_replay.jinntrace"
                                            : Opts.TracePath;
  std::string Err;
  trace::Trace FromDisk;
  if (!trace::writeTraceFile(Recorded, Path, &Err) ||
      !trace::readTraceFile(FromDisk, Path, &Err)) {
    Out.Error = Err;
    return Out;
  }
  if (Opts.TracePath.empty())
    std::remove(Path.c_str());

  if (!Opts.ChromePath.empty() &&
      !trace::writeChromeTrace(FromDisk, Opts.ChromePath, &Err)) {
    Out.Error = Err;
    return Out;
  }

  trace::ReplayOptions ReplayOpts;
  ReplayOpts.EnabledMachines = Opts.Machines;
  trace::ReplayResult Replayed =
      trace::replayTrace(FromDisk, World.Vm, ReplayOpts);
  if (!Replayed.Error.empty()) {
    Out.Error = Replayed.Error;
    return Out;
  }

  if (Opts.Counters) {
    trace::TraceCounters Counters = trace::computeCounters(FromDisk);
    auto Violations = Replayed.violationsPerMachine();
    trace::printCountersReport(stdout, Counters, &Replayed.MachineTransitions,
                               &Violations);
  }

  Out.Events = Replayed.EventsReplayed;
  Out.ReplayReports = Replayed.Reports.size();
  Out.Inexact = Replayed.InexactCrossings;
  if (World.Jinn->mode() == agent::TraceMode::RecordAndReplay) {
    const auto &Inline = World.Jinn->reporter().reports();
    Out.InlineReports = Inline.size();
    Out.Match = reportListsEqual(Inline, Replayed.Reports, SortReports);
  } else {
    // Record-only: there is no inline list to compare against; replay is
    // the checker. Success means the replay ran the whole trace.
    Out.Match = true;
  }
  return Out;
}

WorldConfig configFor(const DriverOptions &Opts) {
  WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = Opts.RecordOnly ? agent::TraceMode::RecordOnly
                                    : agent::TraceMode::RecordAndReplay;
  return Config;
}

int runMicros(const DriverOptions &Opts) {
  std::printf("%-22s %8s %8s %8s %8s  %s\n", "microbenchmark", "events",
              "inline", "replay", "inexact", "verdict");
  int Failures = 0;
  for (const scenarios::MicroInfo &Info : scenarios::allMicrobenchmarks()) {
    if (!Opts.Micro.empty() && Opts.Micro != Info.ClassName)
      continue;
    ScenarioWorld World(configFor(Opts));
    CycleResult R = runCycle(
        World, Opts,
        [&] { scenarios::runMicrobenchmark(Info.Id, World); },
        /*SortReports=*/false);
    bool Pass = R.Error.empty() && R.Match;
    if (Opts.RecordOnly && Info.DetectableAtBoundary)
      Pass = Pass && R.ReplayReports > 0; // replay must catch the bug
    if (!Pass)
      ++Failures;
    std::printf("%-22s %8llu %8zu %8zu %8llu  %s%s%s\n", Info.ClassName,
                (unsigned long long)R.Events, R.InlineReports, R.ReplayReports,
                (unsigned long long)R.Inexact, Pass ? "PASS" : "FAIL",
                R.Error.empty() ? "" : " ", R.Error.c_str());
  }
  if (!Opts.Micro.empty() && Failures == 0) {
    // Verify the filter actually matched something.
    bool Known = false;
    for (const scenarios::MicroInfo &Info : scenarios::allMicrobenchmarks())
      Known |= Opts.Micro == Info.ClassName;
    if (!Known) {
      std::fprintf(stderr, "jinn-replay: unknown micro '%s'\n",
                   Opts.Micro.c_str());
      return 1;
    }
  }
  std::printf("%s: %d failure(s)\n",
              Opts.RecordOnly ? "record-only replay" : "replay determinism",
              Failures);
  return Failures ? 1 : 0;
}

int runWorkload(const DriverOptions &Opts) {
  const workloads::WorkloadInfo *Info = workloads::workloadByName(Opts.Workload);
  if (!Info) {
    std::fprintf(stderr, "jinn-replay: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 1;
  }
  ScenarioWorld World(configFor(Opts));
  workloads::prepareWorkloadWorld(World);
  workloads::WorkloadRun Run;
  CycleResult R = runCycle(
      World, Opts,
      [&] {
        Run = Opts.Threads > 1
                  ? workloads::runWorkloadConcurrent(*Info, World, Opts.Scale,
                                                     Opts.Threads)
                  : workloads::runWorkload(*Info, World, Opts.Scale);
      },
      /*SortReports=*/Opts.Threads > 1);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "jinn-replay: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("workload %s: %llu crossings, %llu events (%llu replay-"
              "inexact), inline %zu / replay %zu reports -> %s\n",
              Info->Name,
              (unsigned long long)(Run.JniCalls + Run.NativeTransitions),
              (unsigned long long)R.Events, (unsigned long long)R.Inexact,
              R.InlineReports, R.ReplayReports, R.Match ? "PASS" : "FAIL");
  return R.Match ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "jinn-replay: %s needs a value\n", Flag);
        std::exit(1);
      }
      return Argv[++I];
    };
    auto Count = [&](const char *Flag, uint64_t Max) -> uint64_t {
      const char *Text = Value(Flag);
      uint64_t N = 0;
      if (!parseCount(Text, Max, N)) {
        std::fprintf(stderr, "jinn-replay: %s needs a count in 1..%llu, not "
                             "'%s'\n",
                     Flag, static_cast<unsigned long long>(Max), Text);
        printUsage();
        std::exit(1);
      }
      return N;
    };
    if (std::strcmp(Argv[I], "--micro") == 0) {
      Opts.Micro = Value("--micro");
    } else if (std::strcmp(Argv[I], "--workload") == 0) {
      Opts.Workload = Value("--workload");
    } else if (std::strcmp(Argv[I], "--scale") == 0) {
      Opts.Scale = Count("--scale", MaxScale);
    } else if (std::strcmp(Argv[I], "--threads") == 0) {
      Opts.Threads = static_cast<unsigned>(Count("--threads", MaxThreads));
    } else if (std::strcmp(Argv[I], "--record-only") == 0) {
      Opts.RecordOnly = true;
    } else if (std::strcmp(Argv[I], "--trace") == 0) {
      Opts.TracePath = Value("--trace");
    } else if (std::strcmp(Argv[I], "--chrome") == 0) {
      Opts.ChromePath = Value("--chrome");
    } else if (std::strcmp(Argv[I], "--counters") == 0) {
      Opts.Counters = true;
    } else if (std::strcmp(Argv[I], "--machines") == 0) {
      std::string List = Value("--machines");
      size_t Pos = 0;
      while (Pos != std::string::npos) {
        size_t Comma = List.find(',', Pos);
        std::string Name = List.substr(
            Pos, Comma == std::string::npos ? Comma : Comma - Pos);
        if (!Name.empty())
          Opts.Machines.push_back(Name);
        Pos = Comma == std::string::npos ? Comma : Comma + 1;
      }
    } else if (std::strcmp(Argv[I], "--help") == 0) {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "jinn-replay: unknown argument '%s'\n", Argv[I]);
      printUsage();
      return 1;
    }
  }

  std::string MachineError = agent::checkMachineNames(Opts.Machines);
  if (!MachineError.empty()) {
    std::fprintf(stderr, "jinn-replay: %s\n", MachineError.c_str());
    return 1;
  }

  if (!Opts.Workload.empty())
    return runWorkload(Opts);
  return runMicros(Opts);
}
