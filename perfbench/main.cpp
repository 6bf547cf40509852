//===- perfbench/main.cpp - The repository benchmark ---------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   jinn_perfbench --workload <table3|jni_dense|soak|pyc> --seed <n>
///                  --seconds <s> --trace <0|1>
///                  [--rounds <n>] [--soak-workers <n>] [--workdir <dir>]
///
/// With --trace 0 the workload runs untraced and the last stdout line is a
/// JSON object carrying every end-to-end metric (a percentile of the
/// run's per-slice samples, the median unless noted in EndToEndMetrics).
/// With --trace 1 the workload runs once untraced and once traced (the
/// difference is the tracing overhead), then the differential attribution
/// runs, and the JSON carries every per-layer metric. The exit code is
/// nonzero when any output check fails.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// End-to-end metrics every run reports (BENCHMARK.json "end_to_end"),
/// with the percentile of the run's samples each reports. Ratios report
/// the median. The two absolute figures report the quartile on their slow
/// side: on a shared host a core's speed swings by up to 1.8x in phases of
/// 0.5-4 s (both configurations of a slice alike, so ratios hold). Every
/// run has slow phases, but the share of fast ones varies from run to run,
/// so a median of an absolute figure flips between the two speeds. Peak RSS
/// is printed but not reported: in the multi-threaded soak, malloc arena
/// placement moves it by 15-30% from run to run.
struct EndToEndMetric {
  const char *Name;
  double Percentile; ///< 50 = median
};
const EndToEndMetric EndToEndMetrics[] = {
    {"setup_s", 75},
    {"check_slowdown", 50},
    {"interpose_slowdown", 50},
    {"ops_per_s", 25},
};

double reported(const std::string &Name, const std::vector<double> &Samples) {
  for (const EndToEndMetric &M : EndToEndMetrics)
    if (Name == M.Name && M.Percentile != 50)
      return percentile(Samples, M.Percentile);
  return median(Samples);
}

struct WorkloadEntry {
  const char *Name;
  WorkloadResult (*Run)(const RunOptions &, double);
};

const WorkloadEntry Workloads[] = {
    {"table3", runTable3},
    {"jni_dense", runJniDense},
    {"soak", runSoak},
    {"pyc", runPyc},
};

/// Peak resident set size of this process image in MB (VmHWM, which
/// unlike getrusage's ru_maxrss does not carry over the launcher's peak
/// across exec).
double peakRssMb() {
  std::FILE *File = std::fopen("/proc/self/status", "r");
  if (!File)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), File))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(File);
  return Kb / 1024.0;
}

void usage() {
  std::fprintf(stderr,
               "usage: jinn_perfbench --workload <table3|jni_dense|soak|pyc> "
               "--seed <n> --seconds <s> --trace <0|1> [--rounds <n>] "
               "[--soak-workers <n>] [--workdir <dir>]\n");
}

bool parseArgs(int Argc, char **Argv, RunOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Val = Argv[++I];
    if (Arg == "--workload")
      Opts.Workload = Val;
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(Val, nullptr, 10);
    else if (Arg == "--seconds")
      Opts.Seconds = std::strtod(Val, nullptr);
    else if (Arg == "--trace")
      Opts.Trace = std::strcmp(Val, "0") != 0;
    else if (Arg == "--rounds")
      Opts.Rounds = std::strtoull(Val, nullptr, 10);
    else if (Arg == "--soak-workers")
      Opts.SoakWorkers = static_cast<unsigned>(std::strtoul(Val, nullptr, 10));
    else if (Arg == "--workdir")
      Opts.WorkDir = Val;
    else
      return false;
  }
  return !Opts.Workload.empty() && Opts.Seconds > 0 && Opts.SoakWorkers > 0;
}

/// Prints each end-to-end series: the reported value, the median, the
/// tail percentile on the worse side, and the sample count.
void printSeries(const char *Title, const WorkloadResult &R) {
  std::printf("%s\n", Title);
  std::printf("  %-22s %14s %14s %22s %7s  %s\n", "metric", "reported",
              "median", "tail", "n", "unit");
  for (const auto &[Name, S] : R.EndToEnd) {
    int P = tailPercentile(S.Samples.size());
    char Tail[64] = "-";
    if (P >= 0)
      std::snprintf(Tail, sizeof(Tail), "p%d=%.6g",
                    S.HigherIsBetter ? 100 - P : P,
                    percentile(S.Samples, S.HigherIsBetter ? 100 - P : P));
    std::printf("  %-22s %14.6g %14.6g %22s %7zu  %s\n", Name.c_str(),
                reported(Name, S.Samples), median(S.Samples), Tail,
                S.Samples.size(), S.Unit);
  }
}

void printCounts(const WorkloadResult &R) {
  std::printf("counts:");
  for (const auto &[Name, Value] : R.Counts)
    std::printf(" %s=%llu", Name.c_str(),
                static_cast<unsigned long long>(Value));
  std::printf("\n");
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResultLine(bool Correct, const Oracle &Check,
                     const std::vector<std::pair<std::string,
                                                 std::pair<double, std::string>>>
                         &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Check.Attempted ? Check.Attempted
                                                              : 1);
  Out += ", \"failed\": " + std::to_string(Check.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const auto &[Name, Value] = Metrics[I];
    Out += (I ? ", \"" : "\"") + Name + "\": {\"value\": " +
           jsonNumber(Value.first) + ", \"unit\": \"" + Value.second + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 2;
  }
  const WorkloadEntry *Entry = nullptr;
  uint32_t WorkloadId = 0;
  for (const WorkloadEntry &W : Workloads) {
    ++WorkloadId;
    if (Opts.Workload == W.Name) {
      Entry = &W;
      break;
    }
  }
  if (!Entry) {
    std::fprintf(stderr, "jinn_perfbench: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    usage();
    return 2;
  }

  std::printf("jinn_perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              Entry->Name, static_cast<unsigned long long>(Opts.Seed),
              Opts.Seconds, Opts.Trace ? 1 : 0);

  Oracle Check;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  if (!Opts.Trace) {
    WorkloadResult R = Entry->Run(Opts, Opts.Seconds);
    // Workloads that build fresh worlds per round sample their own peak.
    if (!R.EndToEnd.count("peak_rss_mb"))
      R.sample("peak_rss_mb", "MB", peakRssMb());
    printSeries("end-to-end (untraced):", R);
    printCounts(R);
    Check.merge(R.Check);
    for (const EndToEndMetric &M : EndToEndMetrics) {
      auto It = R.EndToEnd.find(M.Name);
      if (It == R.EndToEnd.end() || It->second.Samples.empty()) {
        Check.check(false, 0, std::string("metric not measured: ") + M.Name);
        continue;
      }
      Metrics.push_back(
          {M.Name, {reported(M.Name, It->second.Samples), It->second.Unit}});
    }
  } else {
    // The same workload untraced and traced, alternating twice so drift
    // lands on both: the difference is the tracing overhead. Then the
    // per-layer attribution, traced.
    WorkloadResult Plain, Traced;
    auto append = [](WorkloadResult &Into, WorkloadResult From) {
      for (auto &[Name, S] : From.EndToEnd)
        for (double V : S.Samples)
          Into.sample(Name, S.Unit, V, S.HigherIsBetter);
      Into.Check.merge(From.Check);
    };
    for (int Half = 0; Half < 2; ++Half) {
      append(Plain, Entry->Run(Opts, Opts.Seconds * 0.1));
      Tracer::enable(WorkloadId);
      append(Traced, Entry->Run(Opts, Opts.Seconds * 0.1));
      Tracer::disable();
    }
    Tracer::enable(WorkloadId);
    printSeries("end-to-end (untraced):", Plain);
    printSeries("end-to-end (traced):", Traced);
    Check.merge(Plain.Check);
    Check.merge(Traced.Check);

    WorkloadResult Layers;
    runAttribution(Opts, Opts.Seconds * 0.6, Layers);
    Tracer::disable();
    Check.merge(Layers.Check);

    std::printf("tracing overhead (traced / untraced):\n");
    for (const auto &[Name, S] : Plain.EndToEnd) {
      auto It = Traced.EndToEnd.find(Name);
      if (It == Traced.EndToEnd.end())
        continue;
      double Ratio =
          reported(Name, It->second.Samples) / reported(Name, S.Samples);
      std::printf("  %-20s %8.4fx\n", Name.c_str(), Ratio);
      if (Name == "ops_per_s")
        Layers.layer("bench.tracing_overhead", 1.0 / Ratio, "x");
    }

    std::printf("per-layer self time (traced run):\n");
    std::printf("  %-36s %12s %9s\n", "span", "self ms", "calls");
    for (const auto &[Name, Self] : Tracer::selfTimes())
      std::printf("  %-36s %12.3f %9llu\n", Name.c_str(),
                  static_cast<double>(Self.first) / 1e6,
                  static_cast<unsigned long long>(Self.second));
    std::string SpanFile =
        Opts.WorkDir + "/spans-" + std::string(Entry->Name) + ".jsonl";
    if (!Tracer::write(SpanFile))
      std::fprintf(stderr, "jinn_perfbench: cannot write %s\n",
                   SpanFile.c_str());

    std::printf("per-layer metrics:\n");
    for (const auto &[Name, Value] : Layers.Layer) {
      std::printf("  %-36s %14.6g %s\n", Name.c_str(), Value.first,
                  Value.second.c_str());
      Metrics.push_back({Name, Value});
    }
  }

  for (const std::string &M : Check.Messages)
    std::printf("CHECK FAILED: %s\n", M.c_str());
  std::printf("oracle: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(Check.Attempted),
              static_cast<unsigned long long>(Check.Failed));
  bool Correct = Check.Failed == 0 && Check.Messages.empty();
  printResultLine(Correct, Check, Metrics);
  return Correct ? 0 : 1;
}
