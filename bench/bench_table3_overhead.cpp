//===- bench/bench_table3_overhead.cpp - Regenerates paper Table 3 -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures, for each of the 19 SPECjvm98/DaCapo stand-in workloads, the
/// wall-clock time under four configurations and prints Table 3:
/// normalized runtime of -Xcheck:jni ("Runtime checking"), Jinn with empty
/// checks ("Interposing"), and full Jinn ("Checking"), relative to the
/// production run. Absolute times differ from the paper's testbed; the
/// shape (checking >= interposing >= 1, modest geomeans, interposition
/// dominating Jinn's cost) is the reproduced result.
///
/// Additionally registers google-benchmark microbenchmarks for the
/// per-call interposition cost (run with --benchmark_filter=... for
/// details).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

double runOnce(const WorkloadInfo &Info, CheckerKind Checker,
               uint64_t Scale) {
  WorldConfig Config;
  Config.Checker = Checker;
  ScenarioWorld World(Config);
  prepareWorkloadWorld(World);
  // Warm-up outside the timed region (ID caches, allocator).
  runWorkload(Info, World, Scale * 16);
  return bench::timeSeconds([&] { runWorkload(Info, World, Scale); });
}

double median3(const WorkloadInfo &Info, CheckerKind Checker,
               uint64_t Scale) {
  double A = runOnce(Info, Checker, Scale);
  double B = runOnce(Info, Checker, Scale);
  double C = runOnce(Info, Checker, Scale);
  double Lo = std::min({A, B, C}), Hi = std::max({A, B, C});
  return A + B + C - Lo - Hi;
}

void printPaperTable(uint64_t Scale, bench::JsonResults &Json) {
  bench::printHeader(
      "Table 3 - Jinn performance on SPECjvm98/DaCapo stand-ins\n"
      "(normalized execution time; production run = 1.00; paper values in "
      "parentheses)");
  std::printf("%-11s %12s | %-16s %-16s %-16s\n", "benchmark", "transitions",
              "runtime check", "Jinn interposing", "Jinn checking");
  bench::printRule();

  double GeoCheck = 0, GeoInter = 0, GeoJinn = 0;
  size_t N = 0;
  for (const WorkloadInfo &Info : allWorkloads()) {
    double Base = median3(Info, CheckerKind::None, Scale);
    double Xcheck = median3(Info, CheckerKind::Xcheck, Scale) / Base;
    double Inter = median3(Info, CheckerKind::InterposeOnly, Scale) / Base;
    double Full = median3(Info, CheckerKind::Jinn, Scale) / Base;
    std::printf("%-11s %12llu | %5.2f (%4.2f)     %5.2f (%4.2f)     %5.2f "
                "(%4.2f)\n",
                Info.Name,
                static_cast<unsigned long long>(Info.PaperTransitions),
                Xcheck, Info.PaperRuntimeChecking, Inter,
                Info.PaperJinnInterposing, Full, Info.PaperJinnChecking);
    Json.add(std::string(Info.Name) + "/xcheck", Xcheck, "x");
    Json.add(std::string(Info.Name) + "/interpose", Inter, "x");
    Json.add(std::string(Info.Name) + "/jinn", Full, "x");
    GeoCheck += std::log(Xcheck);
    GeoInter += std::log(Inter);
    GeoJinn += std::log(Full);
    ++N;
  }
  bench::printRule();
  double GmCheck = std::exp(GeoCheck / static_cast<double>(N));
  double GmInter = std::exp(GeoInter / static_cast<double>(N));
  double GmJinn = std::exp(GeoJinn / static_cast<double>(N));
  std::printf("%-11s %12s | %5.2f (1.01)     %5.2f (1.10)     %5.2f "
              "(1.14)   GeoMean\n",
              "GeoMean", "", GmCheck, GmInter, GmJinn);
  Json.add("geomean/xcheck", GmCheck, "x");
  Json.add("geomean/interpose", GmInter, "x");
  Json.add("geomean/jinn", GmJinn, "x");
  // The same geomean under the ratio/ prefix, which bench_gate.py gates:
  // every stand-in's Jinn run over its production run, in one process.
  Json.add("ratio/table3/jinn_vs_production", GmJinn, "x");
  std::printf("\n(transition counts are the paper's measured values, "
              "replayed scaled by 1/%llu)\n",
              static_cast<unsigned long long>(Scale));
}

//===----------------------------------------------------------------------===
// google-benchmark microbenchmarks: per-call interposition cost
//===----------------------------------------------------------------------===

void BM_WorkUnit(benchmark::State &State, CheckerKind Checker) {
  WorldConfig Config;
  Config.Checker = Checker;
  ScenarioWorld World(Config);
  prepareWorkloadWorld(World);
  const WorkloadInfo &Info = *workloadByName("db");
  runWorkload(Info, World, 1024); // warm-up
  for (auto _ : State) {
    WorkloadRun Run = runWorkload(Info, World, 256);
    benchmark::DoNotOptimize(Run.Checksum);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Info.PaperTransitions / 256));
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = 2048;
  if (const char *Env = std::getenv("JINN_BENCH_SCALE"))
    Scale = std::strtoull(Env, nullptr, 10);

  bench::JsonResults Json("table3_overhead");
  printPaperTable(Scale ? Scale : 2048, Json);
  Json.writeFile();

  benchmark::RegisterBenchmark("WorkUnit/production", BM_WorkUnit,
                               CheckerKind::None);
  benchmark::RegisterBenchmark("WorkUnit/xcheck", BM_WorkUnit,
                               CheckerKind::Xcheck);
  benchmark::RegisterBenchmark("WorkUnit/jinn_interpose", BM_WorkUnit,
                               CheckerKind::InterposeOnly);
  benchmark::RegisterBenchmark("WorkUnit/jinn_full", BM_WorkUnit,
                               CheckerKind::Jinn);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  std::printf("\nPer-call costs (google-benchmark):\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
