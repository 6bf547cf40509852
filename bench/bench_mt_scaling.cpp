//===- bench/bench_mt_scaling.cpp - Multi-threaded throughput scaling ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures aggregate native-transition throughput when the Table 3 "db"
/// and "jack" operation mixes run on 1, 2, 4, and 8 concurrently attached
/// OS threads, under three configurations: no checker, Jinn interposing
/// only, and full Jinn checking. The reproduced claim is structural:
/// per-thread JVM and machine state stays lock-free on its owner, so
/// throughput grows monotonically from 1 to 4 threads with checking off,
/// and the striped locks keep the checked configurations from collapsing.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

struct Measurement {
  double Throughput = 0;
  /// "jinn.lock_acquires.<lock>" counters (contention proxy), published
  /// by the agent at VM death.
  std::map<std::string, uint64_t> LockAcquires;
};

/// Transitions/second, aggregated over \p NumThreads workers.
Measurement throughputOnce(const WorkloadInfo &Info, CheckerKind Checker,
                           uint64_t Scale, unsigned NumThreads) {
  WorldConfig Config;
  Config.Checker = Checker;
  ScenarioWorld World(Config);
  prepareWorkloadWorld(World);
  // Warm-up outside the timed region (ID caches, allocator, attach path).
  runWorkloadConcurrent(Info, World, Scale * 16, NumThreads);
  uint64_t Transitions = 0;
  double Seconds = bench::timeSeconds([&] {
    WorkloadRun Run = runWorkloadConcurrent(Info, World, Scale, NumThreads);
    Transitions = Run.NativeTransitions;
  });
  Measurement M;
  M.Throughput = static_cast<double>(Transitions) / Seconds;
  World.shutdown();
  for (const auto &[Name, Count] : World.Vm.diags().counters()) {
    const std::string Prefix = "jinn.lock_acquires.";
    if (Name.rfind(Prefix, 0) == 0)
      M.LockAcquires[Name.substr(Prefix.size())] = Count;
  }
  return M;
}

Measurement bestOf3(const WorkloadInfo &Info, CheckerKind Checker,
                    uint64_t Scale, unsigned NumThreads) {
  Measurement Best;
  for (int I = 0; I < 3; ++I) {
    Measurement M = throughputOnce(Info, Checker, Scale, NumThreads);
    if (M.Throughput > Best.Throughput)
      Best = std::move(M);
  }
  return Best;
}

const char *checkerName(CheckerKind Checker) {
  switch (Checker) {
  case CheckerKind::None:
    return "checking off";
  case CheckerKind::InterposeOnly:
    return "Jinn interposing";
  case CheckerKind::Jinn:
    return "Jinn checking";
  case CheckerKind::Xcheck:
    return "-Xcheck:jni";
  }
  return "?";
}

void printScalingTable(uint64_t Scale,
                       const std::vector<unsigned> &ThreadCounts,
                       bench::JsonResults &Json) {
  bench::printHeader(
      "Multi-threaded scaling - aggregate native-transition throughput\n"
      "(speedup over the first thread count of the same configuration)");
  const CheckerKind Checkers[] = {CheckerKind::None, CheckerKind::InterposeOnly,
                                  CheckerKind::Jinn};
  const WorkloadInfo &Info = *workloadByName("jack");

  std::printf("%-18s |", "configuration");
  for (unsigned NumThreads : ThreadCounts)
    std::printf(" %9u thr", NumThreads);
  std::printf("\n");
  bench::printRule();
  for (CheckerKind Checker : Checkers) {
    double Base = 0;
    unsigned BaseThreads = ThreadCounts.empty() ? 1 : ThreadCounts.front();
    std::printf("%-18s |", checkerName(Checker));
    for (unsigned NumThreads : ThreadCounts) {
      Measurement M = bestOf3(Info, Checker, Scale, NumThreads);
      double Tput = M.Throughput;
      if (Base == 0)
        Base = Tput;
      double Speedup = Base > 0 ? Tput / Base : 0.0;
      // Scaling efficiency: speedup per thread, relative to the first
      // measured thread count (1.0 = perfect linear scaling).
      double Efficiency =
          NumThreads ? Speedup * BaseThreads / NumThreads : 0.0;
      std::printf(" %8.2fx/s", Speedup);
      std::string Key = std::string(checkerName(Checker)) + "/" +
                        std::to_string(NumThreads) + "t";
      Json.add(Key, Tput, "transitions/s");
      Json.add(Key + " efficiency", Efficiency, "speedup/thread");
      if (Checker == CheckerKind::Jinn)
        for (const auto &[Lock, Count] : M.LockAcquires)
          Json.add(Key + " lock_acquires/" + Lock,
                   static_cast<double>(Count), "acquires");
    }
    std::printf("\n");
  }
  bench::printRule();
  std::printf("(workload \"%s\" scaled by 1/%llu on %u hardware thread(s); "
              "x/s = speedup relative to the same checker at the first "
              "thread count; speedup is bounded by the hardware thread "
              "count)\n",
              Info.Name, static_cast<unsigned long long>(Scale),
              std::thread::hardware_concurrency());
}

void BM_ConcurrentWorkUnit(benchmark::State &State, CheckerKind Checker) {
  unsigned NumThreads = static_cast<unsigned>(State.range(0));
  WorldConfig Config;
  Config.Checker = Checker;
  ScenarioWorld World(Config);
  prepareWorkloadWorld(World);
  const WorkloadInfo &Info = *workloadByName("db");
  runWorkloadConcurrent(Info, World, 1024, NumThreads); // warm-up
  uint64_t Transitions = 0;
  for (auto _ : State) {
    WorkloadRun Run = runWorkloadConcurrent(Info, World, 256, NumThreads);
    benchmark::DoNotOptimize(Run.Checksum);
    Transitions += Run.NativeTransitions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Transitions));
}

/// True when \p Arg is a bare positive integer (a thread count).
bool isThreadCountArg(const char *Arg) {
  if (!Arg[0])
    return false;
  for (const char *C = Arg; *C; ++C)
    if (!std::isdigit(static_cast<unsigned char>(*C)))
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Scale = 2048;
  if (const char *Env = std::getenv("JINN_BENCH_SCALE"))
    Scale = std::strtoull(Env, nullptr, 10);

  // Thread counts come from bare-integer argv entries (consumed before
  // google-benchmark parses the rest), e.g. `bench_mt_scaling 1 3 6`.
  std::vector<unsigned> ThreadCounts;
  int Out = 1;
  for (int In = 1; In < Argc; ++In) {
    if (isThreadCountArg(Argv[In])) {
      unsigned NumThreads =
          static_cast<unsigned>(std::strtoul(Argv[In], nullptr, 10));
      if (NumThreads)
        ThreadCounts.push_back(NumThreads);
      continue;
    }
    Argv[Out++] = Argv[In];
  }
  Argc = Out;
  if (ThreadCounts.empty())
    ThreadCounts = {1, 2, 4, 8};

  bench::JsonResults Json("mt_scaling");
  Json.add("scale_divisor", static_cast<double>(Scale ? Scale : 2048), "");
  // Recorded so the efficiency gate (tools/bench_gate.py) can tell a
  // substrate regression from a machine that simply lacks the cores: the
  // 8-thread floor is enforced only when 8 hardware threads exist.
  Json.add("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()), "");
  printScalingTable(Scale ? Scale : 2048, ThreadCounts, Json);
  Json.writeFile();

  for (auto [Name, Checker] :
       {std::pair<const char *, CheckerKind>{"MtWorkUnit/production",
                                             CheckerKind::None},
        {"MtWorkUnit/jinn_interpose", CheckerKind::InterposeOnly},
        {"MtWorkUnit/jinn_full", CheckerKind::Jinn}}) {
    benchmark::internal::Benchmark *Bench =
        benchmark::RegisterBenchmark(Name, BM_ConcurrentWorkUnit, Checker);
    for (unsigned NumThreads : ThreadCounts)
      Bench->Arg(static_cast<int64_t>(NumThreads));
    Bench->UseRealTime();
  }
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  std::printf("\nPer-thread-count throughput (google-benchmark):\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
