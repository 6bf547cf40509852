//===- bench/bench_pyc_checker.cpp - Python/C checker (Figure 11, §7) ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7 generalization experiment: Figure 11's dangle_bug under a
/// production interpreter (silent corruption) and under the synthesized
/// Python/C checker (reported at the faulting call), plus the GIL and
/// exception-state scenarios, and a per-call overhead measurement for the
/// checked table: a gated checked/production ratio from alternating
/// slices, then the google-benchmark timings.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "pyjinn/PyChecker.h"
#include "scenarios/PythonScenarios.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace jinn;
using namespace jinn::pyc;
using namespace jinn::pyjinn;

namespace {

/// One pass of the correct extension mix. The barrier reads a counter the
/// pass already maintains, so the loop times API calls and nothing else.
void runCleanPass(PyInterp &I) {
  scenarios::runPyCleanExtension(I);
  benchmark::DoNotOptimize(I.stats().Allocated);
}

void BM_CleanExtension(benchmark::State &State, bool Checked) {
  PyInterp I;
  std::unique_ptr<PyChecker> Checker;
  if (Checked)
    Checker = std::make_unique<PyChecker>(I);
  for (auto _ : State)
    runCleanPass(I);
}

/// Checked over production time of the same correct extension mix, from
/// one process: alternating slices of \p Passes passes on a production and
/// a checked interpreter, median of the per-pair ratios. Host-speed drift
/// cancels within a pair, which is what lets bench_gate.py gate the ratio.
double checkedVsProduction(int Pairs, int Passes) {
  PyInterp Production, Checked;
  PyChecker Checker(Checked);
  auto slice = [Passes](PyInterp &I) {
    return bench::timeSeconds([&] {
      for (int K = 0; K < Passes; ++K)
        runCleanPass(I);
    });
  };
  slice(Production); // warm-up: arena, free lists, handout table
  slice(Checked);
  std::vector<double> Ratios;
  for (int Pair = 0; Pair < Pairs; ++Pair) {
    double ProductionSeconds = slice(Production);
    Ratios.push_back(slice(Checked) / ProductionSeconds);
  }
  std::sort(Ratios.begin(), Ratios.end());
  return Ratios[Ratios.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  bench::printHeader("Python/C generalization - Figure 11's dangle_bug "
                     "(paper §7)");

  {
    PyInterp I;
    auto Printed = scenarios::runPyDangleBug(I);
    std::printf("production interpreter:\n  1. first = %s.\n  2. first = "
                "%s.   <- silent corruption (reused slot)\n\n",
                Printed.first.c_str(), Printed.second.c_str());
  }
  bench::JsonResults Json("pyc_checker");
  {
    PyInterp I;
    PyChecker Checker(I);
    auto Printed = scenarios::runPyDangleBug(I);
    std::printf("with the synthesized checker:\n  1. first = %s.\n",
                Printed.first.c_str());
    for (const PyViolation &V : Checker.violations())
      std::printf("  pyjinn: [%s] %s in %s\n", V.Machine.c_str(),
                  V.Message.c_str(), V.Function.c_str());
    Json.add("dangle_bug_violations",
             static_cast<double>(Checker.violations().size()), "reports");
  }
  {
    PyInterp I;
    PyChecker Checker(I);
    scenarios::runPyGilBug(I);
    scenarios::runPyExceptionBug(I);
    std::printf("\nother constraint classes (paper §7.1):\n");
    for (const PyViolation &V : Checker.violations())
      std::printf("  pyjinn: [%s] %s in %s\n", V.Machine.c_str(),
                  V.Message.c_str(), V.Function.c_str());
    Json.add("gil_exception_violations",
             static_cast<double>(Checker.violations().size()), "reports");
  }
  {
    constexpr int Pairs = 11, Passes = 20000;
    double Ratio = checkedVsProduction(Pairs, Passes);
    std::printf("checked/production on a correct extension: %.3fx (median "
                "of %d alternating slices)\n",
                Ratio, Pairs);
    Json.add("ratio/pyc/checked_vs_production", Ratio, "x");
  }
  Json.writeFile();

  benchmark::RegisterBenchmark("PyCleanExtension/production",
                               BM_CleanExtension, false);
  benchmark::RegisterBenchmark("PyCleanExtension/checked", BM_CleanExtension,
                               true);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  std::printf("\nchecker overhead on a correct extension "
              "(google-benchmark):\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
