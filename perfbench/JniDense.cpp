//===- perfbench/JniDense.cpp - Dense JNI traffic, no application work ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `jni_dense` workload: batches of 64 seeded, correct JNI operations
/// (see Dense.h) with no application work, so interposition, the fused
/// slots and machine shadow state do most of the work. Bare,
/// interpose-only and fused Jinn worlds are built once and timed in
/// alternating slices over the same seeds.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Dense.h"
#include "Worlds.h"

#include "support/Format.h"

using namespace jinn;
using namespace jinn::scenarios;

namespace perfbench {

namespace {

/// Batch invocations per slice (64 operations each).
constexpr size_t BatchesPerSlice = 16;

enum Config { Bare, Interpose, Jinn, NumConfigs };
const CheckerKind ConfigCheckers[NumConfigs] = {
    CheckerKind::None, CheckerKind::InterposeOnly, CheckerKind::Jinn};

using WorldSet = std::vector<std::unique_ptr<ScenarioWorld>>;

WorldSet buildWorlds() {
  WorldSet Worlds;
  for (CheckerKind Checker : ConfigCheckers) {
    WorldConfig Config;
    Config.Checker = Checker;
    Worlds.push_back(buildWorld(Config));
    prepareDenseWorld(*Worlds.back());
  }
  return Worlds;
}

} // namespace

WorkloadResult runJniDense(const RunOptions &Opts, double Seconds) {
  WorkloadResult Result;
  WorldSet Worlds = buildWorlds();
  if (!Worlds[Jinn]->Jinn || !Worlds[Jinn]->Jinn->fusedInstalled())
    Result.Check.check(false, 1, "jni_dense: fused tier did not engage");

  std::vector<int32_t> Seeds(BatchesPerSlice);
  PairedSlices P;
  P.Workload = "jni_dense";
  P.Configs = {"bare", "interpose", "jinn"};
  P.Checked = Jinn;
  P.Interpose = Interpose;
  // Set-up: the three worlds plus the dense class.
  P.Setup = [] {
    WorldSet Extra;
    double Seconds = timeIt([&] { Extra = buildWorlds(); });
    for (auto &World : Extra)
      releaseDenseWorld(*World);
    return Seconds;
  };
  P.NextRound = [&](SplitMix64 &Rng) { drawSeeds(Rng, Seeds); };
  P.RunSlice = [&](unsigned C, size_t) {
    Span S("jvm.invoke_batch");
    DenseRun Run = runDenseBatches(*Worlds[C], Seeds);
    return SliceOutput{Run.JniCalls, Run.Ops, Run.Checksum};
  };
  // The VM collects only on request; reclaim the round's garbage outside
  // the timed slices.
  P.AfterRound = [&](uint64_t) {
    for (auto &World : Worlds)
      World->Vm.gc();
  };
  runPairedSlices(P, Opts, Seconds, Result);

  for (unsigned C = 0; C < NumConfigs; ++C) {
    uint64_t Noise = quietnessViolations(*Worlds[C]);
    Result.Check.check(
        Noise == 0, 0,
        formatString("jni_dense: %llu reports/incidents under %s",
                     static_cast<unsigned long long>(Noise), P.Configs[C]));
    Result.Counts["reports"] += Noise;
    releaseDenseWorld(*Worlds[C]);
  }
  return Result;
}

} // namespace perfbench
