//===- perfbench/Table3.cpp - The paper's Table 3 experiment -------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `table3` workload: the 19 SPECjvm98/DaCapo stand-ins of
/// workloads::runWorkload under production, -Xcheck:jni, interpose-only
/// and fused Jinn worlds. The four worlds are built once and timed in
/// alternating slices of the same length for every stand-in, so host
/// drift cancels in the per-slice ratios. One round times each stand-in
/// once per world; the round's sample is the geomean over the stand-ins.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Worlds.h"

#include "support/Format.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <memory>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace perfbench {

namespace {

/// Native transitions per slice. Every stand-in's divisor is chosen from
/// its paper count so each slice replays about this many, well above
/// runWorkload's 64-transition floor.
constexpr uint64_t TransitionsPerSlice = 256;

enum Config { Production, Xcheck, Interpose, Jinn, NumConfigs };
const CheckerKind ConfigCheckers[NumConfigs] = {
    CheckerKind::None, CheckerKind::Xcheck, CheckerKind::InterposeOnly,
    CheckerKind::Jinn};

using WorldSet = std::vector<std::unique_ptr<ScenarioWorld>>;

WorldSet buildWorlds() {
  WorldSet Worlds;
  for (CheckerKind Checker : ConfigCheckers) {
    WorldConfig Config;
    Config.Checker = Checker;
    Worlds.push_back(buildWorld(Config));
    Span S("workloads.prepareWorkloadWorld");
    prepareWorkloadWorld(*Worlds.back());
  }
  return Worlds;
}

} // namespace

WorkloadResult runTable3(const RunOptions &Opts, double Seconds) {
  WorkloadResult Result;
  const std::vector<WorkloadInfo> &Infos = allWorkloads();
  WorldSet Worlds = buildWorlds();
  if (!Worlds[Jinn]->Jinn || !Worlds[Jinn]->Jinn->fusedInstalled())
    Result.Check.check(false, 1, "table3: fused tier did not engage");
  std::vector<uint64_t> Divisors;
  for (const WorkloadInfo &Info : Infos)
    Divisors.push_back(std::max<uint64_t>(
        1, Info.PaperTransitions / TransitionsPerSlice));

  PairedSlices P;
  P.Workload = "table3";
  P.Configs = {"production", "xcheck", "interpose", "jinn"};
  P.Checked = Jinn;
  P.Interpose = Interpose;
  P.Xcheck = Xcheck;
  P.Items = Infos.size();
  // Set-up: the four worlds (VM, agent load, synthesis and fused compile,
  // class preparation).
  P.Setup = [] {
    WorldSet Extra;
    return timeIt([&] { Extra = buildWorlds(); });
  };
  // No NextRound: runWorkload's traffic is fixed per stand-in, so the seed
  // picks only the order of the stand-ins and the rotation of the worlds.
  P.RunSlice = [&](unsigned C, size_t W) {
    Span S("workloads.runWorkload");
    WorkloadRun Run = runWorkload(Infos[W], *Worlds[C], Divisors[W]);
    return SliceOutput{Run.NativeTransitions, Run.JniCalls, Run.Checksum};
  };
  // The VM collects only on request; reclaim the round's garbage outside
  // the timed slices.
  P.AfterRound = [&](uint64_t) {
    for (auto &World : Worlds)
      World->Vm.gc();
  };
  runPairedSlices(P, Opts, Seconds, Result);

  // Correct JNI only: no checker may have said anything.
  for (unsigned C = 0; C < NumConfigs; ++C) {
    uint64_t Noise = quietnessViolations(*Worlds[C]);
    Result.Check.check(Noise == 0, 0,
                       formatString("table3: %llu reports/incidents under %s",
                                    static_cast<unsigned long long>(Noise),
                                    P.Configs[C]));
    Result.Counts["reports"] += Noise;
  }
  return Result;
}

} // namespace perfbench
