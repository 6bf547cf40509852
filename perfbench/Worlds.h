//===- perfbench/Worlds.h - World construction and quietness checks ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef JINN_PERFBENCH_WORLDS_H
#define JINN_PERFBENCH_WORLDS_H

#include "Bench.h"

#include "scenarios/Scenarios.h"
#include "support/Diagnostics.h"

#include <memory>

namespace perfbench {

/// Builds a world under a `scenarios.ScenarioWorld` span.
inline std::unique_ptr<jinn::scenarios::ScenarioWorld>
buildWorld(const jinn::scenarios::WorldConfig &Config) {
  Span S("scenarios.ScenarioWorld");
  return std::make_unique<jinn::scenarios::ScenarioWorld>(Config);
}

/// Jinn reports plus every non-note VM incident: what a correct program
/// must leave at zero.
inline uint64_t quietnessViolations(jinn::scenarios::ScenarioWorld &World) {
  uint64_t Count = World.Jinn ? World.Jinn->reporter().reportCount() : 0;
  for (const jinn::Incident &I : World.Vm.diags().incidents())
    if (I.Kind != jinn::IncidentKind::Note)
      ++Count;
  return Count;
}

} // namespace perfbench

#endif // JINN_PERFBENCH_WORLDS_H
