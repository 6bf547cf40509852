//===- jinn/Machines.cpp - MachineSet assembly ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/Machines.h"

#include <algorithm>

using namespace jinn::agent;

std::vector<jinn::spec::MachineBase *> MachineSet::all() {
  return {&EnvState,         &ExceptionState, &CriticalState,
          &FixedTyping,      &EntityTyping,   &AccessControl,
          &Nullness,         &PinnedResource, &Monitor,
          &GlobalRef,        &LocalRef,       &LocalFrameNesting,
          &MonitorBalance,   &CriticalNesting};
}

std::vector<jinn::spec::MachineBase *>
MachineSet::select(const std::vector<std::string> &Names) {
  std::vector<spec::MachineBase *> Selected;
  for (spec::MachineBase *Machine : all())
    if (Names.empty() || std::find(Names.begin(), Names.end(),
                                   Machine->spec().Name) != Names.end())
      Selected.push_back(Machine);
  return Selected;
}
