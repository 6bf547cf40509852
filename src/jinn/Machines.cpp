//===- jinn/Machines.cpp - MachineSet assembly ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/Machines.h"

using namespace jinn::agent;

std::vector<jinn::spec::MachineBase *> MachineSet::all() {
  return {&EnvState,         &ExceptionState, &CriticalState,
          &FixedTyping,      &EntityTyping,   &AccessControl,
          &Nullness,         &PinnedResource, &Monitor,
          &GlobalRef,        &LocalRef,       &LocalFrameNesting,
          &MonitorBalance,   &CriticalNesting};
}

std::vector<std::pair<const char *, uint64_t>>
MachineSet::lockAcquireCounts() const {
  return {{"thread-shadows", Threads.lockAcquires()},
          {"pinned-resource", PinnedResource.Outstanding.lockAcquires()}};
}
