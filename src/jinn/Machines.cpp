//===- jinn/Machines.cpp - MachineSet assembly ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/Machines.h"
#include "jinn/machines/MachineUtil.h"

#include <algorithm>
#include <cstdarg>

using namespace jinn::agent;

void jinn::agent::fail(TransitionContext &Ctx,
                       const spec::StateMachineSpec &Spec, const char *Fmt,
                       ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Message = formatStringV(Fmt, Args);
  va_end(Args);
  Ctx.reporter().violation(Ctx, Spec, Message);
}

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
