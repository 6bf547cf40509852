//===- jinn/machines/Monitor.cpp - Monitor machine ------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 8, "Monitor": MonitorEnter/MonitorExit acquisitions must be
/// balanced by program termination; an unreleased monitor is reported as a
/// deadlock risk. Overflow and double-free need no checking here because
/// the JVM already throws (IllegalMonitorStateException), as the paper
/// notes.
///
/// A JNI MonitorExit succeeds only on the thread that owns the monitor, so
/// the entry counts live in the owner's shadow block (ThreadShadow) and no
/// crossing takes a lock. The VM-death sweep counts the distinct monitors
/// still held across all blocks.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

#include <algorithm>

using namespace jinn;
using namespace jinn::agent;

MonitorMachine::MonitorMachine(ThreadShadows &Blocks) : Threads(Blocks) {
  Spec.Name = "Monitor";
  Spec.ObservedEntity = "A monitor";
  Spec.Errors = "Leak";
  Spec.Encoding = "A set of monitors currently held by JNI and, for each "
                  "monitor, the current entry count";
  Spec.States = {"Released", "Held"};

  Spec.Transitions.push_back(makeTransition(
      "Released", "Held",
      {{FunctionSelector::one(jni::FnId::MonitorEnter),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        uint64_t Word = Ctx.call().refWord(0);
        if (mutate::active(mutate::M::SpecMonitorIdentitySwapped))
          Word = Ctx.call().returnWord(); // mutant: wrong entity (JNI_OK)
        uint64_t Obj = identityOf(Ctx, Word);
        if (Obj)
          Threads.at(Ctx).Held.findOrEmplace(Obj).Monitors += 1;
      }));

  Spec.Transitions.push_back(makeTransition(
      "Held", "Released",
      {{FunctionSelector::one(jni::FnId::MonitorExit),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        uint64_t Obj = identityOf(Ctx, Ctx.call().refWord(0));
        OpenMap<HeldCounts, 2> &Held = Threads.at(Ctx).Held;
        HeldCounts *Counts = Held.find(Obj);
        if (!Counts || Counts->Monitors <= 0)
          return; // the JVM already threw for unbalanced exits
        Counts->Monitors -= 1;
        if (Counts->empty())
          Held.eraseFound(Counts);
      }));
}

void MonitorMachine::onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) {
  (void)Vm;
  std::vector<uint64_t> Held;
  Threads.forEach([&Held](const ThreadShadow &Shadow) {
    Shadow.Held.forEach([&Held](uint64_t Obj, const HeldCounts &Counts) {
      if (Counts.Monitors > 0)
        Held.push_back(Obj);
    });
  });
  std::sort(Held.begin(), Held.end());
  size_t HeldCount = static_cast<size_t>(
      std::unique(Held.begin(), Held.end()) - Held.begin());
  if (HeldCount > 0)
    Rep.endOfRun(Spec,
                 formatString("%zu monitor(s) still held through JNI at "
                              "program termination (deadlock risk)",
                              HeldCount));
}
