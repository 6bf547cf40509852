//===- jinn/machines/CriticalState.cpp - Critical-section state machine --===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 6, "Critical-section state": between
/// Get{String,PrimitiveArray}Critical and the matching release, C code may
/// only call the four critical functions; anything else risks deadlock
/// because the JVM may have disabled GC (pitfall 16). The encoding tallies,
/// per thread, how many times each critical resource was acquired.
///
/// The Inside->Error transition matches almost every JNI function, so its
/// guard — "is this thread's depth nonzero?" — runs on nearly every
/// crossing. The depth and the per-resource held counts both live in the
/// thread's shadow block (ThreadShadow), which only that thread's
/// crossings write: no path takes a lock or allocates in the steady
/// state.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::ArgClass;
using jinn::jni::FnTraits;
using jinn::jni::PinFamily;
using jinn::jni::ResourceRole;

CriticalStateMachine::CriticalStateMachine(ThreadShadows &Blocks)
    : Threads(Blocks) {
  Spec.Name = "Critical-section state";
  Spec.ObservedEntity = "A thread";
  Spec.Errors = "Critical section violation";
  Spec.Encoding = "Map from a critical resource to the number of times a "
                  "given thread has acquired it";
  Spec.States = {"Outside", "Inside", "Error: violation"};

  // Acquire: Return:Java->C of GetStringCritical/GetPrimitiveArrayCritical.
  Spec.Transitions.push_back(makeTransition(
      "Outside", "Inside",
      {{FunctionSelector::matching(
            "GetStringCritical or GetPrimitiveArrayCritical",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::PinAcquire &&
                     (Traits.Pin == PinFamily::CriticalArray ||
                      Traits.Pin == PinFamily::CriticalString);
            }),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (!Ctx.call().returnPtr())
          return; // acquisition failed; no state change
        uint64_t Resource = identityOf(Ctx, Ctx.call().refWord(0));
        ThreadShadow &Shadow = Threads.at(Ctx);
        Shadow.CriticalDepth.add(1);
        if (Resource) // a dead resource can never be released as held
          Shadow.Held.findOrEmplace(Resource).Criticals += 1;
      }));

  // Release: Return:Java->C of the matching release functions. The
  // resource is identified by the buffer pointer C hands back, because
  // inspecting the object argument would itself require JNI calls that are
  // illegal in a critical region (paper §5.1).
  Spec.Transitions.push_back(makeTransition(
      "Inside", "Outside",
      {{FunctionSelector::matching(
            "ReleaseStringCritical or ReleasePrimitiveArrayCritical",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::PinRelease &&
                     (Traits.Pin == PinFamily::CriticalArray ||
                      Traits.Pin == PinFamily::CriticalString);
            }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        ThreadShadow &Shadow = Threads.at(Ctx);
        int BufIndex = Ctx.call().traits().firstParam(ArgClass::OutPtr);
        const void *Buf =
            BufIndex >= 0 ? Ctx.call().arg(BufIndex).Ptr : nullptr;
        uint64_t BufTarget = 0;
        bool Found = Buf && Ctx.releasedBuffer(Buf, BufTarget);
        if (!Found || Shadow.CriticalDepth.get() <= 0) {
          fail(Ctx, Spec, "An unmatched critical-section release was issued");
          return;
        }
        HeldCounts *Held = Shadow.Held.find(BufTarget);
        if (!Held || Held->Criticals <= 0) {
          fail(Ctx, Spec,
               "A critical resource was released that this thread does not "
               "hold");
          return;
        }
        if (!mutate::active(mutate::M::SpecThreadShadowCriticalHeldKept))
          Held->Criticals -= 1; // mutant: the release leaves the count
        if (Held->empty())
          Shadow.Held.eraseFound(Held);
        Shadow.CriticalDepth.add(-1);
      }));

  // Error: any critical-section-sensitive call while inside.
  Spec.Transitions.push_back(makeTransition(
      "Inside", "Error: violation",
      {{FunctionSelector::matching(
            "any critical-section-sensitive JNI function",
            [](const FnTraits &Traits) { return !Traits.CriticalAllowed; }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        if (!inCritical(Ctx))
          return;
        fail(Ctx, Spec, "A JNI call was made inside a JNI critical section");
      }));
}

int CriticalStateMachine::depthOf(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? static_cast<int>(Shadow->CriticalDepth.get()) : 0;
}
