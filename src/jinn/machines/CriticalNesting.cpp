//===- jinn/machines/CriticalNesting.cpp - Critical-section nesting -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third pushdown machine (ROADMAP item 3): a thread must not open a
/// second critical section before releasing the first. The JNI spec
/// forbids *any* JNI call inside a critical region; the critical-section
/// state machine deliberately exempts the four critical functions
/// (CriticalAllowed) so that the matching release is expressible, which
/// leaves nested Get*Critical calls unchecked — this machine closes that
/// gap. Its counter bound is 1: the push *at* the bound is the violation.
///
/// Error ownership: unmatched releases and non-critical calls inside a
/// region stay with the critical-section state machine.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::FnTraits;
using jinn::jni::PinFamily;
using jinn::jni::ResourceRole;
using spec::CounterOp;

namespace {

bool isCriticalAcquire(const FnTraits &Traits) {
  return Traits.Resource == ResourceRole::PinAcquire &&
         (Traits.Pin == PinFamily::CriticalArray ||
          Traits.Pin == PinFamily::CriticalString);
}

bool isCriticalRelease(const FnTraits &Traits) {
  return Traits.Resource == ResourceRole::PinRelease &&
         (Traits.Pin == PinFamily::CriticalArray ||
          Traits.Pin == PinFamily::CriticalString);
}

const char NestedCriticalMsg[] =
    "A critical section was opened inside an open critical section";

} // namespace

CriticalNestingMachine::CriticalNestingMachine(ThreadShadows &Blocks)
    : Threads(Blocks) {
  Spec.Name = "Critical-section nesting";
  Spec.ObservedEntity = "A thread's stack of open critical sections";
  Spec.Errors = "Nested critical sections";
  Spec.Encoding = "A wait-free per-thread count of open critical sections";
  Spec.States = {"Outside", "Error: nested critical sections"};
  Spec.Counter = {"critical depth", 1};

  // Push below the bound: a successful critical acquire.
  Spec.Transitions.push_back(makeTransition(
      "Outside", "Outside",
      {{FunctionSelector::matching(
            "GetStringCritical or GetPrimitiveArrayCritical",
            isCriticalAcquire),
        Direction::ReturnJavaToC}},
      CounterOp::Push, [this](TransitionContext &Ctx) {
        if (!Ctx.call().returnPtr())
          return; // acquisition failed; no section was opened
        Threads.at(Ctx).CriticalNestingDepth.add(1);
      }));

  // Pop: the matching release. Decrements at the return, so a release the
  // critical-section state machine aborted (unmatched release) does not
  // unbalance this shadow.
  Spec.Transitions.push_back(makeTransition(
      "Outside", "Outside",
      {{FunctionSelector::matching(
            "ReleaseStringCritical or ReleasePrimitiveArrayCritical",
            isCriticalRelease),
        Direction::ReturnJavaToC}},
      CounterOp::Pop, [this](TransitionContext &Ctx) {
        ShadowDepth &Depth = Threads.at(Ctx).CriticalNestingDepth;
        if (mutate::active(mutate::M::SpecCriticalPopGuardDropped) ||
            Depth.get() > 0)
          Depth.add(-1);
      }));

  // Push at the bound: a second acquire inside an open section. Aborting
  // the call keeps the nested acquisition out of every other machine's
  // shadow (no pin is created, so no spurious leak report).
  Spec.Transitions.push_back(makeTransition(
      "Outside", "Error: nested critical sections",
      {{FunctionSelector::matching(
            "GetStringCritical or GetPrimitiveArrayCritical",
            isCriticalAcquire),
        Direction::CallCToJava}},
      CounterOp::Push, [this](TransitionContext &Ctx) {
        int64_t Bound =
            mutate::active(mutate::M::SpecCriticalGuardWeakened) ? 2 : 1;
        if (Threads.at(Ctx).CriticalNestingDepth.get() < Bound)
          return;
        fail(Ctx, Spec, "%s", NestedCriticalMsg);
      }));
  Spec.Transitions.back().Violation = NestedCriticalMsg;
}

int CriticalNestingMachine::depthOf(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? static_cast<int>(Shadow->CriticalNestingDepth.get()) : 0;
}
