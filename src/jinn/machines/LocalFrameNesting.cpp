//===- jinn/machines/LocalFrameNesting.cpp - Local-frame nesting ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first pushdown machine (ROADMAP item 3): PushLocalFrame and
/// PopLocalFrame must nest per thread. A finite state set cannot express
/// "as many pops as pushes", so the machine declares a counter
/// (spec::CounterSpec) and its transitions declare push/pop moves; the one
/// live state just says "balanced so far". The dynamic encoding is a
/// depth in the thread's shadow block (ThreadShadow).
///
/// Error ownership: this machine owns the *underflow* (PopLocalFrame
/// without a matching push) — transferred here from the local-reference
/// machine, whose frame shadow now pops silently on underflow. Frame
/// *leaks* (pushed frames never popped by native return) remain with the
/// local-reference machine.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using spec::CounterOp;

static const char UnmatchedPopMsg[] =
    "PopLocalFrame without a matching PushLocalFrame";

LocalFrameNestingMachine::LocalFrameNestingMachine(ThreadShadows &Blocks)
    : Threads(Blocks) {
  Spec.Name = "Local-frame nesting";
  Spec.ObservedEntity = "A thread's stack of explicitly pushed local frames";
  Spec.Errors = "Unmatched pop";
  Spec.Encoding = "A wait-free per-thread count of outstanding "
                  "PushLocalFrame frames";
  Spec.States = {"Balanced", "Error: unmatched pop"};
  uint32_t Bound = 64;
  if (mutate::active(mutate::M::SpecLocalFrameBound65))
    Bound = 65; // mutant: wrong static widening cap
  Spec.Counter = {"local-frame depth", Bound};

  // Push: a successful PushLocalFrame deepens the nesting.
  Spec.Transitions.push_back(makeTransition(
      "Balanced", "Balanced",
      {{FunctionSelector::one(jni::FnId::PushLocalFrame),
        Direction::ReturnJavaToC}},
      CounterOp::Push, [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        Threads.at(Ctx).LocalFrameDepth.add(1);
      }));

  // Pop above zero: the matching PopLocalFrame. The decrement runs at the
  // *return* so it cannot race the underflow check below — an underflowing
  // pop is aborted at the call and never reaches this hook.
  Spec.Transitions.push_back(makeTransition(
      "Balanced", "Balanced",
      {{FunctionSelector::one(jni::FnId::PopLocalFrame),
        Direction::ReturnJavaToC}},
      CounterOp::Pop, [this](TransitionContext &Ctx) {
        ShadowDepth &Depth = Threads.at(Ctx).LocalFrameDepth;
        if (Depth.get() > 0)
          Depth.add(-1);
      }));

  // Pop at zero: underflow — there is no frame this pop could match.
  if (!mutate::active(mutate::M::SpecLocalFrameUnderflowDropped)) {
    Spec.Transitions.push_back(makeTransition(
        "Balanced", "Error: unmatched pop",
        {{FunctionSelector::one(jni::FnId::PopLocalFrame),
          Direction::CallCToJava}},
        CounterOp::Pop, [this](TransitionContext &Ctx) {
          if (Threads.at(Ctx).LocalFrameDepth.get() > 0)
            return;
          fail(Ctx, Spec, "%s", UnmatchedPopMsg);
        }));
    Spec.Transitions.back().Violation = UnmatchedPopMsg;
  }
}

int LocalFrameNestingMachine::depthOf(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? static_cast<int>(Shadow->LocalFrameDepth.get()) : 0;
}
