//===- jinn/machines/ExceptionState.cpp - Exception state machine --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 6, "Exception state": after a JNI call leaves an exception
/// pending, C code must consume or propagate it; only the 20
/// exception-oblivious clean-up functions may run first (pitfall 1).
///
/// As in the paper, the Cleared->Pending and Pending->Cleared transitions
/// need no interposition: the machine encoding *is* the JVM-internal
/// pending-exception state, which the check reads directly. They are
/// declared with empty language-transition mappings for documentation and
/// the emitter.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;

ExceptionStateMachine::ExceptionStateMachine() {
  Spec.Name = "Exception state";
  Spec.ObservedEntity = "A thread";
  Spec.Errors = "Unhandled Java exception";
  Spec.Encoding = "Internal JVM structures";
  Spec.States = {"Cleared", "Pending", "Error: unhandled"};

  // Bookkeeping transitions carried by the JVM itself (no interposition).
  Spec.Transitions.push_back(
      makeTransition("Cleared", "Pending", {}, nullptr));
  Spec.Transitions.push_back(
      makeTransition("Pending", "Cleared", {}, nullptr));

  // The checked transition: an exception-sensitive call while pending.
  Spec.Transitions.push_back(makeTransition(
      "Pending", "Error: unhandled",
      {{FunctionSelector::matching(
            "any exception-sensitive JNI function",
            [](const jni::FnTraits &Traits) {
              return !Traits.ExceptionOblivious;
            }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        if (mutate::active(mutate::M::SpecExceptionCheckDropped))
          return; // mutant: the pending-exception check never runs
        if (!Ctx.exceptionPending())
          return;
        fail(Ctx, Spec, "An exception is pending");
      }));
}
