//===- jinn/machines/MonitorBalance.cpp - Monitor balance -----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second pushdown machine (ROADMAP item 3): every JNI MonitorExit
/// must match an earlier JNI MonitorEnter on the same thread. The monitor
/// machine of paper Figure 8 owns the *leak* (monitors still held at
/// termination); this machine owns the *underflow* — a MonitorExit with no
/// outstanding JNI entry, which the JVM only punishes with an
/// IllegalMonitorStateException long after the balance bug was introduced.
/// The per-thread entry tally is the declared counter; the dynamic
/// encoding is a depth in the thread's shadow block (ThreadShadow).
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using spec::CounterOp;

static const char UnmatchedExitMsg[] =
    "MonitorExit without a matching JNI MonitorEnter";

MonitorBalanceMachine::MonitorBalanceMachine(ThreadShadows &Blocks)
    : Threads(Blocks) {
  Spec.Name = "Monitor balance";
  Spec.ObservedEntity = "A thread's stack of JNI monitor entries";
  Spec.Errors = "Unmatched exit";
  Spec.Encoding = "A wait-free per-thread count of outstanding JNI "
                  "MonitorEnter acquisitions";
  Spec.States = {"Balanced", "Error: unmatched exit"};
  Spec.Counter = {"monitor-entry depth", 64};

  // Push: a successful MonitorEnter deepens the entry stack.
  Spec.Transitions.push_back(makeTransition(
      "Balanced", "Balanced",
      {{FunctionSelector::one(jni::FnId::MonitorEnter),
        Direction::ReturnJavaToC}},
      CounterOp::Push, [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        Threads.at(Ctx).MonitorDepth.add(1);
      }));

  // Pop above zero: the matching MonitorExit. Decrements at the return
  // (an underflowing exit is aborted at the call and never gets here, and
  // an exit the VM rejected must not unbalance the shadow).
  Spec.Transitions.push_back(makeTransition(
      "Balanced", "Balanced",
      {{FunctionSelector::one(jni::FnId::MonitorExit),
        Direction::ReturnJavaToC}},
      CounterOp::Pop, [this](TransitionContext &Ctx) {
        if (!mutate::active(mutate::M::SpecMonitorExitGateDropped) &&
            static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        ShadowDepth &Depth = Threads.at(Ctx).MonitorDepth;
        if (Depth.get() > 0)
          Depth.add(-1);
      }));

  // Pop at zero: underflow — this thread holds no JNI monitor entry.
  const char *UnderflowTo = "Error: unmatched exit";
  if (mutate::active(mutate::M::SpecMonitorErrorStateSwapped))
    UnderflowTo = "Balanced"; // mutant: the error state is bypassed
  Spec.Transitions.push_back(makeTransition(
      "Balanced", UnderflowTo,
      {{FunctionSelector::one(jni::FnId::MonitorExit),
        Direction::CallCToJava}},
      CounterOp::Pop, [this](TransitionContext &Ctx) {
        if (Threads.at(Ctx).MonitorDepth.get() > 0)
          return;
        fail(Ctx, Spec, "%s", UnmatchedExitMsg);
      }));
  Spec.Transitions.back().Violation = UnmatchedExitMsg;
}

int MonitorBalanceMachine::depthOf(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? static_cast<int>(Shadow->MonitorDepth.get()) : 0;
}
