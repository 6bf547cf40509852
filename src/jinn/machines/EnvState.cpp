//===- jinn/machines/EnvState.cpp - JNIEnv* state machine ----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 6, "JNIEnv* state": every call from C into the JVM must
/// pass the JNIEnv belonging to the executing thread (pitfall 14). The
/// encoding maps thread ids to expected JNIEnv pointers, learned at thread
/// start through JVMTI.
///
/// This machine fires on *every* JNI function, so its read path is the
/// single hottest shadow lookup in the checker: the expected env sits in
/// the thread's shadow block, and the check is one relaxed load.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;

JniEnvStateMachine::JniEnvStateMachine(ThreadShadows &Blocks)
    : Threads(Blocks) {
  Spec.Name = "JNIEnv* state";
  Spec.ObservedEntity = "A thread";
  Spec.Errors = "JNIEnv* mismatch";
  Spec.Encoding = "Map from thread IDs to their expected JNIEnv* pointers";
  Spec.States = {"Attached"};

  Spec.Transitions.push_back(makeTransition(
      "Attached", "Attached",
      {{FunctionSelector::all("any JNI function"), Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        uint32_t Current = Ctx.currentThreadId();
        if (mutate::active(mutate::M::SpecEnvIdentitySwapped))
          Current = Ctx.threadId(); // mutant: x != x, never fires
        if (Current && Current != Ctx.threadId()) {
          failWith(Ctx, Spec, [&] {
            return formatString("The JNIEnv of thread \"%s\" was used while "
                                "executing on thread \"%s\"",
                                Ctx.threadName().c_str(),
                                Ctx.currentThreadName().c_str());
          });
          return;
        }
        uint64_t Expected =
            Threads.at(Ctx).ExpectedEnv.load(std::memory_order_relaxed);
        if (Expected && Expected != Ctx.envWord())
          fail(Ctx, Spec, "A stale JNIEnv pointer was used for this thread");
      }));
}

void JniEnvStateMachine::onThreadStart(const spec::ThreadStartInfo &Info) {
  Threads.start(Info).ExpectedEnv.store(Info.EnvWord,
                                        std::memory_order_relaxed);
}
