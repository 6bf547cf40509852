//===- synth/Synthesizer.cpp - Algorithm 1 --------------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "jni/EnvImplDetail.h"
#include "jvmti/Interpose.h"

#include <utility>

using namespace jinn;
using namespace jinn::synth;
using jinn::jni::FnId;
using jinn::spec::Direction;
using jinn::spec::TransitionContext;

template <bool IsPost, bool Counting>
void JniCheckProgram::runBlock(const Block &B, jvmti::CapturedCall &Call,
                               const uint32_t *MachineOf,
                               uint64_t *PerMachine) {
  // One context per phase: it is a stateless view over the CapturedCall,
  // so sharing it across the block's checks is observably identical to
  // building one per check.
  TransitionContext Ctx = TransitionContext::jniSite(
      IsPost ? TransitionContext::Site::JniPost
             : TransitionContext::Site::JniPre,
      Call, *B.Rep);
  for (const Check *C = B.First, *End = B.First + B.Count; C != End; ++C) {
    if constexpr (Counting)
      ++PerMachine[MachineOf[C - B.First]];
    C->Invoke(C->Obj, Ctx);
    // A pre check that suppresses the call ends the phase; post checks
    // all run (the call already happened).
    if (!IsPost && Call.aborted())
      return;
  }
}

void JniCheckProgram::runPreSlot(const void *BlockPtr,
                                 jvmti::CapturedCall &Call) {
  runBlock<false, false>(*static_cast<const Block *>(BlockPtr), Call,
                         nullptr, nullptr);
}

void JniCheckProgram::runPostSlot(const void *BlockPtr,
                                  jvmti::CapturedCall &Call) {
  runBlock<true, false>(*static_cast<const Block *>(BlockPtr), Call,
                        nullptr, nullptr);
}

void JniCheckProgram::runCounted(FnId Id, bool IsPost,
                                 jvmti::CapturedCall &Call,
                                 uint64_t *PerMachine) const {
  const Block &B = (IsPost ? Post : Pre)[static_cast<size_t>(Id)];
  const uint32_t *Machines = MachineOf.data() + (B.First - Checks.data());
  if (IsPost)
    runBlock<true, true>(B, Call, Machines, PerMachine);
  else
    runBlock<false, true>(B, Call, Machines, PerMachine);
}

SynthesisStats Synthesizer::synthesize() {
  SynthesisStats Stats;
  Stats.MachineCount = Machines.size();
  EntryActions.clear();
  ExitActions.clear();
  Program = std::make_shared<JniCheckProgram>();
  // Per function and phase, in walk order: each check with its machine.
  using Row = std::pair<JniCheckProgram::Check, uint32_t>;
  std::array<std::vector<Row>, jni::NumJniFunctions> PreChecks, PostChecks;

  // Algorithm 1 (paper Figure 5):
  // 1: for each state machine specification Mi
  for (size_t M = 0; M < Machines.size(); ++M) {
    // 2: for each state transition sa -> sb
    for (const spec::StateTransition &Transition :
         Machines[M]->spec().Transitions) {
      ++Stats.StateTransitionCount;
      // 3: let L = Mi.languageTransitionsFor(sa -> sb)
      // 4: for each language transition e in L
      for (const spec::LanguageTransition &Lang : Transition.At) {
        switch (Lang.Dir) {
        case Direction::CallCToJava:
        case Direction::ReturnJavaToC: {
          // 5-6: add the synthesized code to the start or end of the
          // wrapper for e.function, by direction. The match set is
          // resolved once through spec::matchedFunctions — the same
          // resolution the static analyzer uses to build the relevance
          // matrix, so the compiled checks and the matrix cannot disagree.
          bool IsPre = Lang.Dir == Direction::CallCToJava;
          JniCheckProgram::Check Check{Transition.Action.rawInvoke(),
                                       Transition.Action.rawObject()};
          for (FnId Id : spec::matchedFunctions(Lang.Fns)) {
            ++(IsPre ? Stats.JniPreHooks : Stats.JniPostHooks);
            // An actionless transition has nothing to run; it still counts
            // as an instrumentation point of the spec.
            if (Check.Invoke)
              (IsPre ? PreChecks : PostChecks)[static_cast<size_t>(Id)]
                  .push_back({Check, static_cast<uint32_t>(M)});
          }
          Program->Retained.push_back(Transition.Action);
          break;
        }
        case Direction::CallJavaToC:
          EntryActions.push_back({&Machines[M]->spec(), Transition.Action});
          ++Stats.NativeEntryActions;
          break;
        case Direction::ReturnCToJava:
          ExitActions.push_back({&Machines[M]->spec(), Transition.Action});
          ++Stats.NativeExitActions;
          break;
        }
      }
    }
  }

  // Flatten into one arena, function by function; the arena is sized up
  // front so the blocks' pointers into it stay valid.
  std::vector<JniCheckProgram::Check> &Checks = Program->Checks;
  Checks.reserve(Stats.JniPreHooks + Stats.JniPostHooks);
  auto Fill = [&](JniCheckProgram::Block &B, const std::vector<Row> &From) {
    B = {&Rep, Checks.data() + Checks.size(), From.size()};
    for (const auto &[Check, Machine] : From) {
      Checks.push_back(Check);
      Program->MachineOf.push_back(Machine);
    }
  };
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    Fill(Program->Pre[I], PreChecks[I]);
    Fill(Program->Post[I], PostChecks[I]);
  }
  return Stats;
}

SynthesisStats Synthesizer::installInto(
    jvmti::InterposeDispatcher &Dispatcher) {
  SynthesisStats Stats = synthesize();
  jvmti::SlotBatch Batch;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    FnId Id = static_cast<FnId>(I);
    if (const JniCheckProgram::Block &B = Program->Pre[I]; B.Count)
      Batch.Pre.push_back({Id, {&JniCheckProgram::runPreSlot, &B}});
    if (const JniCheckProgram::Block &B = Program->Post[I]; B.Count)
      Batch.Post.push_back({Id, {&JniCheckProgram::runPostSlot, &B}});
  }
  Batch.KeepAlive.push_back(Program);
  Dispatcher.install(std::move(Batch));
  return Stats;
}

std::function<void(jvm::MethodInfo &, jni::JniNativeStdFn &)>
Synthesizer::makeNativeBindHandler() {
  return [this](jvm::MethodInfo &Method, jni::JniNativeStdFn &Bound) {
    if (EntryActions.empty() && ExitActions.empty() && !BoundaryObserver)
      return;
    jni::JniNativeStdFn Original = std::move(Bound);
    // The synthesized native-method wrapper (paper Figure 3): entry
    // instrumentation, the original native code, exit instrumentation.
    Bound = [this, &Method, Original = std::move(Original)](
                JNIEnv *Env, jobject Self, const jvalue *Args) -> jvalue {
      // Sampled checking mirrors the JNI direction: an unsampled thread's
      // native crossings are neither recorded nor checked, so the retained
      // trace holds the complete stream of every sampled thread and
      // nothing else.
      auto *Dispatcher = static_cast<jvmti::InterposeDispatcher *>(
          Env->runtime->Dispatcher);
      bool Checked = !Dispatcher || Dispatcher->checksThread(*Env->thread);
      if (BoundaryObserver && Checked)
        BoundaryObserver->onNativeEntry(Method, Env, Self, Args);
      TransitionContext Entry = TransitionContext::nativeSite(
          TransitionContext::Site::NativeEntry, Method, Env, Self, Args,
          nullptr, Rep);
      if (Checked)
        for (const MachineAction &Action : EntryActions) {
          Action.second(Entry);
          if (Entry.aborted())
            break;
        }
      jvalue Result;
      Result.j = 0;
      if (!Entry.aborted())
        Result = Original(Env, Self, Args);
      if (BoundaryObserver && Checked)
        BoundaryObserver->onNativeExit(Method, Env, Self, Args, &Result,
                                       Entry.aborted());
      if (Checked) {
        TransitionContext Exit = TransitionContext::nativeSite(
            TransitionContext::Site::NativeExit, Method, Env, Self, Args,
            &Result, Rep);
        for (const MachineAction &Action : ExitActions)
          Action.second(Exit);
      }
      return Result;
    };
  };
}
