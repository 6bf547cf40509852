//===- synth/Synthesizer.cpp - Algorithm 1 --------------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

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
  // One context per phase: a view over the CapturedCall that resolves the
  // site's thread id once, so sharing it across the block's checks is
  // observably identical to building one per check.
  TransitionContext Ctx(Call, *B.Rep);
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

void JniCheckProgram::runCounted(bool IsPost, jvmti::CapturedCall &Call,
                                 uint64_t *PerMachine) const {
  const Block &B =
      Call.isNative() ? (IsPost ? NativeExit : NativeEntry)
                      : (IsPost ? Post : Pre)[static_cast<size_t>(Call.id())];
  const uint32_t *Machines = MachineOf.data() + (B.First - Checks.data());
  if (IsPost)
    runBlock<true, true>(B, Call, Machines, PerMachine);
  else
    runBlock<false, true>(B, Call, Machines, PerMachine);
}

SynthesisStats Synthesizer::synthesize() {
  SynthesisStats Stats;
  Stats.MachineCount = Machines.size();
  Program = std::make_shared<JniCheckProgram>();
  // Per function and phase, in walk order: each check with its machine.
  using Row = std::pair<JniCheckProgram::Check, uint32_t>;
  std::array<std::vector<Row>, jni::NumJniFunctions> PreChecks, PostChecks;
  std::vector<Row> EntryChecks, ExitChecks;

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
        // 5-6: add the synthesized code to the start or end of the
        // wrapper for e.function, by direction. The JNI match set is
        // resolved once through spec::matchedFunctions — the same
        // resolution the static analyzer uses to build the relevance
        // matrix, so the compiled checks and the matrix cannot disagree.
        // An actionless transition has nothing to run; it still counts
        // as an instrumentation point of the spec.
        JniCheckProgram::Check Check{Transition.Action.rawInvoke(),
                                     Transition.Action.rawObject()};
        Row R{Check, static_cast<uint32_t>(M)};
        switch (Lang.Dir) {
        case Direction::CallCToJava:
        case Direction::ReturnJavaToC: {
          bool IsPre = Lang.Dir == Direction::CallCToJava;
          for (FnId Id : spec::matchedFunctions(Lang.Fns)) {
            ++(IsPre ? Stats.JniPreHooks : Stats.JniPostHooks);
            if (Check.Invoke)
              (IsPre ? PreChecks : PostChecks)[static_cast<size_t>(Id)]
                  .push_back(R);
          }
          break;
        }
        case Direction::CallJavaToC:
          ++Stats.NativeEntryActions;
          if (Check.Invoke)
            EntryChecks.push_back(R);
          break;
        case Direction::ReturnCToJava:
          ++Stats.NativeExitActions;
          if (Check.Invoke)
            ExitChecks.push_back(R);
          break;
        }
        Program->Retained.push_back(Transition.Action);
      }
    }
  }

  // Flatten into one arena, function by function; the arena is sized up
  // front so the blocks' pointers into it stay valid.
  std::vector<JniCheckProgram::Check> &Checks = Program->Checks;
  Checks.reserve(Stats.instrumentationPoints());
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
  Fill(Program->NativeEntry, EntryChecks);
  Fill(Program->NativeExit, ExitChecks);
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
  if (const JniCheckProgram::Block &B = Program->NativeEntry; B.Count)
    Batch.NativeEntry.push_back({&JniCheckProgram::runPreSlot, &B});
  if (const JniCheckProgram::Block &B = Program->NativeExit; B.Count)
    Batch.NativeExit.push_back({&JniCheckProgram::runPostSlot, &B});
  Batch.KeepAlive.push_back(Program);
  Dispatcher.install(std::move(Batch));
  return Stats;
}
