//===- synth/Synthesizer.h - Algorithm 1: checks from state machines -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1: for each state machine specification, for each
/// state transition, look up the language transitions it may occur at, and
/// add the synthesized check to the start (Call) or end (Return) of the
/// wrapper for each affected FFI function: the interposed JNI wrappers
/// (paper Figure 4) and the native-method wrapper the agent installs
/// through the JVMTI NativeMethodBind event (Figure 3).
///
/// The checks are compiled, not interpreted: Algorithm 1's walk fills a
/// JniCheckProgram whose blocks — one per JNI function and phase, plus
/// native entry and exit — are published to the interpose dispatcher as
/// slots in one step. Both directions run through that one table, and
/// replay runs the same blocks.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_SYNTH_SYNTHESIZER_H
#define JINN_SYNTH_SYNTHESIZER_H

#include "spec/StateMachine.h"

#include <array>
#include <memory>
#include <vector>

namespace jinn::synth {

/// What Algorithm 1 produced.
struct SynthesisStats {
  size_t MachineCount = 0;
  size_t StateTransitionCount = 0;
  size_t JniPreHooks = 0;
  size_t JniPostHooks = 0;
  size_t NativeEntryActions = 0;
  size_t NativeExitActions = 0;

  size_t instrumentationPoints() const {
    return JniPreHooks + JniPostHooks + NativeEntryActions +
           NativeExitActions;
  }
};

/// Algorithm 1's output, compiled: for every JNI function and phase, and
/// for native-method entry and exit, the straight line of machine
/// transitions the relevance analysis says it needs, in walk order
/// (machine-major) — the paper's one specialised wrapper per function.
/// Each non-empty block is one dispatcher slot; running it builds a
/// single TransitionContext and invokes the checks as plain indirect
/// calls.
class JniCheckProgram {
public:
  /// One machine transition, as a raw indirect call.
  struct Check {
    spec::TransitionAction::RawFn Invoke = nullptr;
    void *Obj = nullptr;
  };
  /// The checks of one (function, phase): the object of its slot.
  struct Block {
    spec::Reporter *Rep = nullptr;
    const Check *First = nullptr; ///< into the program's check arena
    size_t Count = 0;
  };

  JniCheckProgram() = default;
  JniCheckProgram(const JniCheckProgram &) = delete;
  JniCheckProgram &operator=(const JniCheckProgram &) = delete;

  /// Runs the checks of \p Call's crossing (its JNI function, or the
  /// native-method boundary) for one phase, adding one to
  /// \p PerMachine[machine index] for every check that ran — replay's
  /// exact per-machine transition counts. The live slot runs the same
  /// block through a non-counting instantiation.
  void runCounted(bool IsPost, jvmti::CapturedCall &Call,
                  uint64_t *PerMachine) const;

private:
  friend class Synthesizer;

  template <bool IsPost, bool Counting>
  static void runBlock(const Block &B, jvmti::CapturedCall &Call,
                       const uint32_t *MachineOf, uint64_t *PerMachine);
  /// The dispatcher slots: \p BlockPtr is a pre (entry) or post (exit)
  /// Block.
  static void runPreSlot(const void *BlockPtr, jvmti::CapturedCall &Call);
  static void runPostSlot(const void *BlockPtr, jvmti::CapturedCall &Call);

  std::vector<Check> Checks;
  /// Machine index (into the synthesizer's list) of each check, kept
  /// apart from Checks so the live arena stays two words per check.
  std::vector<uint32_t> MachineOf;
  /// Copies of the matched actions: the checks point at their callables.
  std::vector<spec::TransitionAction> Retained;
  std::array<Block, jni::NumJniFunctions> Pre{};
  std::array<Block, jni::NumJniFunctions> Post{};
  Block NativeEntry;
  Block NativeExit;
};

/// Synthesizes a dynamic analysis from state machine specifications.
/// Non-owning: machines and reporter must outlive the synthesized analysis.
class Synthesizer {
public:
  Synthesizer(std::vector<spec::MachineBase *> Machines,
              spec::Reporter &Rep)
      : Machines(std::move(Machines)), Rep(Rep) {}

  /// Algorithm 1: compiles the check program for both boundary
  /// directions. Repeatable; each call rebuilds it from the specs.
  SynthesisStats synthesize();

  /// synthesize(), then publishes the check program into \p Dispatcher —
  /// one publish for every slot.
  SynthesisStats installInto(jvmti::InterposeDispatcher &Dispatcher);

  /// The compiled checks (valid after synthesize()). Replay runs this
  /// same program.
  const JniCheckProgram &jniChecks() const { return *Program; }

  const std::vector<spec::MachineBase *> &machines() const {
    return Machines;
  }
  spec::Reporter &reporter() { return Rep; }

private:
  std::vector<spec::MachineBase *> Machines;
  spec::Reporter &Rep;
  std::shared_ptr<JniCheckProgram> Program;
};

} // namespace jinn::synth

#endif // JINN_SYNTH_SYNTHESIZER_H
