//===- jinn/machines/GlobalRef.cpp - Global/weak-global ref machine ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 8, "Global reference or weak global reference": explicitly
/// managed cross-call references. Use after deletion is a dangling
/// reference error (deleting twice is its special case); unreleased
/// references are reported as leaks at program termination.
///
/// References created before the agent attached are adopted on first use
/// instead of being reported — Jinn has no false positives (paper §2.2).
///
/// The live set is a GlobalSlotTable: one atomic word per VM global slot.
/// A use compares the slot's word with the whole handle word, generation
/// included; acquire and adoption store it; a delete compare-exchanges it
/// to 0. No path takes a lock.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

#include <bit>

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::FnTraits;
using jinn::jni::ResourceRole;
using jinn::jvm::RefKind;

namespace {

/// Use sites: reference-taking functions, excluding the explicit release
/// functions (those are Release transitions, handled above — running the
/// Use transition there would re-adopt the reference being deleted).
bool takesRefParam(const FnTraits &Traits) {
  return Traits.RefMask != 0 &&
         Traits.Resource != ResourceRole::GlobalRelease &&
         Traits.Resource != ResourceRole::WeakRelease &&
         Traits.Resource != ResourceRole::LocalDelete &&
         Traits.Resource != ResourceRole::PopFrame;
}

} // namespace

bool GlobalRefMachine::dangling(TransitionContext &Ctx, uint64_t Word) {
  uint64_t Held = Live.wordAt(Word);
  if (mutate::active(mutate::M::SpecGlobalRefSlotGenerationIgnored)
          ? Held != 0 // mutant: any occupant of the slot passes
          : Held == Word)
    return false;
  jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
  if (Peek.S == jvm::Vm::PeekResult::Status::Live ||
      Peek.S == jvm::Vm::PeekResult::Status::ClearedWeak) {
    Live.publish(Word); // pre-agent ref: adopt it
    return false;
  }
  return true;
}

GlobalRefMachine::GlobalRefMachine() {
  Spec.Name = "Global or weak global reference";
  Spec.ObservedEntity = "A global or weak global JNI reference";
  Spec.Errors = "Leak and dangling reference";
  Spec.Encoding = "A list of acquired global references";
  Spec.States = {"Before acquire", "Acquired", "Released",
                 "Error: dangling"};

  // Acquire: Return:Java->C of NewGlobalRef / NewWeakGlobalRef.
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::matching(
            "NewGlobalRef and NewWeakGlobalRef",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::GlobalAcquire ||
                     Traits.Resource == ResourceRole::WeakAcquire;
            }),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (uint64_t Word = Ctx.call().returnWord())
          Live.publish(Word);
      }));

  // Release: DeleteGlobalRef / DeleteWeakGlobalRef.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::matching(
            "DeleteGlobalRef and DeleteWeakGlobalRef",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::GlobalRelease ||
                     Traits.Resource == ResourceRole::WeakRelease;
            }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        if (mutate::active(mutate::M::SpecGlobalRefReleaseUntracked))
          return; // mutant: the delete never leaves the shadow
        uint64_t Word = Ctx.call().refWord(0);
        if (!Word)
          return;
        if (Live.retire(Word))
          return;
        jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
        if (Peek.S == jvm::Vm::PeekResult::Status::Live ||
            Peek.S == jvm::Vm::PeekResult::Status::ClearedWeak)
          return; // created before the agent attached; adopt the delete
        fail(Ctx, Spec,
             "a global reference was deleted twice (double free / dangling)");
      }));

  // Use: Call:C->Java with a global-kind reference argument.
  Spec.Transitions.push_back(makeTransition(
      "Released", "Error: dangling",
      {{FunctionSelector::matching("any JNI function taking a reference, "
                                   "except the release functions",
                                   takesRefParam),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        for (unsigned Mask = Ctx.call().traits().RefMask; Mask;
             Mask &= Mask - 1) {
          int I = std::countr_zero(Mask);
          uint64_t Word = Ctx.call().arg(I).Word;
          if (!Word)
            continue;
          std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
          if (!Bits || (Bits->Kind != RefKind::Global &&
                        Bits->Kind != RefKind::WeakGlobal))
            continue; // locals belong to the local-reference machine
          if (!dangling(Ctx, Word))
            continue;
          fail(Ctx, Spec,
               "argument %d is a dangling %s reference (deleted earlier)",
               I + 1,
               Bits->Kind == RefKind::WeakGlobal ? "weak global" : "global");
          return;
        }
      }));

  // Use: Return:C->Java — a native method returning a global-kind ref.
  Spec.Transitions.push_back(makeTransition(
      "Released", "Error: dangling",
      {{FunctionSelector::nativeMethods("native method returning reference"),
        Direction::ReturnCToJava}},
      [this](TransitionContext &Ctx) {
        uint64_t Word = Ctx.call().returnWord();
        if (!Ctx.call().returnIsRef() || !Word)
          return;
        std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
        if (!Bits || (Bits->Kind != RefKind::Global &&
                      Bits->Kind != RefKind::WeakGlobal))
          return;
        if (!dangling(Ctx, Word))
          return;
        fail(Ctx, Spec, "a native method returned a dangling global reference");
      }));
}

void GlobalRefMachine::onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) {
  (void)Vm;
  size_t LiveCount = Live.liveCount();
  if (LiveCount > 0)
    Rep.endOfRun(Spec,
                 formatString("%zu global or weak global reference(s) were "
                              "never deleted (leak)",
                              LiveCount));
}
