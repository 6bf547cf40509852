//===- jinn/machines/Nullness.cpp - Nullness machine ---------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 7, "Nullness": some JNI parameters must not be null and the
/// specification is not always explicit about which (the paper determined
/// them experimentally; this reproduction encodes them in the trait table).
/// Covers references, C strings, and entity IDs (pitfall 2).
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

#include <bit>

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::ArgClass;
using jinn::jni::FnTraits;

NullnessMachine::NullnessMachine() {
  Spec.Name = "Nullness";
  Spec.ObservedEntity = "A reference parameter";
  Spec.Errors = "Unexpected null value passed to JNI function";
  Spec.Encoding = "None";
  Spec.States = {"Checked"};

  Spec.Transitions.push_back(makeTransition(
      "Checked", "Checked",
      {{FunctionSelector::matching("any JNI function with a non-null parameter",
                                   [](const FnTraits &Traits) {
                                     return Traits.NonNullMask != 0;
                                   }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        unsigned Mask = Ctx.call().traits().NonNullMask;
        if (mutate::active(mutate::M::SpecNullnessMaskTopBitSkipped))
          Mask &= ~(1u << (std::bit_width(Mask) - 1)); // mutant
        for (; Mask; Mask &= Mask - 1) {
          int I = std::countr_zero(Mask);
          const jvmti::CapturedArg &Arg = Ctx.call().arg(I);
          bool IsNull = Arg.Cls == ArgClass::Ref ? Arg.Word == 0
                                                 : Arg.Ptr == nullptr;
          if (mutate::active(mutate::M::SpecNullnessInverted))
            IsNull = !IsNull;
          if (IsNull) {
            fail(Ctx, Spec, "parameter %d must not be null", I + 1);
            return;
          }
        }
      }));
}
