//===- jinn/machines/AccessControl.cpp - Access control machine ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 7, "Access control": JNI in practice ignores visibility
/// (consistent with reflection after setAccessible(true)) but honors
/// `final`; Jinn raises an error when any of the 18 Set<T>Field /
/// SetStatic<T>Field functions writes a final field (pitfall 9). A field
/// ID's modifiers are fixed when its class is defined, so the check reads
/// them from the ID itself.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::FnTraits;

AccessControlMachine::AccessControlMachine() {
  Spec.Name = "Access control";
  Spec.ObservedEntity = "A field ID";
  Spec.Errors = "Assignment to final field";
  Spec.Encoding = "Map from field IDs to their modifiers";
  Spec.States = {"Recorded", "Checked"};

  // Record: the modifiers a field ID names are fixed when its class is
  // defined (FieldInfo::IsFinal), so production records nothing; the
  // transition stays as the spec's Recorded state (Table 2 counts it).
  Spec.Transitions.push_back(makeTransition(
      "Recorded", "Recorded",
      {{FunctionSelector::matching(
            "GetFieldID/GetStaticFieldID/FromReflectedField",
            [](const FnTraits &Traits) { return Traits.ProducesFieldId; }),
        Direction::ReturnJavaToC}},
      [](TransitionContext &) {}));

  // Check: the 18 field-writing functions.
  Spec.Transitions.push_back(makeTransition(
      "Recorded", "Checked",
      {{FunctionSelector::matching(
            "Set<Type>Field or SetStatic<Type>Field",
            [](const FnTraits &Traits) { return Traits.IsFieldSet; }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        jvm::FieldInfo *F = Ctx.call().fieldArg();
        if (!F)
          return; // invalid IDs belong to the entity-typing machine
        if (F->IsFinal)
          failWith(Ctx, Spec, [&] {
            return formatString("assignment to final field %s",
                                F->qualifiedName().c_str());
          });
      }));
}
