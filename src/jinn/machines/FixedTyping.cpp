//===- jinn/machines/FixedTyping.cpp - Fixed typing machine --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 7, "Fixed typing": for many JNI functions the parameter's
/// Java type is fixed by the function itself (the clazz of CallStatic* must
/// be a java.lang.Class, a jstring must be a String, jintArray an int[]).
/// The constraints were extracted from the signature registry, mirroring
/// the paper's scan of jni.h (pitfall 3 "confusing jclass with jobject").
///
/// Checks are suppressed for the four critical functions because verifying
/// a type inside a critical region would itself require an illegal JNI
/// call — the same limitation the paper reports (§6.5, category 1).
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"

#include <bit>

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::FnTraits;
using jinn::jni::RefConstraint;
using jinn::jvm::JType;

namespace {

/// Whether the live object \p Target satisfies \p Constraint.
bool satisfies(jvm::Vm &Vm, jvm::ObjectId Target, RefConstraint Constraint) {
  jvm::HeapObject *HO = Vm.heap().resolve(Target);
  if (!HO)
    return true; // not observable; other machines own liveness errors
  switch (Constraint) {
  case RefConstraint::None:
    return true;
  case RefConstraint::Class:
    return Vm.klassFromMirror(Target) != nullptr;
  case RefConstraint::String:
    return HO->Shape == jvm::ObjShape::Str;
  case RefConstraint::Throwable:
    return HO->Kl && HO->Kl->isSubclassOf(Vm.throwableClass());
  case RefConstraint::AnyArray:
    return HO->Shape == jvm::ObjShape::PrimArray ||
           HO->Shape == jvm::ObjShape::ObjArray;
  case RefConstraint::ObjectArray:
    return HO->Shape == jvm::ObjShape::ObjArray;
  case RefConstraint::BooleanArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Boolean;
  case RefConstraint::ByteArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Byte;
  case RefConstraint::CharArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Char;
  case RefConstraint::ShortArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Short;
  case RefConstraint::IntArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Int;
  case RefConstraint::LongArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Long;
  case RefConstraint::FloatArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Float;
  case RefConstraint::DoubleArray:
    return HO->Shape == jvm::ObjShape::PrimArray &&
           HO->ElemKind == JType::Double;
  }
  return true;
}

} // namespace

FixedTypingMachine::FixedTypingMachine(const CriticalStateMachine &Critical)
    : Critical(Critical) {
  Spec.Name = "Fixed typing";
  Spec.ObservedEntity = "A reference parameter";
  Spec.Errors =
      "Type mismatch between actual and formal parameter to JNI function";
  Spec.Encoding = "Map from entity IDs to their signatures";
  Spec.States = {"Checked"};

  Spec.Transitions.push_back(makeTransition(
      "Checked", "Checked",
      {{FunctionSelector::matching(
            "any JNI function with a parameter of fixed Java type",
            [](const FnTraits &Traits) {
              return Traits.FixedTypeMask != 0 && !Traits.CriticalAllowed;
            }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        if (this->Critical.inCritical(Ctx))
          return; // cannot type-check inside a critical region
        const FnTraits &Traits = Ctx.call().traits();
        for (unsigned Mask = Traits.FixedTypeMask; Mask; Mask &= Mask - 1) {
          int I = std::countr_zero(Mask);
          const jni::ParamTraits &Param = Traits.Params[I];
          uint64_t Word = Ctx.call().refWord(I);
          if (!Word)
            continue; // nullness machine owns null errors
          jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
          if (Peek.S != jvm::Vm::PeekResult::Status::Live)
            continue; // reference machines own liveness errors
          if (!satisfies(Ctx.vm(), Peek.Target, Param.Constraint)) {
            fail(Ctx, Spec,
                 "argument %d is not assignable to the expected type %s",
                 I + 1, jni::refConstraintClassName(Param.Constraint));
            return;
          }
        }
      }));
}
