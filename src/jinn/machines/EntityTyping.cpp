//===- jinn/machines/EntityTyping.cpp - Entity-specific typing machine ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 7, "Entity-specific typing": a method or field ID
/// constrains the other parameters of the 131 functions that consume it —
/// staticness, the receiver's class, argument conformance, and the
/// Call<T>/Get<T>/Set<T> return kind. An ID is the VM's MethodInfo or
/// FieldInfo, so the consumers are checked against the signature it
/// carries.
/// This machine catches the Eclipse/SWT bug of §6.4.3 (a static call
/// through a class that merely *inherits* the method) and pitfall 6 when a
/// garbage value is used as an ID.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::ArgClass;
using jinn::jni::CallKind;
using jinn::jni::FnTraits;
using jinn::jvm::JType;

namespace {

bool consumesEntityId(const FnTraits &Traits) {
  return (Traits.hasParam(ArgClass::MethodId) ||
          Traits.hasParam(ArgClass::FieldId)) &&
         !Traits.ProducesMethodId && !Traits.ProducesFieldId;
}

/// True when the live object named by \p Word conforms to reference type
/// \p Formal (unknown classes conform conservatively).
bool conformsTo(TransitionContext &Ctx, uint64_t Word,
                const jvm::TypeDesc &Formal) {
  if (!Word)
    return true; // null conforms to any reference type
  jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
  if (Peek.S != jvm::Vm::PeekResult::Status::Live)
    return true; // liveness errors belong to the reference machines
  jvm::Klass *Have = Ctx.vm().klassOf(Peek.Target);
  if (!Have)
    return true;
  if (Formal.isArray())
    return Have->name() == Formal.ClassName;
  jvm::Klass *Want = Ctx.vm().findClass(Formal.ClassName);
  return !Want || Have->isSubclassOf(Want);
}

} // namespace

EntityTypingMachine::EntityTypingMachine() {
  Spec.Name = "Entity-specific typing";
  Spec.ObservedEntity = "A pair of ID parameters";
  Spec.Errors = "Type mismatch for Java field assignment or between actual "
                "and formal of a Java method";
  Spec.Encoding = "Map from entity IDs to their signatures";
  Spec.States = {"Recorded", "Checked"};

  // Record: Return:Java->C of the ID-producing functions. An ID is the
  // VM's MethodInfo/FieldInfo, which already carries its signature, so
  // production records nothing; the transition stays as the spec's
  // Recorded state (Table 2 counts it).
  Spec.Transitions.push_back(makeTransition(
      "Recorded", "Recorded",
      {{FunctionSelector::matching(
            "GetMethodID/GetStaticMethodID/GetFieldID/GetStaticFieldID/"
            "FromReflectedMethod/FromReflectedField",
            [](const FnTraits &Traits) {
              return Traits.ProducesMethodId || Traits.ProducesFieldId;
            }),
        Direction::ReturnJavaToC}},
      [](TransitionContext &) {}));

  // Check: Call:C->Java of the 131 consuming functions.
  Spec.Transitions.push_back(makeTransition(
      "Recorded", "Checked",
      {{FunctionSelector::matching(
            "any JNI function consuming a method or field ID",
            consumesEntityId),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        const FnTraits &Traits = Ctx.call().traits();
        jvm::Vm &Vm = Ctx.vm();

        if (Traits.hasParam(ArgClass::MethodId)) {
          jvm::MethodInfo *M = Ctx.call().methodArg();
          if (!M) {
            if (Ctx.call().methodArgWord())
              fail(Ctx, Spec, "The method ID is not a valid jmethodID");
            return; // null IDs belong to the nullness machine
          }
          // Staticness must agree with the call family.
          if (Traits.Call == CallKind::Static && !M->IsStatic) {
            failWith(Ctx, Spec, [&] {
              return formatString("%s is not static but was called through "
                                  "CallStatic*",
                                  M->qualifiedName().c_str());
            });
            return;
          }
          if ((Traits.Call == CallKind::Virtual ||
               Traits.Call == CallKind::Nonvirtual) &&
              M->IsStatic) {
            failWith(Ctx, Spec, [&] {
              return formatString("%s is static but was called through an "
                                  "instance-call function",
                                  M->qualifiedName().c_str());
            });
            return;
          }
          if (Traits.Call == CallKind::Ctor && M->Name != "<init>") {
            fail(Ctx, Spec, "NewObject requires a constructor method ID");
            return;
          }

          // Receiver conformance.
          uint64_t Recv = Ctx.call().refWord(0);
          if (Traits.Call == CallKind::Virtual ||
              Traits.Call == CallKind::Nonvirtual) {
            jvm::Vm::PeekResult Peek = peekRef(Ctx, Recv);
            if (Peek.S == jvm::Vm::PeekResult::Status::Live) {
              jvm::Klass *Have = Vm.klassOf(Peek.Target);
              if (Have && !Have->isSubclassOf(M->Owner)) {
                fail(Ctx, Spec, "the receiver is not an instance of %s",
                     M->Owner->name().c_str());
                return;
              }
            }
          } else if (Traits.Call == CallKind::Static ||
                     Traits.Call == CallKind::Ctor) {
            jvm::Vm::PeekResult Peek = peekRef(Ctx, Recv);
            if (Peek.S == jvm::Vm::PeekResult::Status::Live) {
              if (jvm::Klass *Kl = Vm.klassFromMirror(Peek.Target)) {
                // A method is declared by its owner by construction, so
                // only a call through another class needs the lookup.
                if (Traits.Call == CallKind::Static && Kl != M->Owner &&
                    !Kl->findDeclaredMethod(M->Name, M->Desc, true)) {
                  // The Eclipse/SWT case: the class only inherits it.
                  fail(Ctx, Spec,
                       "class %s does not declare the static method %s%s",
                       Kl->name().c_str(), M->Name.c_str(), M->Desc.c_str());
                  return;
                }
                if (Traits.Call == CallKind::Ctor && Kl != M->Owner) {
                  fail(Ctx, Spec,
                       "the constructor belongs to a different class");
                  return;
                }
              }
            }
          }

          // Return kind of the Call<T> family must match the signature.
          if (Traits.Call != CallKind::NotACall &&
              Traits.Call != CallKind::Ctor &&
              Traits.CallRet != M->Sig.Ret.Kind) {
            failWith(Ctx, Spec, [&] {
              return formatString("%s returns %s but was called through a "
                                  "Call<%s> function",
                                  M->qualifiedName().c_str(),
                                  jvm::typeName(M->Sig.Ret.Kind),
                                  jvm::typeName(Traits.CallRet));
            });
            return;
          }

          // Reference-argument conformance (A forms carry jvalue arrays).
          if (Ctx.call().materializeCallArgs()) {
            std::span<const jvalue> Args = Ctx.call().callArgs();
            for (size_t K = 0; K < M->Sig.Params.size(); ++K) {
              const jvm::TypeDesc &Formal = M->Sig.Params[K];
              if (!Formal.isReference())
                continue;
              if (!conformsTo(Ctx, jni::handleWord(Args[K].l), Formal)) {
                failWith(Ctx, Spec, [&] {
                  return formatString("actual argument %zu does not conform "
                                      "to formal type %s",
                                      K + 1, Formal.toDescriptor().c_str());
                });
                return;
              }
            }
          }
          return;
        }

        // Field-ID consumers.
        jvm::FieldInfo *F = Ctx.call().fieldArg();
        if (!F) {
          if (Ctx.call().fieldArgWord())
            fail(Ctx, Spec, "The field ID is not a valid jfieldID");
          return;
        }
        if (!Traits.IsFieldGet && !Traits.IsFieldSet)
          return; // ToReflectedField: validity only
        if (F->IsStatic != Traits.IsStaticFieldOp) {
          failWith(Ctx, Spec, [&] {
            return formatString(
                "%s %s static but the accessor is for %s fields",
                F->qualifiedName().c_str(), F->IsStatic ? "is" : "is not",
                Traits.IsStaticFieldOp ? "static" : "instance");
          });
          return;
        }
        if (F->Type.Kind != Traits.FieldKind) {
          failWith(Ctx, Spec, [&] {
            return formatString("%s has type %s but was accessed as %s",
                                F->qualifiedName().c_str(),
                                jvm::typeName(F->Type.Kind),
                                jvm::typeName(Traits.FieldKind));
          });
          return;
        }
        uint64_t Recv = Ctx.call().refWord(0);
        jvm::Vm::PeekResult Peek = peekRef(Ctx, Recv);
        if (Peek.S == jvm::Vm::PeekResult::Status::Live) {
          if (!Traits.IsStaticFieldOp) {
            jvm::Klass *Have = Ctx.vm().klassOf(Peek.Target);
            if (Have && !Have->isSubclassOf(F->Owner)) {
              fail(Ctx, Spec, "the receiver is not an instance of %s",
                   F->Owner->name().c_str());
              return;
            }
          } else if (jvm::Klass *Kl = Ctx.vm().klassFromMirror(Peek.Target)) {
            if (!Kl->isSubclassOf(F->Owner)) {
              fail(Ctx, Spec, "class %s does not have the field %s",
                   Kl->name().c_str(), F->Name.c_str());
              return;
            }
          }
        }
        // Object-field assignment conformance.
        if (Traits.IsFieldSet && Traits.FieldKind == JType::Object) {
          uint64_t Val = Ctx.call().refWord(2);
          if (!conformsTo(Ctx, Val, F->Type))
            failWith(Ctx, Spec, [&] {
              return formatString("the assigned value does not conform to "
                                  "the field type %s",
                                  F->Type.toDescriptor().c_str());
            });
        }
      }));
}
