//===- tests/jni_traits_test.cpp - Trait-table invariants ----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trait table is the "scanned header" driving all checkers and the
/// Table 2 census; these tests pin down its structural invariants.
///
//===----------------------------------------------------------------------===//

#include "jni/JniTraits.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

using namespace jinn;
using namespace jinn::jni;

namespace {

size_t countIf(bool (*Pred)(const FnTraits &)) {
  size_t N = 0;
  for (const FnTraits &T : allFnTraits())
    if (Pred(T))
      ++N;
  return N;
}

TEST(JniTraits, RegistryHasExactly229Functions) {
  EXPECT_EQ(NumJniFunctions, 229u);
  EXPECT_EQ(allFnTraits().size(), 229u);
}

TEST(JniTraits, FnIdNameRoundTrip) {
  for (size_t I = 0; I < NumJniFunctions; ++I) {
    FnId Id = static_cast<FnId>(I);
    EXPECT_EQ(fnIdByName(fnName(Id)), Id);
  }
  EXPECT_EQ(fnIdByName("NoSuchFunction"), FnId::Count);
}

TEST(JniTraits, ExactlyTwentyExceptionObliviousFunctions) {
  EXPECT_EQ(countIf([](const FnTraits &T) { return T.ExceptionOblivious; }),
            20u);
}

TEST(JniTraits, ExactlyFourCriticalAllowedFunctions) {
  EXPECT_EQ(countIf([](const FnTraits &T) { return T.CriticalAllowed; }),
            4u);
}

TEST(JniTraits, ExactlyEighteenFieldWriters) {
  EXPECT_EQ(countIf([](const FnTraits &T) { return T.IsFieldSet; }), 18u);
}

TEST(JniTraits, ExactlyTwelvePinAcquireSites) {
  EXPECT_EQ(countIf([](const FnTraits &T) {
              return T.Resource == ResourceRole::PinAcquire;
            }),
            12u);
  EXPECT_EQ(countIf([](const FnTraits &T) {
              return T.Resource == ResourceRole::PinRelease;
            }),
            12u);
}

TEST(JniTraits, CallFamilyCounts) {
  size_t Virtual = 0, Nonvirtual = 0, Static = 0, Ctor = 0;
  for (const FnTraits &T : allFnTraits()) {
    Virtual += T.Call == CallKind::Virtual;
    Nonvirtual += T.Call == CallKind::Nonvirtual;
    Static += T.Call == CallKind::Static;
    Ctor += T.Call == CallKind::Ctor;
  }
  EXPECT_EQ(Virtual, 30u);
  EXPECT_EQ(Nonvirtual, 30u);
  EXPECT_EQ(Static, 30u);
  EXPECT_EQ(Ctor, 3u);
}

TEST(JniTraits, EntityConsumersNumber131) {
  EXPECT_EQ(countIf([](const FnTraits &T) {
              return (T.hasParam(ArgClass::MethodId) ||
                      T.hasParam(ArgClass::FieldId)) &&
                     !T.ProducesMethodId && !T.ProducesFieldId;
            }),
            131u); // exactly the paper's Table 2 count
}

TEST(JniTraits, SpotCheckSignatures) {
  const FnTraits &Find = fnTraits(FnId::FindClass);
  EXPECT_EQ(Find.NumParams, 1);
  EXPECT_EQ(Find.Params[0].Cls, ArgClass::CString);
  EXPECT_TRUE(Find.ReturnsRef);
  EXPECT_EQ(Find.ReturnConstraint, RefConstraint::Class);

  const FnTraits &CallA = fnTraits(FnId::CallStaticVoidMethodA);
  EXPECT_EQ(CallA.NumParams, 3);
  EXPECT_EQ(CallA.Params[0].Constraint, RefConstraint::Class);
  EXPECT_EQ(CallA.Params[1].Cls, ArgClass::MethodId);
  EXPECT_EQ(CallA.Params[2].Cls, ArgClass::JvalueArray);
  EXPECT_EQ(CallA.Call, CallKind::Static);
  EXPECT_EQ(CallA.CallRet, jvm::JType::Void);
  EXPECT_EQ(CallA.Form, CallForm::ArrayForm);

  const FnTraits &CallVar = fnTraits(FnId::CallIntMethod);
  EXPECT_EQ(CallVar.Form, CallForm::Variadic);
  EXPECT_EQ(CallVar.CallRet, jvm::JType::Int);
  EXPECT_EQ(fnTraits(FnId::CallIntMethodV).Form, CallForm::VaListForm);

  const FnTraits &SetD = fnTraits(FnId::SetDoubleField);
  EXPECT_TRUE(SetD.IsFieldSet);
  EXPECT_FALSE(SetD.IsStaticFieldOp);
  EXPECT_EQ(SetD.FieldKind, jvm::JType::Double);
  EXPECT_TRUE(fnTraits(FnId::SetStaticDoubleField).IsStaticFieldOp);

  EXPECT_EQ(fnTraits(FnId::GetIntArrayElements).Pin,
            PinFamily::ArrayElements);
  EXPECT_EQ(fnTraits(FnId::GetStringCritical).Pin,
            PinFamily::CriticalString);
  EXPECT_EQ(fnTraits(FnId::NewGlobalRef).Resource,
            ResourceRole::GlobalAcquire);
  EXPECT_EQ(fnTraits(FnId::MonitorEnter).Resource,
            ResourceRole::MonitorEnter);
  EXPECT_EQ(fnTraits(FnId::ExceptionClear).Resource,
            ResourceRole::ExceptionClearFn);
}

TEST(JniTraits, FixedTypeConstraintsFromStaticTypes) {
  EXPECT_EQ(fnTraits(FnId::Throw).Params[0].Constraint,
            RefConstraint::Throwable);
  EXPECT_EQ(fnTraits(FnId::GetStringLength).Params[0].Constraint,
            RefConstraint::String);
  EXPECT_EQ(fnTraits(FnId::GetIntArrayElements).Params[0].Constraint,
            RefConstraint::IntArray);
  EXPECT_EQ(fnTraits(FnId::GetArrayLength).Params[0].Constraint,
            RefConstraint::AnyArray);
  EXPECT_EQ(fnTraits(FnId::GetObjectArrayElement).Params[0].Constraint,
            RefConstraint::ObjectArray);
  // Plain jobject parameters carry no fixed constraint.
  EXPECT_EQ(fnTraits(FnId::GetObjectClass).Params[0].Constraint,
            RefConstraint::None);
}

TEST(JniTraits, NullabilityRefinements) {
  EXPECT_FALSE(fnTraits(FnId::IsSameObject).Params[0].NonNull);
  EXPECT_FALSE(fnTraits(FnId::IsSameObject).Params[1].NonNull);
  EXPECT_FALSE(fnTraits(FnId::NewGlobalRef).Params[0].NonNull);
  EXPECT_FALSE(fnTraits(FnId::SetObjectField).Params[2].NonNull);
  EXPECT_FALSE(fnTraits(FnId::NewObjectArray).Params[2].NonNull);
  EXPECT_TRUE(fnTraits(FnId::Throw).Params[0].NonNull);
  EXPECT_TRUE(fnTraits(FnId::GetStringUTFChars).Params[0].NonNull);
  EXPECT_TRUE(fnTraits(FnId::FindClass).Params[0].NonNull);
}

TEST(JniTraits, ProducersAreMarked) {
  for (FnId Id : {FnId::GetMethodID, FnId::GetStaticMethodID,
                  FnId::FromReflectedMethod})
    EXPECT_TRUE(fnTraits(Id).ProducesMethodId) << fnName(Id);
  for (FnId Id : {FnId::GetFieldID, FnId::GetStaticFieldID,
                  FnId::FromReflectedField})
    EXPECT_TRUE(fnTraits(Id).ProducesFieldId) << fnName(Id);
  EXPECT_FALSE(fnTraits(FnId::CallIntMethodA).ProducesMethodId);
}

TEST(JniTraits, EveryFunctionHasAtMostFiveParams) {
  for (const FnTraits &T : allFnTraits())
    EXPECT_LE(T.NumParams, 5) << fnName(T.Id);
}

// The parameter facts allFnTraits() derives once must equal a fresh
// recomputation from Params, for every function: the masks and First[] are
// a cache of Params, never a second source.
TEST(JniTraits, DerivedParameterFactsMatchParams) {
  for (const FnTraits &T : allFnTraits()) {
    uint8_t Ref = 0, NonNull = 0, Fixed = 0;
    std::array<int, NumArgClasses> First;
    First.fill(-1);
    for (int I = 0; I < T.NumParams; ++I) {
      const ParamTraits &P = T.Params[I];
      if (First[static_cast<size_t>(P.Cls)] < 0)
        First[static_cast<size_t>(P.Cls)] = I;
      bool IsRef = P.Cls == ArgClass::Ref;
      bool Checkable = IsRef || P.Cls == ArgClass::CString ||
                       P.Cls == ArgClass::MethodId ||
                       P.Cls == ArgClass::FieldId;
      Ref |= IsRef << I;
      NonNull |= (P.NonNull && Checkable) << I;
      Fixed |= (IsRef && P.Constraint != RefConstraint::None) << I;
    }
    EXPECT_EQ(T.RefMask, Ref) << fnName(T.Id);
    EXPECT_EQ(T.NonNullMask, NonNull) << fnName(T.Id);
    EXPECT_EQ(T.FixedTypeMask, Fixed) << fnName(T.Id);
    for (size_t C = 0; C < NumArgClasses; ++C)
      EXPECT_EQ(T.firstParam(static_cast<ArgClass>(C)), First[C])
          << fnName(T.Id) << " class " << C;
  }
  // Spot checks against the signatures themselves.
  const FnTraits &GetMethod = fnTraits(FnId::GetMethodID);
  EXPECT_EQ(GetMethod.NonNullMask, 0b111);
  EXPECT_EQ(GetMethod.FixedTypeMask, 0b001);
  const FnTraits &SetElem = fnTraits(FnId::SetObjectArrayElement);
  EXPECT_EQ(SetElem.RefMask, 0b101);
  EXPECT_EQ(SetElem.NonNullMask, 0b001); // storing null is legal
  EXPECT_EQ(fnTraits(FnId::IsSameObject).NonNullMask, 0);
  EXPECT_EQ(fnTraits(FnId::GetVersion).RefMask, 0);
  EXPECT_EQ(fnTraits(FnId::CallIntMethodA).firstParam(ArgClass::JvalueArray),
            2);
}

TEST(JniTraits, ObliviousFunctionsAreExactlyThePaperSet) {
  // 4 exception queries + 12 release functions + 3 deletes + MonitorExit.
  for (const char *Name :
       {"ExceptionOccurred", "ExceptionDescribe", "ExceptionClear",
        "ExceptionCheck", "ReleaseStringChars", "ReleaseStringUTFChars",
        "ReleaseStringCritical", "ReleasePrimitiveArrayCritical",
        "DeleteLocalRef", "DeleteGlobalRef", "DeleteWeakGlobalRef",
        "MonitorExit", "ReleaseIntArrayElements",
        "ReleaseDoubleArrayElements"})
    EXPECT_TRUE(fnTraits(fnIdByName(Name)).ExceptionOblivious) << Name;
  for (const char *Name : {"FindClass", "GetMethodID", "MonitorEnter",
                           "GetStringChars", "NewGlobalRef"})
    EXPECT_FALSE(fnTraits(fnIdByName(Name)).ExceptionOblivious) << Name;
}

} // namespace
