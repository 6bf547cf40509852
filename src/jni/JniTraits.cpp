//===- jni/JniTraits.cpp - Per-function JNI constraint traits ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jni/JniTraits.h"

// std::decay_t<va_list> drops GCC's array attributes; harmless here.
#pragma GCC diagnostic ignored "-Wignored-attributes"
#pragma GCC diagnostic ignored "-Wattributes"

#include "jni/JniEnv.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

using namespace jinn;
using namespace jinn::jni;
using jinn::jvm::JType;

const char *jinn::jni::refConstraintClassName(RefConstraint C) {
  switch (C) {
  case RefConstraint::None:
    return nullptr;
  case RefConstraint::Class:
    return "java/lang/Class";
  case RefConstraint::String:
    return "java/lang/String";
  case RefConstraint::Throwable:
    return "java/lang/Throwable";
  case RefConstraint::AnyArray:
    return "[*";
  case RefConstraint::BooleanArray:
    return "[Z";
  case RefConstraint::ByteArray:
    return "[B";
  case RefConstraint::CharArray:
    return "[C";
  case RefConstraint::ShortArray:
    return "[S";
  case RefConstraint::IntArray:
    return "[I";
  case RefConstraint::LongArray:
    return "[J";
  case RefConstraint::FloatArray:
    return "[F";
  case RefConstraint::DoubleArray:
    return "[D";
  case RefConstraint::ObjectArray:
    return "[Ljava/lang/Object;";
  }
  JINN_UNREACHABLE("invalid RefConstraint");
}

int FnTraits::firstParam(ArgClass Cls) const {
  for (int I = 0; I < NumParams; ++I)
    if (Params[I].Cls == Cls)
      return I;
  return -1;
}

int FnTraits::countParams(ArgClass Cls) const {
  int N = 0;
  for (int I = 0; I < NumParams; ++I)
    if (Params[I].Cls == Cls)
      ++N;
  return N;
}

namespace {

//===----------------------------------------------------------------------===
// Static classification of C++ parameter types (the "header scan")
//===----------------------------------------------------------------------===

template <typename T> constexpr ParamTraits classifyArg() {
  ParamTraits Out;
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, jmethodID>) {
    Out.Cls = ArgClass::MethodId;
    Out.NonNull = true;
  } else if constexpr (std::is_same_v<U, jfieldID>) {
    Out.Cls = ArgClass::FieldId;
    Out.NonNull = true;
  } else if constexpr (std::is_same_v<U, const char *>) {
    Out.Cls = ArgClass::CString;
    Out.NonNull = true;
  } else if constexpr (std::is_same_v<U, const jvalue *>) {
    Out.Cls = ArgClass::JvalueArray;
  } else if constexpr (std::is_same_v<U, std::decay_t<va_list>>) {
    Out.Cls = ArgClass::VaList;
  } else if constexpr (std::is_pointer_v<U> &&
                       std::is_base_of_v<_jobject,
                                         std::remove_pointer_t<U>>) {
    Out.Cls = ArgClass::Ref;
    Out.NonNull = true; // refined by name rules below
    using P = std::remove_pointer_t<U>;
    if constexpr (std::is_same_v<P, _jclass>)
      Out.Constraint = RefConstraint::Class;
    else if constexpr (std::is_same_v<P, _jstring>)
      Out.Constraint = RefConstraint::String;
    else if constexpr (std::is_same_v<P, _jthrowable>)
      Out.Constraint = RefConstraint::Throwable;
    else if constexpr (std::is_same_v<P, _jbooleanArray>)
      Out.Constraint = RefConstraint::BooleanArray;
    else if constexpr (std::is_same_v<P, _jbyteArray>)
      Out.Constraint = RefConstraint::ByteArray;
    else if constexpr (std::is_same_v<P, _jcharArray>)
      Out.Constraint = RefConstraint::CharArray;
    else if constexpr (std::is_same_v<P, _jshortArray>)
      Out.Constraint = RefConstraint::ShortArray;
    else if constexpr (std::is_same_v<P, _jintArray>)
      Out.Constraint = RefConstraint::IntArray;
    else if constexpr (std::is_same_v<P, _jlongArray>)
      Out.Constraint = RefConstraint::LongArray;
    else if constexpr (std::is_same_v<P, _jfloatArray>)
      Out.Constraint = RefConstraint::FloatArray;
    else if constexpr (std::is_same_v<P, _jdoubleArray>)
      Out.Constraint = RefConstraint::DoubleArray;
    else if constexpr (std::is_same_v<P, _jobjectArray>)
      Out.Constraint = RefConstraint::ObjectArray;
    else if constexpr (std::is_same_v<P, _jarray>)
      Out.Constraint = RefConstraint::AnyArray;
  } else if constexpr (std::is_pointer_v<U>) {
    Out.Cls = ArgClass::OutPtr;
  } else {
    Out.Cls = ArgClass::Scalar;
  }
  return Out;
}

template <typename T> constexpr bool classifyReturnIsRef() {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_pointer_v<U>)
    return std::is_base_of_v<_jobject, std::remove_pointer_t<U>>;
  else
    return false;
}

template <typename T> constexpr RefConstraint classifyReturnConstraint() {
  if constexpr (classifyReturnIsRef<T>())
    return classifyArg<T>().Constraint;
  else
    return RefConstraint::None;
}

/// Extracts parameter traits from a function pointer type.
template <typename F> struct SigExtract;

template <typename R, typename... A> struct SigExtract<R (*)(JNIEnv *, A...)> {
  static constexpr size_t Arity = sizeof...(A);
  static void apply(FnTraits &T) {
    T.NumParams = sizeof...(A);
    size_t I = 0;
    ((T.Params[I++] = classifyArg<A>()), ...);
    T.ReturnsRef = classifyReturnIsRef<R>();
    T.ReturnConstraint = classifyReturnConstraint<R>();
  }
};

// Variadic ('...') forms: the trailing varargs do not appear as parameters.
template <typename R, typename... A>
struct SigExtract<R (*)(JNIEnv *, A..., ...)> {
  static constexpr size_t Arity = sizeof...(A);
  static void apply(FnTraits &T) {
    T.NumParams = sizeof...(A);
    size_t I = 0;
    ((T.Params[I++] = classifyArg<A>()), ...);
    T.ReturnsRef = classifyReturnIsRef<R>();
    T.ReturnConstraint = classifyReturnConstraint<R>();
  }
};

//===----------------------------------------------------------------------===
// Name-driven refinement
//===----------------------------------------------------------------------===

bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

JType jtypeFromWord(std::string_view Word) {
  if (Word == "Object")
    return JType::Object;
  if (Word == "Boolean")
    return JType::Boolean;
  if (Word == "Byte")
    return JType::Byte;
  if (Word == "Char")
    return JType::Char;
  if (Word == "Short")
    return JType::Short;
  if (Word == "Int")
    return JType::Int;
  if (Word == "Long")
    return JType::Long;
  if (Word == "Float")
    return JType::Float;
  if (Word == "Double")
    return JType::Double;
  return JType::Void;
}

/// Parses "Call[Static|Nonvirtual]<T>Method[V|A]".
bool parseCallName(std::string_view Name, CallKind &Kind, JType &Ret,
                   CallForm &Form) {
  if (startsWith(Name, "NewObject")) {
    std::string_view Rest = Name.substr(strlen("NewObject"));
    if (!Rest.empty() && Rest != "V" && Rest != "A")
      return false; // NewObjectArray and friends
    Kind = CallKind::Ctor;
    Ret = JType::Object;
    Form = Rest == "V"   ? CallForm::VaListForm
           : Rest == "A" ? CallForm::ArrayForm
                         : CallForm::Variadic;
    return true;
  }
  if (!startsWith(Name, "Call"))
    return false;
  std::string_view Rest = Name.substr(4);
  Kind = CallKind::Virtual;
  if (startsWith(Rest, "Static")) {
    Kind = CallKind::Static;
    Rest = Rest.substr(6);
  } else if (startsWith(Rest, "Nonvirtual")) {
    Kind = CallKind::Nonvirtual;
    Rest = Rest.substr(10);
  }
  size_t MethodPos = Rest.find("Method");
  if (MethodPos == std::string_view::npos)
    return false;
  Ret = jtypeFromWord(Rest.substr(0, MethodPos));
  if (Ret == JType::Void && Rest.substr(0, MethodPos) != "Void")
    return false;
  std::string_view Tail = Rest.substr(MethodPos + 6);
  Form = Tail == "V"   ? CallForm::VaListForm
         : Tail == "A" ? CallForm::ArrayForm
         : Tail.empty() ? CallForm::Variadic
                        : CallForm::NotACall;
  return Form != CallForm::NotACall;
}

/// Parses "[Get|Set][Static]<T>Field".
bool parseFieldOpName(std::string_view Name, bool &IsSet, bool &IsStatic,
                      JType &Kind) {
  bool Get = startsWith(Name, "Get");
  bool Set = startsWith(Name, "Set");
  if (!Get && !Set)
    return false;
  std::string_view Rest = Name.substr(3);
  IsStatic = startsWith(Rest, "Static");
  if (IsStatic)
    Rest = Rest.substr(6);
  if (!endsWith(Rest, "Field"))
    return false;
  Kind = jtypeFromWord(Rest.substr(0, Rest.size() - 5));
  if (Kind == JType::Void)
    return false;
  IsSet = Set;
  return true;
}

void applyNameRules(FnTraits &T, std::string_view Name) {
  // Call families.
  CallKind CK;
  JType CRet;
  CallForm CF;
  if (parseCallName(Name, CK, CRet, CF)) {
    T.Call = CK;
    T.CallRet = CRet;
    T.Form = CF;
  }

  // Field operations.
  bool IsSet = false, IsStatic = false;
  JType FK;
  if (parseFieldOpName(Name, IsSet, IsStatic, FK)) {
    T.IsFieldGet = !IsSet;
    T.IsFieldSet = IsSet;
    T.IsStaticFieldOp = IsStatic;
    T.FieldKind = FK;
  }

  // ID producers.
  if (Name == "GetMethodID" || Name == "GetStaticMethodID" ||
      Name == "FromReflectedMethod")
    T.ProducesMethodId = true;
  if (Name == "GetFieldID" || Name == "GetStaticFieldID" ||
      Name == "FromReflectedField")
    T.ProducesFieldId = true;

  // Exception-oblivious set: exactly the 20 clean-up/query functions the
  // paper's exception state machine allows with an exception pending.
  static const char *const Oblivious[] = {
      "ExceptionOccurred",       "ExceptionDescribe",
      "ExceptionClear",          "ExceptionCheck",
      "ReleaseStringChars",      "ReleaseStringUTFChars",
      "ReleaseStringCritical",   "ReleaseBooleanArrayElements",
      "ReleaseByteArrayElements", "ReleaseCharArrayElements",
      "ReleaseShortArrayElements", "ReleaseIntArrayElements",
      "ReleaseLongArrayElements", "ReleaseFloatArrayElements",
      "ReleaseDoubleArrayElements", "ReleasePrimitiveArrayCritical",
      "DeleteLocalRef",          "DeleteGlobalRef",
      "DeleteWeakGlobalRef",     "MonitorExit",
  };
  for (const char *Ob : Oblivious)
    if (Name == Ob)
      T.ExceptionOblivious = true;

  // The four functions legal inside a critical section.
  if (Name == "GetStringCritical" || Name == "ReleaseStringCritical" ||
      Name == "GetPrimitiveArrayCritical" ||
      Name == "ReleasePrimitiveArrayCritical")
    T.CriticalAllowed = true;

  // Resource roles and pin families.
  if (startsWith(Name, "Get") && endsWith(Name, "ArrayElements")) {
    T.Resource = ResourceRole::PinAcquire;
    T.Pin = PinFamily::ArrayElements;
  } else if (startsWith(Name, "Release") && endsWith(Name, "ArrayElements")) {
    T.Resource = ResourceRole::PinRelease;
    T.Pin = PinFamily::ArrayElements;
  } else if (Name == "GetStringChars") {
    T.Resource = ResourceRole::PinAcquire;
    T.Pin = PinFamily::StringChars;
  } else if (Name == "ReleaseStringChars") {
    T.Resource = ResourceRole::PinRelease;
    T.Pin = PinFamily::StringChars;
  } else if (Name == "GetStringUTFChars") {
    T.Resource = ResourceRole::PinAcquire;
    T.Pin = PinFamily::StringUtfChars;
  } else if (Name == "ReleaseStringUTFChars") {
    T.Resource = ResourceRole::PinRelease;
    T.Pin = PinFamily::StringUtfChars;
  } else if (Name == "GetPrimitiveArrayCritical") {
    T.Resource = ResourceRole::PinAcquire;
    T.Pin = PinFamily::CriticalArray;
  } else if (Name == "ReleasePrimitiveArrayCritical") {
    T.Resource = ResourceRole::PinRelease;
    T.Pin = PinFamily::CriticalArray;
  } else if (Name == "GetStringCritical") {
    T.Resource = ResourceRole::PinAcquire;
    T.Pin = PinFamily::CriticalString;
  } else if (Name == "ReleaseStringCritical") {
    T.Resource = ResourceRole::PinRelease;
    T.Pin = PinFamily::CriticalString;
  } else if (Name == "NewGlobalRef") {
    T.Resource = ResourceRole::GlobalAcquire;
  } else if (Name == "DeleteGlobalRef") {
    T.Resource = ResourceRole::GlobalRelease;
  } else if (Name == "NewWeakGlobalRef") {
    T.Resource = ResourceRole::WeakAcquire;
  } else if (Name == "DeleteWeakGlobalRef") {
    T.Resource = ResourceRole::WeakRelease;
  } else if (Name == "NewLocalRef") {
    T.Resource = ResourceRole::LocalAcquire;
  } else if (Name == "DeleteLocalRef") {
    T.Resource = ResourceRole::LocalDelete;
  } else if (Name == "PushLocalFrame") {
    T.Resource = ResourceRole::PushFrame;
  } else if (Name == "PopLocalFrame") {
    T.Resource = ResourceRole::PopFrame;
  } else if (Name == "EnsureLocalCapacity") {
    T.Resource = ResourceRole::EnsureCapacity;
  } else if (Name == "MonitorEnter") {
    T.Resource = ResourceRole::MonitorEnter;
  } else if (Name == "MonitorExit") {
    T.Resource = ResourceRole::MonitorExit;
  } else if (Name == "ExceptionClear") {
    T.Resource = ResourceRole::ExceptionClearFn;
  }

  // Nullability refinements (the paper determined these experimentally;
  // these are the cases where JNI explicitly tolerates null).
  auto MarkNullable = [&T](int Index) {
    if (Index >= 0 && Index < T.NumParams)
      T.Params[Index].NonNull = false;
  };
  if (Name == "DefineClass")
    MarkNullable(1); // loader may be null (bootstrap loader)
  if (Name == "PopLocalFrame")
    MarkNullable(0); // result may be null
  if (Name == "IsSameObject") {
    MarkNullable(0);
    MarkNullable(1);
  }
  if (Name == "NewLocalRef" || Name == "NewGlobalRef" ||
      Name == "NewWeakGlobalRef")
    MarkNullable(0); // null in, null out is legal
  if (Name == "NewObjectArray")
    MarkNullable(2); // initialElement
  if (Name == "SetObjectArrayElement")
    MarkNullable(2); // storing null is legal
  if (Name == "SetObjectField" || Name == "SetStaticObjectField")
    MarkNullable(2); // assigning null is legal
  if (Name == "ExceptionDescribe" || Name == "GetObjectRefType")
    MarkNullable(0);
  if (Name == "GetObjectRefType")
    MarkNullable(0);
}

/// The registry's largest arity, which every fixed-capacity argument array
/// (FnTraits::Params, CapturedCall, TraceEvent::Args) must hold.
constexpr size_t LargestArity = std::max({
#define JNI_FN(Name, Ret, Params, Args) SigExtract<Ret(*) Params>::Arity,
#include "jni/JniFunctions.def"
#undef JNI_FN
});
static_assert(LargestArity <= MaxJniParams,
              "a registry function takes more parameters than MaxJniParams");

std::array<FnTraits, NumJniFunctions> buildTraits() {
  std::array<FnTraits, NumJniFunctions> Table;

  size_t Index = 0;
#define JNI_FN(Name, Ret, Params, Args)                                       \
  {                                                                           \
    FnTraits &T = Table[Index];                                               \
    T.Id = static_cast<FnId>(Index);                                          \
    SigExtract<Ret(*) Params>::apply(T);                                      \
    ++Index;                                                                  \
  }
#include "jni/JniFunctions.def"
#undef JNI_FN

  for (size_t I = 0; I < NumJniFunctions; ++I)
    applyNameRules(Table[I], fnName(static_cast<FnId>(I)));
  return Table;
}

} // namespace

const FnTraits &jinn::jni::fnTraits(FnId Id) {
  return allFnTraits()[static_cast<size_t>(Id)];
}

const std::array<FnTraits, NumJniFunctions> &jinn::jni::allFnTraits() {
  static const std::array<FnTraits, NumJniFunctions> Table = buildTraits();
  return Table;
}
