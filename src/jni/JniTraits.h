//===- jni/JniTraits.h - Per-function JNI constraint traits --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function trait table driving every checker. The paper extracted
/// fixed typing constraints "by scanning the JNI header file for C
/// parameters with well-defined corresponding Java types" and determined
/// nullness constraints experimentally (§5.2); this reproduction derives the
/// same information from the static C++ parameter types in
/// JniFunctions.def plus name-driven rules, once, into one table. The
/// Table 2 census (bench_table2_constraints) is computed from this table.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JNI_JNITRAITS_H
#define JINN_JNI_JNITRAITS_H

#include "jni/JniFunctionId.h"
#include "jvm/Descriptor.h"

#include <array>
#include <cstdint>

namespace jinn::jni {

/// Coarse classification of one parameter (derived from its C++ type).
enum class ArgClass : uint8_t {
  Scalar,      ///< jint, jsize, jboolean, jdouble, enum, ...
  Ref,         ///< any _jobject-derived pointer
  MethodId,    ///< jmethodID
  FieldId,     ///< jfieldID
  CString,     ///< const char *
  JvalueArray, ///< const jvalue *
  VaList,      ///< va_list
  OutPtr,      ///< other pointers (jboolean *isCopy, buffers, JavaVM **)
};

/// Number of ArgClass values (the size of FnTraits::First).
inline constexpr size_t NumArgClasses = 8;

/// The Java type a reference parameter is statically constrained to by the
/// JNI signature itself ("fixed typing", paper §5.2).
enum class RefConstraint : uint8_t {
  None, ///< plain jobject: unconstrained
  Class,
  String,
  Throwable,
  AnyArray,
  BooleanArray,
  ByteArray,
  CharArray,
  ShortArray,
  IntArray,
  LongArray,
  FloatArray,
  DoubleArray,
  ObjectArray,
};

/// Internal class name (or array descriptor) for \p C; nullptr for None.
const char *refConstraintClassName(RefConstraint C);

/// One parameter's traits.
struct ParamTraits {
  ArgClass Cls = ArgClass::Scalar;
  RefConstraint Constraint = RefConstraint::None;
  bool NonNull = false; ///< null here is a constraint violation
};

/// Role in the resource state machines (paper Figure 8).
enum class ResourceRole : uint8_t {
  None,
  PinAcquire,    ///< Get<T>ArrayElements, GetString(UTF)Chars, criticals
  PinRelease,
  GlobalAcquire, ///< NewGlobalRef
  GlobalRelease,
  WeakAcquire,
  WeakRelease,
  LocalAcquire,  ///< NewLocalRef
  LocalDelete,   ///< DeleteLocalRef
  PushFrame,
  PopFrame,
  EnsureCapacity,
  MonitorEnter,
  MonitorExit,
  ExceptionClearFn,
};

/// Call family kind for Call*/NewObject functions.
enum class CallKind : uint8_t { NotACall, Virtual, Nonvirtual, Static, Ctor };

/// Which argument-passing form a call-family function uses.
enum class CallForm : uint8_t { NotACall, Variadic, VaListForm, ArrayForm };

/// Which critical/pin resource family a pin function manipulates.
enum class PinFamily : uint8_t {
  None,
  ArrayElements,
  StringChars,
  StringUtfChars,
  CriticalArray,
  CriticalString,
};

/// The complete trait record of one JNI function.
struct FnTraits {
  FnId Id = FnId::Count;
  uint8_t NumParams = 0; ///< excluding the JNIEnv parameter
  std::array<ParamTraits, MaxJniParams> Params;

  bool ExceptionOblivious = false; ///< callable with an exception pending
  bool CriticalAllowed = false;    ///< callable inside a critical section
  bool ReturnsRef = false;         ///< returns a (new local) reference
  RefConstraint ReturnConstraint = RefConstraint::None;

  ResourceRole Resource = ResourceRole::None;
  PinFamily Pin = PinFamily::None;

  CallKind Call = CallKind::NotACall;
  CallForm Form = CallForm::NotACall;
  jvm::JType CallRet = jvm::JType::Void; ///< call family return kind

  bool IsFieldGet = false;
  bool IsFieldSet = false;  ///< one of the 18 access-control sites
  bool IsStaticFieldOp = false;
  jvm::JType FieldKind = jvm::JType::Void;

  bool ProducesMethodId = false; ///< GetMethodID / GetStaticMethodID / From*
  bool ProducesFieldId = false;

  /// Parameter facts that Params already fixes, derived from it once per
  /// process by allFnTraits() so a crossing reads them instead of
  /// re-scanning Params. Bit I of a mask stands for parameter I.
  uint8_t RefMask = 0;       ///< Ref parameters
  uint8_t NonNullMask = 0;   ///< NonNull Ref, CString, MethodId, FieldId
  uint8_t FixedTypeMask = 0; ///< Ref parameters with a RefConstraint
  /// First[C]: index of the first parameter of ArgClass C, or -1.
  std::array<int8_t, NumArgClasses> First = {-1, -1, -1, -1,
                                             -1, -1, -1, -1};

  /// Index of the first parameter of class \p Cls, or -1.
  int firstParam(ArgClass Cls) const {
    return First[static_cast<size_t>(Cls)];
  }
  /// True if any parameter has class \p Cls.
  bool hasParam(ArgClass Cls) const { return firstParam(Cls) >= 0; }
  /// Number of parameters with class \p Cls.
  int countParams(ArgClass Cls) const;
};

/// Traits of function \p Id.
const FnTraits &fnTraits(FnId Id);

/// Whether a null \p Cls argument is detectable at the boundary: the
/// parameter classes NonNullMask may name.
constexpr bool isNullCheckable(ArgClass Cls) {
  return Cls == ArgClass::Ref || Cls == ArgClass::CString ||
         Cls == ArgClass::MethodId || Cls == ArgClass::FieldId;
}

/// The whole table (for census walks).
const std::array<FnTraits, NumJniFunctions> &allFnTraits();

} // namespace jinn::jni

#endif // JINN_JNI_JNITRAITS_H
