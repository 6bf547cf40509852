//===- jni/JniEnvCalls.cpp - Default impls: call families, field access --===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 93 call-family functions and 36 field accessors, expanded per type
/// from one type list at the bottom of this file. The bodies are small
/// templates over the shared cores in JniEnvMembers.cpp.
///
/// The variadic forms delegate to the V forms, which decode against the
/// method signature and delegate to the A forms *through the active function
/// table*, so interposed checks run exactly once per logical call (at the A
/// form), mirroring the paper's treatment of variadic functions (paper 7.2).
///
//===----------------------------------------------------------------------===//

#include "jni/EnvImplDetail.h"

#include <type_traits>

using namespace jinn;
using namespace jinn::jni;
using jinn::jvm::Value;

namespace {

/// Converts a VM value to the JNI type \p T: a new local reference for
/// objects, nothing for void.
template <typename T> T fromValue(JNIEnv *Env, const Value &V) {
  if constexpr (std::is_same_v<T, jobject>)
    return localRef(Env, V.Obj);
  else if constexpr (std::is_same_v<T, jboolean>)
    return static_cast<jboolean>(V.I != 0);
  else if constexpr (std::is_floating_point_v<T>)
    return static_cast<T>(V.D);
  else if constexpr (!std::is_void_v<T>)
    return static_cast<T>(V.I);
}

/// Converts a JNI argument to a VM value (dereferencing objects).
template <typename T> Value toValue(JNIEnv *Env, T Val) {
  if constexpr (std::is_same_v<T, jobject>)
    return Value::makeRef(rtOf(Env).deref(Env, Val));
  else if constexpr (std::is_same_v<T, jboolean>)
    return Value::makeBoolean(Val != 0);
  else if constexpr (std::is_same_v<T, jbyte>)
    return Value::makeByte(Val);
  else if constexpr (std::is_same_v<T, jchar>)
    return Value::makeChar(Val);
  else if constexpr (std::is_same_v<T, jshort>)
    return Value::makeShort(Val);
  else if constexpr (std::is_same_v<T, jint>)
    return Value::makeInt(Val);
  else if constexpr (std::is_same_v<T, jlong>)
    return Value::makeLong(Val);
  else if constexpr (std::is_same_v<T, jfloat>)
    return Value::makeFloat(Val);
  else
    return Value::makeDouble(Val);
}

/// The checked core of an A form: the production prologue, then the call.
template <typename T>
T callA(JNIEnv *Env, FnId Id, CallKind Kind, jobject Obj, jclass Cls,
        jmethodID MethodId, const jvalue *Args) {
  EnvGuard G(Env, Id);
  if (!G.ok())
    return T();
  return fromValue<T>(Env,
                      callMethodCommon(Env, Kind, Obj, Cls, MethodId, Args));
}

/// A V form: validates the method id, decodes the va_list against its
/// signature, and re-enters the active table's A slot \p SlotA.
template <typename T, auto SlotA, typename... Recv>
T callV(JNIEnv *Env, jmethodID MethodId, va_list Args, Recv... R) {
  jvm::MethodInfo *M = methodOf(Env, MethodId);
  if (!M)
    return T();
  std::vector<jvalue> Decoded = decodeVaList(M->Sig, Args);
  return (Env->functions->*SlotA)(Env, R..., MethodId, Decoded.data());
}

/// What a variadic form holds across va_end when its V form returns void.
struct NoValue {};

/// Enters the active table's V slot \p SlotV for a variadic form.
template <auto SlotV, typename... Recv>
auto enterV(JNIEnv *Env, jmethodID MethodId, va_list Args, Recv... R) {
  if constexpr (std::is_void_v<decltype((Env->functions->*SlotV)(
                    Env, R..., MethodId, Args))>) {
    (Env->functions->*SlotV)(Env, R..., MethodId, Args);
    return NoValue{};
  } else {
    return (Env->functions->*SlotV)(Env, R..., MethodId, Args);
  }
}

} // namespace

#define UNPAREN(...) __VA_ARGS__

/// The A, V and variadic forms of one call-family member. \p Recv is the
/// parenthesised receiver parameter list, \p CoreObj and \p CoreCls what
/// callMethodCommon receives, and the trailing arguments the receivers
/// forwarded through the table.
#define DEF_CALL(Name, CType, Kind, Recv, CoreObj, CoreCls, ...)              \
  CType jinn::jni::impl_##Name##A(JNIEnv *Env, UNPAREN Recv,                  \
                                  jmethodID MethodId, const jvalue *Args) {   \
    return callA<CType>(Env, FnId::Name##A, CallKind::Kind, CoreObj, CoreCls, \
                        MethodId, Args);                                      \
  }                                                                           \
  CType jinn::jni::impl_##Name##V(JNIEnv *Env, UNPAREN Recv,                  \
                                  jmethodID MethodId, va_list Args) {         \
    return callV<CType, &JNINativeInterface_::Name##A>(Env, MethodId, Args,   \
                                                       __VA_ARGS__);          \
  }                                                                           \
  CType jinn::jni::impl_##Name(JNIEnv *Env, UNPAREN Recv, jmethodID MethodId, \
                               ...) {                                         \
    va_list Ap;                                                               \
    va_start(Ap, MethodId);                                                   \
    auto Ret = enterV<&JNINativeInterface_::Name##V>(Env, MethodId, Ap,       \
                                                     __VA_ARGS__);            \
    va_end(Ap);                                                               \
    return static_cast<CType>(Ret);                                           \
  }

#define DEF_CALLS(TName, CType)                                               \
  DEF_CALL(Call##TName##Method, CType, Virtual, (jobject Obj), Obj, nullptr,  \
           Obj)                                                               \
  DEF_CALL(CallNonvirtual##TName##Method, CType, Nonvirtual,                  \
           (jobject Obj, jclass Cls), Obj, Cls, Obj, Cls)                     \
  DEF_CALL(CallStatic##TName##Method, CType, Static, (jclass Cls), nullptr,   \
           Cls, Cls)

/// The four field accessors of one type. A setter converts (and, for
/// objects, dereferences) its value before setFieldCommon's guard runs.
#define DEF_FIELDS(TName, CType)                                              \
  CType jinn::jni::impl_Get##TName##Field(JNIEnv *Env, jobject Obj,           \
                                          jfieldID FieldId) {                 \
    return fromValue<CType>(                                                  \
        Env, getFieldCommon(Env, FnId::Get##TName##Field, Obj, FieldId,       \
                            /*Static=*/false));                               \
  }                                                                           \
  void jinn::jni::impl_Set##TName##Field(JNIEnv *Env, jobject Obj,            \
                                         jfieldID FieldId, CType Val) {       \
    setFieldCommon(Env, FnId::Set##TName##Field, Obj, FieldId,                \
                   /*Static=*/false, toValue(Env, Val));                      \
  }                                                                           \
  CType jinn::jni::impl_GetStatic##TName##Field(JNIEnv *Env, jclass Cls,      \
                                                jfieldID FieldId) {           \
    return fromValue<CType>(                                                  \
        Env, getFieldCommon(Env, FnId::GetStatic##TName##Field, Cls, FieldId, \
                            /*Static=*/true));                                \
  }                                                                           \
  void jinn::jni::impl_SetStatic##TName##Field(JNIEnv *Env, jclass Cls,       \
                                               jfieldID FieldId, CType Val) { \
    setFieldCommon(Env, FnId::SetStatic##TName##Field, Cls, FieldId,          \
                   /*Static=*/true, toValue(Env, Val));                       \
  }

#define DEF_TYPE(TName, CType) DEF_CALLS(TName, CType) DEF_FIELDS(TName, CType)

// The JNI value types, then void (calls only) and the constructor family.
DEF_TYPE(Object, jobject)
DEF_TYPE(Boolean, jboolean)
DEF_TYPE(Byte, jbyte)
DEF_TYPE(Char, jchar)
DEF_TYPE(Short, jshort)
DEF_TYPE(Int, jint)
DEF_TYPE(Long, jlong)
DEF_TYPE(Float, jfloat)
DEF_TYPE(Double, jdouble)
DEF_CALLS(Void, void)
DEF_CALL(NewObject, jobject, Ctor, (jclass Cls), nullptr, Cls, Cls)

#undef DEF_TYPE
#undef DEF_FIELDS
#undef DEF_CALLS
#undef DEF_CALL
#undef UNPAREN
