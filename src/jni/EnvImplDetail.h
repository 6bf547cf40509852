//===- jni/EnvImplDetail.h - Private helpers for the env implementation --===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private header shared by the three JniEnv*.cpp implementation files.
/// Declares every impl_<Fn> function (from the registry) plus the common
/// production-mode prologue. The prologue is what a *production* JVM does —
/// not a checker: it consults the undefined-behavior policy when user code
/// calls a JNI function in a state the specification forbids (pending
/// exception, critical section, foreign JNIEnv), mirroring Table 1's
/// default-behavior columns.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JNI_ENVIMPLDETAIL_H
#define JINN_JNI_ENVIMPLDETAIL_H

#include "jni/JniEnv.h"
#include "jni/JniFunctionId.h"
#include "jni/JniRuntime.h"
#include "jni/JniTraits.h"
#include "jni/Marshal.h"
#include "jvm/Vm.h"

namespace jinn::jni {

// Declarations of every default implementation, in registry order.
#define JNI_FN(Name, Ret, Params, Args) Ret impl_##Name Params;
#include "jni/JniFunctions.def"
#undef JNI_FN

inline jvm::JThread &threadOf(JNIEnv *Env) { return *Env->thread; }
inline jvm::Vm &vmOf(JNIEnv *Env) { return *Env->vm; }
inline JniRuntime &rtOf(JNIEnv *Env) { return *Env->runtime; }

/// Production-mode prologue for every JNI function. ok() is false when the
/// call must not proceed (poisoned thread, shut-down VM, or a policy
/// decision that stops execution).
class EnvGuard {
public:
  EnvGuard(JNIEnv *Env, FnId Id);
  bool ok() const { return Ok; }
  jvm::JThread &thread() { return *Thread; }
  jvm::Vm &vm() { return *Vm; }

private:
  /// Declared first: the calling thread is an active mutator for the whole
  /// JNI call (nested calls just bump a thread-local depth), so a GC either
  /// waits for the call or parks the thread right here at the boundary.
  jvm::Vm::MutatorScope Mutator;
  jvm::JThread *Thread;
  jvm::Vm *Vm;
  bool Ok;
};

/// Resolves a jclass handle to VM class metadata. When the handle resolves
/// to an object that is not a java.lang.Class mirror, routes
/// ClassObjectConfusion through the policy (pitfall 3) and returns null.
jvm::Klass *classOf(JNIEnv *Env, jclass Cls);

/// Validates a jmethodID against the VM registry; invalid or null IDs route
/// InvalidArgument through the policy and return null.
jvm::MethodInfo *methodOf(JNIEnv *Env, jmethodID Id);
jvm::FieldInfo *fieldOf(JNIEnv *Env, jfieldID Id);

/// Makes a local reference in Env's thread (null target -> null).
jobject localRef(JNIEnv *Env, jvm::ObjectId Target);

/// Shared implementation of the Call<T>MethodA families. The per-type A
/// forms in JniEnvCalls.cpp run the EnvGuard first; this performs ID
/// validation, argument marshalling, receiver checks, and the invocation.
jvm::Value callMethodCommon(JNIEnv *Env, CallKind Kind, jobject Receiver,
                            jclass Cls, jmethodID MethodId,
                            const jvalue *Args);

/// Shared cores of the 36 field accessors; the per-type accessors in
/// JniEnvCalls.cpp convert to and from the JNI types.
jvm::Value getFieldCommon(JNIEnv *Env, FnId Id, jobject ObjOrCls,
                          jfieldID FieldId, bool Static);
void setFieldCommon(JNIEnv *Env, FnId Id, jobject ObjOrCls, jfieldID FieldId,
                    bool Static, jvm::Value NewValue);

/// Converts jvalue arguments to VM values per \p Sig (derefs references).
std::vector<jvm::Value> jvaluesToValues(JNIEnv *Env,
                                        const jvm::MethodDesc &Sig,
                                        const jvalue *Args);

} // namespace jinn::jni

#endif // JINN_JNI_ENVIMPLDETAIL_H
