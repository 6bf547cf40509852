//===- jni/JniEnvMembers.cpp - Default impls: member lookup and access ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GetMethodID/GetFieldID lookups and the shared cores behind the 93 call
/// functions and 36 field accessors (JniEnvCalls.cpp expands the per-type
/// functions over them).
///
//===----------------------------------------------------------------------===//

#include "jni/EnvImplDetail.h"

#include "support/Compiler.h"
#include "support/Format.h"

using namespace jinn;
using namespace jinn::jni;
using jinn::jvm::Klass;
using jinn::jvm::ObjectId;
using jinn::jvm::UndefinedOp;
using jinn::jvm::Value;

namespace {

jmethodID lookupMethod(JNIEnv *Env, FnId Id, jclass Cls, const char *Name,
                       const char *Sig, bool WantStatic) {
  EnvGuard G(Env, Id);
  if (!G.ok())
    return nullptr;
  Klass *Kl = classOf(Env, Cls);
  if (!Kl)
    return nullptr;
  if (!Name || !Sig) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "null method name or signature");
    return nullptr;
  }
  jvm::MethodInfo *M = Kl->findMethod(Name, Sig, WantStatic);
  if (!M) {
    G.vm().throwNew(G.thread(), "java/lang/NoSuchMethodError",
                    formatString("%s.%s%s", Kl->name().c_str(), Name, Sig));
    return nullptr;
  }
  return methodToId(M);
}

jfieldID lookupField(JNIEnv *Env, FnId Id, jclass Cls, const char *Name,
                     const char *Sig, bool WantStatic) {
  EnvGuard G(Env, Id);
  if (!G.ok())
    return nullptr;
  Klass *Kl = classOf(Env, Cls);
  if (!Kl)
    return nullptr;
  if (!Name || !Sig) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "null field name or signature");
    return nullptr;
  }
  jvm::FieldInfo *F = Kl->findField(Name, Sig, WantStatic);
  if (!F) {
    G.vm().throwNew(G.thread(), "java/lang/NoSuchFieldError",
                    formatString("%s.%s", Kl->name().c_str(), Name));
    return nullptr;
  }
  return fieldToId(F);
}

} // namespace

jmethodID jinn::jni::impl_GetMethodID(JNIEnv *Env, jclass Cls,
                                      const char *Name, const char *Sig) {
  return lookupMethod(Env, FnId::GetMethodID, Cls, Name, Sig,
                      /*WantStatic=*/false);
}

jmethodID jinn::jni::impl_GetStaticMethodID(JNIEnv *Env, jclass Cls,
                                            const char *Name,
                                            const char *Sig) {
  return lookupMethod(Env, FnId::GetStaticMethodID, Cls, Name, Sig,
                      /*WantStatic=*/true);
}

jfieldID jinn::jni::impl_GetFieldID(JNIEnv *Env, jclass Cls, const char *Name,
                                    const char *Sig) {
  return lookupField(Env, FnId::GetFieldID, Cls, Name, Sig,
                     /*WantStatic=*/false);
}

jfieldID jinn::jni::impl_GetStaticFieldID(JNIEnv *Env, jclass Cls,
                                          const char *Name, const char *Sig) {
  return lookupField(Env, FnId::GetStaticFieldID, Cls, Name, Sig,
                     /*WantStatic=*/true);
}

Value jinn::jni::callMethodCommon(JNIEnv *Env, CallKind Kind, jobject Receiver,
                                  jclass Cls, jmethodID MethodId,
                                  const jvalue *Args) {
  // The caller's A form already ran the guard under its own FnId; the call
  // structure arrives through Kind.
  jvm::Vm &V = vmOf(Env);
  jvm::JThread &T = threadOf(Env);
  jvm::MethodInfo *M = methodOf(Env, MethodId);
  if (!M || T.Poisoned)
    return Value::makeVoid();

  std::vector<Value> Vals = jvaluesToValues(Env, M->Sig, Args);
  if (T.Poisoned)
    return Value::makeVoid();

  switch (Kind) {
  case CallKind::Virtual:
  case CallKind::Nonvirtual: {
    ObjectId Recv = rtOf(Env).deref(Env, Receiver);
    if (T.Poisoned)
      return Value::makeVoid();
    if (Recv.isNull()) {
      V.throwNew(T, "java/lang/NullPointerException", M->qualifiedName());
      return Value::makeVoid();
    }
    if (M->IsStatic) {
      V.undefined(T, UndefinedOp::InvalidArgument,
                  "static method called through an instance-call function");
      return Value::makeVoid();
    }
    return V.invoke(T, M, Value::makeRef(Recv), Vals,
                    /*VirtualDispatch=*/Kind == CallKind::Virtual);
  }
  case CallKind::Static: {
    Klass *Kl = classOf(Env, Cls);
    if (!Kl || T.Poisoned)
      return Value::makeVoid();
    if (!M->IsStatic) {
      V.undefined(T, UndefinedOp::InvalidArgument,
                  "instance method called through CallStatic*");
      return Value::makeVoid();
    }
    return V.invoke(T, M, Value::makeNull(), Vals, /*VirtualDispatch=*/false);
  }
  case CallKind::Ctor: {
    Klass *Kl = classOf(Env, Cls);
    if (!Kl || T.Poisoned)
      return Value::makeVoid();
    if (Kl->isArray()) {
      V.throwNew(T, "java/lang/InstantiationError", Kl->name());
      return Value::makeVoid();
    }
    ObjectId Obj = V.newObject(Kl);
    V.invoke(T, M, Value::makeRef(Obj), Vals, /*VirtualDispatch=*/false);
    if (!T.Pending.isNull())
      return Value::makeVoid();
    return Value::makeRef(Obj);
  }
  case CallKind::NotACall:
    break;
  }
  JINN_UNREACHABLE("invalid CallKind in callMethodCommon");
}

namespace jinn::jni {

/// Shared core of Get<T>Field / GetStatic<T>Field (the callers convert).
Value getFieldCommon(JNIEnv *Env, FnId Id, jobject ObjOrCls, jfieldID FieldId,
                     bool Static) {
  EnvGuard G(Env, Id);
  if (!G.ok())
    return Value::makeVoid();
  jvm::FieldInfo *F = fieldOf(Env, FieldId);
  if (!F || G.thread().Poisoned)
    return Value::makeVoid();
  if (F->IsStatic != Static) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "field ID staticness does not match accessor");
    return Value::makeVoid();
  }
  if (Static) {
    classOf(Env, static_cast<jclass>(ObjOrCls));
    std::lock_guard<std::mutex> Lock(G.vm().staticFieldLock(F));
    return F->StaticValue;
  }
  ObjectId Obj = rtOf(Env).deref(Env, ObjOrCls);
  if (G.thread().Poisoned)
    return Value::makeVoid();
  if (Obj.isNull()) {
    G.vm().throwNew(G.thread(), "java/lang/NullPointerException",
                    F->qualifiedName());
    return Value::makeVoid();
  }
  jvm::HeapObject *HO = G.vm().heap().resolve(Obj);
  if (!HO || HO->Shape != jvm::ObjShape::Plain ||
      F->Slot >= HO->Fields.size()) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "field ID does not apply to this object");
    return Value::makeVoid();
  }
  return HO->Fields[F->Slot];
}

/// Shared core of Set<T>Field / SetStatic<T>Field.
void setFieldCommon(JNIEnv *Env, FnId Id, jobject ObjOrCls, jfieldID FieldId,
                    bool Static, Value NewValue) {
  EnvGuard G(Env, Id);
  if (!G.ok())
    return;
  jvm::FieldInfo *F = fieldOf(Env, FieldId);
  if (!F || G.thread().Poisoned)
    return;
  if (F->IsStatic != Static) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "field ID staticness does not match accessor");
    return;
  }
  if (F->IsFinal) {
    // Table 1 row 9: the production default surfaces as an NPE.
    G.vm().undefined(G.thread(), UndefinedOp::AccessControl,
                     formatString("write to final field %s",
                                  F->qualifiedName().c_str()));
    return;
  }
  if (Static) {
    classOf(Env, static_cast<jclass>(ObjOrCls));
    std::lock_guard<std::mutex> Lock(G.vm().staticFieldLock(F));
    F->StaticValue = NewValue;
    return;
  }
  ObjectId Obj = rtOf(Env).deref(Env, ObjOrCls);
  if (G.thread().Poisoned)
    return;
  if (Obj.isNull()) {
    G.vm().throwNew(G.thread(), "java/lang/NullPointerException",
                    F->qualifiedName());
    return;
  }
  jvm::HeapObject *HO = G.vm().heap().resolve(Obj);
  if (!HO || HO->Shape != jvm::ObjShape::Plain ||
      F->Slot >= HO->Fields.size()) {
    G.vm().undefined(G.thread(), UndefinedOp::InvalidArgument,
                     "field ID does not apply to this object");
    return;
  }
  HO->Fields[F->Slot] = NewValue;
  // Incremental-mark write barrier: re-scan this container at the next GC
  // pause if it was already traced (incremental-update marking).
  if (NewValue.isRef())
    G.vm().heap().recordRefStore(Obj);
}

} // namespace jinn::jni
