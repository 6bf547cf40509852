//===- jni/JniRuntime.cpp - Per-VM JNI runtime ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jni/JniRuntime.h"

#include "jni/EnvImplDetail.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace jinn;
using namespace jinn::jni;

NativeBindObserver::~NativeBindObserver() = default;

//===----------------------------------------------------------------------===
// Thread-local current-thread registry
//===----------------------------------------------------------------------===

/// Entries of destroyed runtimes cannot be purged eagerly (a runtime never
/// sees other threads' registries), so the registry is kept as a small
/// LRU: hits migrate one step toward the front, a new binding enters at
/// the front and the coldest entry falls off the back once all 16 are in
/// use. A long-lived thread that touches many short-lived runtimes then
/// keeps O(1) lookups instead of scanning every runtime it ever served.
/// The epoch (a never-reused runtime id) invalidates entries left behind
/// by destroyed runtimes whose heap address got recycled.
thread_local constinit JniRuntime::CurrentEntry
    JniRuntime::CurrentEntries[MaxCurrentEntries] = {};

namespace {
std::atomic<uint64_t> NextRuntimeEpoch{1};
} // namespace

jvm::JThread *JniRuntime::currentThreadBehindFront() const {
  for (size_t I = 1; I < MaxCurrentEntries; ++I) {
    if (CurrentEntries[I].Rt == this && CurrentEntries[I].Epoch == RtEpoch) {
      std::swap(CurrentEntries[I - 1], CurrentEntries[I]);
      return CurrentEntries[I - 1].Thread;
    }
  }
  return nullptr;
}

void JniRuntime::setCurrentThread(jvm::JThread *Thread) {
  for (size_t I = 0; I < MaxCurrentEntries; ++I) {
    if (CurrentEntries[I].Rt == this && CurrentEntries[I].Epoch == RtEpoch) {
      CurrentEntries[I].Thread = Thread;
      if (I > 0)
        std::swap(CurrentEntries[I - 1], CurrentEntries[I]);
      return;
    }
  }
  std::move_backward(CurrentEntries, CurrentEntries + MaxCurrentEntries - 1,
                     CurrentEntries + MaxCurrentEntries);
  CurrentEntries[0] = {this, RtEpoch, Thread};
}

//===----------------------------------------------------------------------===
// The default function table
//===----------------------------------------------------------------------===

namespace {

const JNINativeInterface_ DefaultTable = {
#define JNI_FN(Name, Ret, Params, Args) &jinn::jni::impl_##Name,
#include "jni/JniFunctions.def"
#undef JNI_FN
};

} // namespace

const JNINativeInterface_ *JniRuntime::defaultTable() const {
  return &DefaultTable;
}

//===----------------------------------------------------------------------===
// Construction, env lifecycle
//===----------------------------------------------------------------------===

//===----------------------------------------------------------------------===
// The invocation interface (JavaVM function table)
//===----------------------------------------------------------------------===

namespace {

jint invokeDestroyJavaVm(JavaVM *Vm) {
  Vm->vm->shutdown();
  return JNI_OK;
}

jint invokeAttachCurrentThread(JavaVM *Vm, JNIEnv **EnvOut, void *Args) {
  if (!EnvOut)
    return JNI_ERR;
  // Per the JNI spec, attaching an already-attached thread is a no-op that
  // returns the existing env (the name argument is ignored).
  if (jvm::JThread *Current = Vm->runtime->currentThread()) {
    *EnvOut = Vm->runtime->envFor(*Current);
    return JNI_OK;
  }
  const char *Name = static_cast<const char *>(Args);
  jvm::JThread &Thread =
      Vm->vm->attachThread(Name ? Name : "attached-thread");
  *EnvOut = Vm->runtime->envFor(Thread);
  Vm->runtime->setCurrentThread(&Thread);
  return JNI_OK;
}

jint invokeDetachCurrentThread(JavaVM *Vm) {
  jvm::JThread *Current = Vm->runtime->currentThread();
  if (!Current)
    return JNI_EDETACHED;
  Vm->vm->detachThread(*Current);
  Vm->runtime->setCurrentThread(nullptr);
  return JNI_OK;
}

jint invokeGetEnv(JavaVM *Vm, void **EnvOut, jint Version) {
  if (!EnvOut)
    return JNI_ERR;
  // Only the published interface versions are supported; anything else
  // (including negative/garbage values) is JNI_EVERSION, matching HotSpot.
  switch (Version) {
  case JNI_VERSION_1_1:
  case JNI_VERSION_1_2:
  case JNI_VERSION_1_4:
  case JNI_VERSION_1_6:
    break;
  default:
    *EnvOut = nullptr;
    return JNI_EVERSION;
  }
  jvm::JThread *Current = Vm->runtime->currentThread();
  if (!Current) {
    *EnvOut = nullptr;
    return JNI_EDETACHED;
  }
  *EnvOut = Vm->runtime->envFor(*Current);
  return JNI_OK;
}

const JNIInvokeInterface_ InvokeInterface = {
    invokeDestroyJavaVm,
    invokeAttachCurrentThread,
    invokeDetachCurrentThread,
    invokeGetEnv,
};

} // namespace

JniRuntime::JniRuntime(jvm::Vm &Vm)
    : TheVm(Vm),
      RtEpoch(NextRuntimeEpoch.fetch_add(1, std::memory_order_relaxed)) {
  TheJavaVm.functions = &InvokeInterface;
  TheJavaVm.vm = &Vm;
  TheJavaVm.runtime = this;
  Active = &DefaultTable;
  Vm.JniRuntimeHandle = this;
  Vm.addObserver(this);
  // Envs for threads attached before the runtime existed (main).
  for (const auto &Thread : Vm.threads())
    envFor(*Thread);
}

JniRuntime::~JniRuntime() {
  TheVm.removeObserver(this);
  TheVm.JniRuntimeHandle = nullptr;
}

JNIEnv *JniRuntime::envFor(jvm::JThread &Thread) {
  std::lock_guard<std::mutex> Lock(EnvsMutex);
  if (Thread.EnvPtr)
    return static_cast<JNIEnv *>(Thread.EnvPtr);
  auto Env = std::make_unique<JNIEnv_>();
  Env->functions = Active;
  Env->vm = &TheVm;
  Env->thread = &Thread;
  Env->runtime = this;
  Thread.EnvPtr = Env.get();
  Envs.push_back(std::move(Env));
  return static_cast<JNIEnv *>(Thread.EnvPtr);
}

void JniRuntime::onThreadStart(jvm::JThread &Thread) { envFor(Thread); }

void JniRuntime::onThreadEnd(jvm::JThread &Thread) {
  // The env structure stays alive (dangling env use is itself a studied
  // bug); it is merely disconnected from the thread.
  (void)Thread;
}

void JniRuntime::setActiveTable(const JNINativeInterface_ *Table) {
  std::lock_guard<std::mutex> Lock(EnvsMutex);
  Active = Table ? Table : &DefaultTable;
  for (const auto &Env : Envs)
    Env->functions = Active;
}

//===----------------------------------------------------------------------===
// Native binding
//===----------------------------------------------------------------------===

void JniRuntime::addBindObserver(NativeBindObserver *Observer) {
  std::lock_guard<std::mutex> Lock(BindObserversMutex);
  BindObservers.push_back(Observer);
}

void JniRuntime::removeBindObserver(NativeBindObserver *Observer) {
  std::lock_guard<std::mutex> Lock(BindObserversMutex);
  BindObservers.erase(
      std::remove(BindObservers.begin(), BindObservers.end(), Observer),
      BindObservers.end());
}

std::vector<NativeBindObserver *> JniRuntime::bindObserversSnapshot() const {
  std::lock_guard<std::mutex> Lock(BindObserversMutex);
  return BindObservers;
}

bool JniRuntime::registerNative(jvm::Klass *Kl, std::string_view Name,
                                std::string_view Sig, JniNativeStdFn Fn) {
  if (!Kl || !Fn)
    return false;
  jvm::MethodInfo *Method = nullptr;
  for (const auto &M : Kl->Methods)
    if (M->IsNative && M->Name == Name && M->Desc == Sig)
      Method = M.get();
  if (!Method)
    return false;

  // JVMTI NativeMethodBind: agents may wrap the bound function.
  JniNativeStdFn Bound = std::move(Fn);
  for (NativeBindObserver *Observer : bindObserversSnapshot())
    Observer->onNativeMethodBind(*Method, Bound);

  // The VM-level binding performs what a real JVM does around every native
  // call: push the implicit local frame, hand out local references for the
  // receiver and reference arguments, call the (possibly wrapped) native
  // code, convert the result back, and pop the frame.
  Method->NativeBound = [this, Method,
                         Bound = std::move(Bound)](jvm::JThread &Thread,
                                                   const jvm::Value &Self,
                                                   const std::vector<jvm::Value>
                                                       &Args) -> jvm::Value {
    // Arity mismatch between caller-supplied args and the signature would
    // read past Sig.Params below; flag it and marshal only what the
    // signature declares.
    if (Args.size() != Method->Sig.Params.size()) {
      TheVm.undefined(
          Thread, jvm::UndefinedOp::InvalidArgument,
          formatString("native %s called with %zu arguments, signature "
                       "declares %zu",
                       Method->qualifiedName().c_str(), Args.size(),
                       Method->Sig.Params.size()));
      if (Thread.Poisoned)
        return jvm::defaultValueFor(Method->Sig.Ret.Kind);
    }

    // The calling OS thread is a mutator for the duration of the native
    // call: collections wait for it, and it parks at this boundary while
    // another thread collects.
    jvm::Vm::MutatorScope Mutator(TheVm);

    JNIEnv *Env = envFor(Thread);
    size_t BaseDepth = Thread.frameDepth();
    Thread.pushFrame(TheVm.options().NativeFrameCapacity, /*Explicit=*/false);
    ScopedCurrent Scope(*this, &Thread);

    jobject SelfRef;
    if (Method->IsStatic)
      SelfRef = makeLocal(Thread, Method->Owner->Mirror);
    else
      SelfRef = makeLocal(Thread, Self.Obj);

    const size_t NumParams = std::min(Args.size(), Method->Sig.Params.size());
    std::vector<jvalue> JArgs;
    JArgs.reserve(NumParams);
    for (size_t I = 0; I < NumParams; ++I) {
      const jvm::TypeDesc &Param = Method->Sig.Params[I];
      if (Param.isReference()) {
        jvalue V;
        V.l = makeLocal(Thread, Args[I].Obj);
        JArgs.push_back(V);
      } else {
        JArgs.push_back(scalarToJvalue(Args[I]));
      }
    }

    jvalue Raw = Bound(Env, SelfRef, JArgs.data());

    jvm::Value Result;
    if (!Thread.Pending.isNull() || Thread.Poisoned) {
      // The native method completed exceptionally (possibly because a
      // checker threw); its return value must not be interpreted.
      Result = jvm::defaultValueFor(Method->Sig.Ret.Kind);
    } else if (Method->Sig.Ret.isReference()) {
      // "Native method returning reference" is a Use transition
      // (Return:C->Java); resolving it here surfaces dangling returns.
      Result = jvm::Value::makeRef(deref(Env, Raw.l));
    } else {
      Result = jvalueToScalar(Method->Sig.Ret.Kind, Raw);
    }
    // Pop the implicit frame AND any explicit frames the native code
    // pushed and never popped (the JVM reclaims them; a checker may have
    // flagged the leak).
    while (Thread.frameDepth() > BaseDepth) {
      if (Thread.topFrameExplicit())
        Thread.LeakedExplicitFrames += 1;
      Thread.popFrame();
    }
    return Result;
  };
  return true;
}

bool JniRuntime::unregisterNatives(jvm::Klass *Kl) {
  if (!Kl)
    return false;
  for (const auto &M : Kl->Methods)
    if (M->IsNative)
      M->NativeBound = nullptr;
  return true;
}

//===----------------------------------------------------------------------===
// Pinned buffers
//===----------------------------------------------------------------------===

void *JniRuntime::newBuffer(jvm::ObjectId Target, jvm::PinKind Kind,
                            jvm::JType Elem, size_t Len, size_t Bytes) {
  auto Record = std::make_unique<BufferRecord>();
  Record->Target = Target;
  Record->Kind = Kind;
  Record->Elem = Elem;
  Record->Len = Len;
  Record->Bytes = Bytes;
  Record->Storage = std::make_unique<char[]>(Bytes ? Bytes : 1);
  void *Data = Record->Storage.get();
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  Buffers.emplace(Data, std::move(Record));
  return Data;
}

std::optional<BufferInfo> JniRuntime::findBuffer(const void *Data) const {
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  auto It = Buffers.find(Data);
  if (It == Buffers.end())
    return std::nullopt;
  return static_cast<const BufferInfo &>(*It->second);
}

std::unique_ptr<BufferRecord> JniRuntime::takeBuffer(const void *Data) {
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  auto It = Buffers.find(Data);
  if (It == Buffers.end())
    return nullptr;
  std::unique_ptr<BufferRecord> Out = std::move(It->second);
  Buffers.erase(It);
  return Out;
}

void JniRuntime::restoreBuffer(std::unique_ptr<BufferRecord> Record) {
  if (!Record)
    return;
  void *Data = Record->Storage.get();
  std::lock_guard<std::mutex> Lock(BuffersMutex);
  Buffers.emplace(Data, std::move(Record));
}

//===----------------------------------------------------------------------===
// Handle helpers
//===----------------------------------------------------------------------===

jobject JniRuntime::makeLocal(jvm::JThread &Thread, jvm::ObjectId Target) {
  if (Target.isNull())
    return nullptr;
  return wordToRef(Thread.newLocalRef(Target));
}

jvm::ObjectId JniRuntime::deref(JNIEnv *Env, jobject Ref) {
  return TheVm.resolveHandle(*Env->thread, handleWord(Ref));
}
