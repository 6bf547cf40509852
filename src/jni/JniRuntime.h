//===- jni/JniRuntime.h - Per-VM JNI runtime ------------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JniRuntime owns everything JNI adds on top of the VM: per-thread
/// JNIEnv structures, the active function table (the interposition point),
/// native-method binding with JVMTI-style bind events, the registry of
/// pinned buffers handed to C code, and the notion of which VM thread is
/// "current" on the executing OS thread (pitfall 14 revolves around it).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JNI_JNIRUNTIME_H
#define JINN_JNI_JNIRUNTIME_H

#include "jni/JniEnv.h"
#include "jvm/Vm.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

namespace jinn::jni {

/// Bound implementation of a native method at the JNI level: a uniform
/// (env, receiver-or-class, args) signature.
///
/// Substitution note: a real JVM binds native methods to per-signature C
/// symbols; the paper's synthesizer emits a wrapper per signature. This
/// reproduction uses one uniform signature so wrappers compose as closures;
/// the wrapping *points* (bind-time, around the call) are identical.
using JniNativeStdFn =
    std::function<jvalue(JNIEnv *Env, jobject SelfOrClass, const jvalue *Args)>;

/// Observer of native-method binding (JVMTI NativeMethodBind). The observer
/// may replace \p Bound with a wrapper — this is how Jinn instruments
/// Call:Java->C and Return:C->Java transitions (paper Figure 3).
class NativeBindObserver {
public:
  virtual ~NativeBindObserver();
  virtual void onNativeMethodBind(jvm::MethodInfo &Method,
                                  JniNativeStdFn &Bound) = 0;
};

/// What a buffer handed to C code by Get<T>ArrayElements /
/// GetString*Chars / Get*Critical is: its pinned object and its shape.
struct BufferInfo {
  jvm::ObjectId Target;
  jvm::PinKind Kind = jvm::PinKind::ArrayElements;
  jvm::JType Elem = jvm::JType::Void;
  size_t Len = 0;
  size_t Bytes = 0;
};

/// A tracked buffer and its storage. The runtime owns it until the
/// matching release.
struct BufferRecord : BufferInfo {
  std::unique_ptr<char[]> Storage;
};

class JniRuntime : public jvm::VmEventObserver {
public:
  explicit JniRuntime(jvm::Vm &Vm);
  ~JniRuntime() override;
  JniRuntime(const JniRuntime &) = delete;
  JniRuntime &operator=(const JniRuntime &) = delete;

  jvm::Vm &vm() { return TheVm; }
  JavaVM *javaVm() { return &TheJavaVm; }

  /// The env of \p Thread (created on demand).
  JNIEnv *envFor(jvm::JThread &Thread);
  JNIEnv *mainEnv() { return envFor(TheVm.mainThread()); }

  //===--------------------------------------------------------------------===
  // Function table interposition
  //===--------------------------------------------------------------------===

  const JNINativeInterface_ *defaultTable() const;
  const JNINativeInterface_ *activeTable() const { return Active; }
  /// Installs \p Table on every env (nullptr restores the default table).
  void setActiveTable(const JNINativeInterface_ *Table);

  /// Opaque dispatcher used by the interposed table (created by the JVMTI
  /// layer; see jvmti/Interpose.h). DispatcherOwner keeps it alive for the
  /// runtime's lifetime without this header knowing its type.
  void *Dispatcher = nullptr;
  std::shared_ptr<void> DispatcherOwner;

  //===--------------------------------------------------------------------===
  // Current thread (which VM thread the executing OS thread stands for)
  //===--------------------------------------------------------------------===

  /// The VM thread the *calling OS thread* stands for in this runtime, or
  /// null when the OS thread is detached. Backed by thread-local storage,
  /// so distinct OS threads each see their own binding (true multi-threaded
  /// execution); an epoch check guards against a destroyed runtime's
  /// address being reused. The front entry of the registry is probed
  /// inline: a thread that serves one runtime finds it there. (The fields
  /// are read from the array element itself: with -fsanitize=null, GCC 12
  /// miscompiles the null check of a reference bound to a thread_local
  /// array element into a branch on stale flags, a false report.)
  jvm::JThread *currentThread() const {
    if (CurrentEntries[0].Rt == this && CurrentEntries[0].Epoch == RtEpoch)
      return CurrentEntries[0].Thread;
    return currentThreadBehindFront();
  }
  void setCurrentThread(jvm::JThread *Thread);

  /// RAII current-thread switch used around native dispatch.
  class ScopedCurrent {
  public:
    ScopedCurrent(JniRuntime &Rt, jvm::JThread *Thread)
        : Rt(Rt), Saved(Rt.currentThread()) {
      Rt.setCurrentThread(Thread);
    }
    ~ScopedCurrent() { Rt.setCurrentThread(Saved); }

  private:
    JniRuntime &Rt;
    jvm::JThread *Saved;
  };

  //===--------------------------------------------------------------------===
  // Native-method binding
  //===--------------------------------------------------------------------===

  /// Binds \p Fn as the implementation of Klass.Name(Sig). Fires bind
  /// events (agents may wrap). Returns false when no such native method.
  bool registerNative(jvm::Klass *Kl, std::string_view Name,
                      std::string_view Sig, JniNativeStdFn Fn);
  /// Unbinds all natives of \p Kl.
  bool unregisterNatives(jvm::Klass *Kl);

  void addBindObserver(NativeBindObserver *Observer);
  void removeBindObserver(NativeBindObserver *Observer);

  //===--------------------------------------------------------------------===
  // Pinned buffers
  //===--------------------------------------------------------------------===

  /// Allocates and tracks a buffer of \p Bytes for \p Target.
  void *newBuffer(jvm::ObjectId Target, jvm::PinKind Kind, jvm::JType Elem,
                  size_t Len, size_t Bytes);
  /// Looks up a tracked buffer by its data pointer. The facts are copied
  /// under the buffer lock: a release on another thread may free the
  /// record the moment the lock drops.
  std::optional<BufferInfo> findBuffer(const void *Data) const;
  /// Removes a tracked buffer, returning it (empty when unknown).
  std::unique_ptr<BufferRecord> takeBuffer(const void *Data);
  /// Re-inserts a buffer taken with takeBuffer (JNI_COMMIT keeps it live).
  void restoreBuffer(std::unique_ptr<BufferRecord> Record);
  size_t outstandingBuffers() const {
    std::lock_guard<std::mutex> Lock(BuffersMutex);
    return Buffers.size();
  }

  //===--------------------------------------------------------------------===
  // Handle helpers shared by the env implementation
  //===--------------------------------------------------------------------===

  /// Creates a local reference to \p Target in \p Thread's top frame.
  jobject makeLocal(jvm::JThread &Thread, jvm::ObjectId Target);

  /// Resolves \p Ref on behalf of \p Env's thread, applying the
  /// undefined-behavior policy on invalid handles.
  jvm::ObjectId deref(JNIEnv *Env, jobject Ref);

  // VmEventObserver: env lifecycle follows thread lifecycle.
  void onThreadStart(jvm::JThread &Thread) override;
  void onThreadEnd(jvm::JThread &Thread) override;

private:
  /// One binding of the calling OS thread's registry: which VM thread it
  /// stands for in runtime \p Rt of epoch \p Epoch. An empty entry has a
  /// null Rt.
  struct CurrentEntry {
    const JniRuntime *Rt;
    uint64_t Epoch;
    jvm::JThread *Thread;
  };
  /// The calling OS thread's registry, a small LRU (see JniRuntime.cpp).
  static constexpr size_t MaxCurrentEntries = 16;
  static thread_local constinit CurrentEntry
      CurrentEntries[MaxCurrentEntries];

  /// currentThread() for a runtime not at the front of the registry.
  jvm::JThread *currentThreadBehindFront() const;

  std::vector<NativeBindObserver *> bindObserversSnapshot() const;

  jvm::Vm &TheVm;
  JavaVM_ TheJavaVm;
  /// Unique id of this runtime instance for the thread-local current-thread
  /// registry (never reused, unlike `this`).
  const uint64_t RtEpoch;

  mutable std::mutex EnvsMutex; ///< Envs, JThread::EnvPtr publication
  std::vector<std::unique_ptr<JNIEnv_>> Envs;
  /// The active function table. Written by setActiveTable, which must run
  /// before worker threads start issuing JNI calls (the same discipline a
  /// real JVMTI agent install requires).
  const JNINativeInterface_ *Active = nullptr;

  mutable std::mutex BindObserversMutex; ///< BindObservers
  std::vector<NativeBindObserver *> BindObservers;

  mutable std::mutex BuffersMutex; ///< Buffers
  std::map<const void *, std::unique_ptr<BufferRecord>> Buffers;
};

} // namespace jinn::jni

#endif // JINN_JNI_JNIRUNTIME_H
