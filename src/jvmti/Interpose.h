//===- jvmti/Interpose.h - JNI function-table interposition framework ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic interposition machinery every dynamic checker rides on:
///
///  - CapturedCall: a uniform view of one in-flight JNI call (function id,
///    classified arguments, decoded call arguments, return value) handed to
///    pre/post hooks. Hooks can abort the underlying call — that is how a
///    checker "throws instead of executing" (paper Figure 4).
///  - InterposeDispatcher: per-function lists of pre/post hooks. The paper's
///    synthesizer populates these lists from state-machine specifications
///    (Algorithm 1); the -Xcheck:jni emulations populate them by hand.
///  - interposedTable(): a complete alternative JNINativeInterface whose
///    entries wrap the default implementations with hook dispatch. The
///    wrappers are *generated* from the registry at compile time — the
///    runtime analogue of the paper's 22,000+ generated wrapper lines.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVMTI_INTERPOSE_H
#define JINN_JVMTI_INTERPOSE_H

#include "jni/JniFunctionId.h"
#include "jni/JniRuntime.h"
#include "jni/JniTraits.h"
#include "jni/Marshal.h"
#include "jvm/Vm.h"

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace jinn::jvmti {

/// One classified argument of an in-flight call.
struct CapturedArg {
  jni::ArgClass Cls = jni::ArgClass::Scalar;
  uint64_t Word = 0;         ///< handle bits, ID bits, or scalar payload
  const void *Ptr = nullptr; ///< cstring / jvalue array / out-pointer
};

/// One recorded handle observation: what Vm::peekHandle returned for a
/// handle word at the instant a boundary was crossed. Peeks are volatile
/// (a later DeleteLocalRef changes the answer), so the recorder snapshots
/// them per event and the replayer consults the snapshot instead of the
/// post-hoc VM state.
struct PeekFact {
  uint64_t Word = 0;
  uint64_t Target = 0; ///< ObjectId raw bits (0 when none)
  uint8_t Status = 0;  ///< jvm::Vm::PeekResult::Status
  uint8_t Kind = 0;    ///< jvm::RefKind
  uint32_t OwnerThread = 0;
};

/// Every VM observation a synthesized machine can make at one boundary
/// crossing, frozen at crossing time. POD with fixed capacity so trace
/// events serialize as flat records.
struct BoundarySnapshot {
  static constexpr size_t MaxPeeks = 8;
  static constexpr size_t MaxCallArgs = 8;

  uint32_t ThreadId = 0;    ///< thread the JNIEnv belongs to
  uint32_t CurThreadId = 0; ///< thread actually executing (0 when unknown)
  uint64_t EnvWord = 0;     ///< JNIEnv pointer identity
  uint8_t NumPeeks = 0;
  uint8_t NumCallArgs = 0;
  bool PeeksTruncated = false;
  bool ExceptionPending = false;
  bool MethodIdValid = false;    ///< jmethodID argument passed isMethodId
  bool FieldIdValid = false;     ///< jfieldID argument passed isFieldId
  bool RetFieldIdValid = false;  ///< returned jfieldID passed isFieldId
  bool BufferFound = false;      ///< released buffer had a pin record
  bool HasCallArgs = false;
  uint64_t BufferTarget = 0; ///< pinned target of the released buffer
  PeekFact Peeks[MaxPeeks];
  jvalue CallArgs[MaxCallArgs];

  void addPeek(uint64_t Word, uint64_t Target, uint8_t Status, uint8_t Kind,
               uint32_t OwnerThread) {
    if (!Word)
      return;
    for (size_t I = 0; I < NumPeeks; ++I)
      if (Peeks[I].Word == Word)
        return;
    if (NumPeeks == MaxPeeks) {
      PeeksTruncated = true;
      return;
    }
    Peeks[NumPeeks++] = {Word, Target, Status, Kind, OwnerThread};
  }
  const PeekFact *findPeek(uint64_t Word) const {
    for (size_t I = 0; I < NumPeeks; ++I)
      if (Peeks[I].Word == Word)
        return &Peeks[I];
    return nullptr;
  }
};

/// Everything a replayed trace needs from the surrounding process: the VM
/// the trace was recorded against (entity pointers in the trace are only
/// meaningful in-process) and the trace's own thread table.
struct ReplayEnvironment {
  jvm::Vm *Vm = nullptr;
  uint32_t NativeFrameCapacity = 16;
  std::function<std::string(uint32_t)> ThreadNameOf;

  std::string threadName(uint32_t Id) const {
    if (ThreadNameOf) {
      std::string Name = ThreadNameOf(Id);
      if (!Name.empty())
        return Name;
    }
    return "thread-" + std::to_string(Id);
  }
};

/// Observer of native-method entry/exit crossings (the Java->C direction).
/// Installed on the synthesizer so the trace recorder sees every bound
/// native method fire without depending on the synthesis layer.
class NativeBoundaryObserver {
public:
  virtual ~NativeBoundaryObserver() = default;
  virtual void onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env,
                             jobject Self, const jvalue *Args) = 0;
  virtual void onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env,
                            jobject Self, const jvalue *Args,
                            const jvalue *Ret, bool EntryAborted) = 0;
};

/// A uniform view of one in-flight JNI call, passed to every hook.
///
/// Two modes share this type: live calls carry a JNIEnv and answer
/// observation queries against the running VM; replayed calls carry a
/// BoundarySnapshot recorded at crossing time plus a ReplayEnvironment,
/// and answer the same queries from the snapshot.
class CapturedCall {
public:
  /// Live constructor: the wrapper already holds the traits pointer in its
  /// per-function record, so the fnTraits() table lookup (and its
  /// static-init guard) is hoisted out of the crossing entirely.
  CapturedCall(jni::FnId Id, JNIEnv *Env, const jni::FnTraits *Traits)
      : Id(Id), Env(Env), Traits(Traits) {}

  /// Replay-mode constructor: the call is reconstructed from a recorded
  /// trace event; restoreArg/restoreReturn fill in the operands.
  CapturedCall(jni::FnId Id, const BoundarySnapshot *Snap,
               const ReplayEnvironment *Renv)
      : Id(Id), Env(nullptr), Traits(&jni::fnTraits(Id)), Snap(Snap),
        Renv(Renv) {}

  jni::FnId id() const { return Id; }
  JNIEnv *env() const { return Env; }
  jvm::JThread &thread() const { return *Env->thread; }
  jvm::Vm &vm() const { return Env ? *Env->vm : *Renv->Vm; }
  jni::JniRuntime &runtime() const { return *Env->runtime; }
  const jni::FnTraits &traits() const { return *Traits; }

  bool isReplay() const { return Snap != nullptr; }
  const BoundarySnapshot *snapshot() const { return Snap; }
  const ReplayEnvironment *replayEnv() const { return Renv; }

  size_t numArgs() const { return NumArgs; }
  const CapturedArg &arg(size_t Index) const { return Args[Index]; }

  /// Reference argument \p Index as a handle word (0 when not a ref).
  uint64_t refWord(size_t Index) const {
    return Args[Index].Cls == jni::ArgClass::Ref ? Args[Index].Word : 0;
  }

  /// The jmethodID argument, validated against the VM registry (nullptr
  /// when absent or invalid).
  jvm::MethodInfo *methodArg() const;
  /// Raw bits of the jmethodID argument (even if invalid); 0 when absent.
  uint64_t methodArgWord() const;
  jvm::FieldInfo *fieldArg() const;
  uint64_t fieldArgWord() const;

  /// Decodes the jvalue-array argument against the method signature into
  /// callArgs(). Returns false when there is no decodable argument vector.
  bool materializeCallArgs();
  const std::vector<jvalue> &callArgs() const { return CallArgs; }

  //===------------------------------------------------------------------===
  // Return value (valid in post hooks)
  //===------------------------------------------------------------------===

  bool hasReturn() const { return HasReturn; }
  bool returnIsRef() const { return RetIsRef; }
  uint64_t returnWord() const { return RetWord; }
  const void *returnPtr() const { return RetPtr; }
  /// Whether the returned jfieldID is registered with the VM (snapshot-backed
  /// under replay).
  bool returnFieldIdValid() const;

  //===------------------------------------------------------------------===
  // Abort: a pre hook calls this to suppress the underlying call
  //===------------------------------------------------------------------===

  void abortCall() { Aborted = true; }
  bool aborted() const { return Aborted; }

  //===------------------------------------------------------------------===
  // Per-crossing memo: one (owner, value) slot that lives for the whole
  // pre+call+post crossing. Machines use it to hoist a thread-local
  // lookup (e.g. LocalRefMachine's instance-id -> thread-shadow cache)
  // to once per crossing instead of once per action.
  //===------------------------------------------------------------------===

  void *memo(const void *Owner) const {
    return MemoOwner == Owner ? MemoValue : nullptr;
  }
  void setMemo(const void *Owner, void *Value) {
    MemoOwner = Owner;
    MemoValue = Value;
  }

  //===------------------------------------------------------------------===
  // Capture plumbing (used by the generated wrappers)
  //===------------------------------------------------------------------===

  template <typename T>
  std::enable_if_t<std::is_base_of_v<_jobject, T>> captureOne(T *V) {
    push({jni::ArgClass::Ref, jni::handleWord(V), nullptr});
  }
  void captureOne(jmethodID V) {
    push({jni::ArgClass::MethodId,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }
  void captureOne(jfieldID V) {
    push({jni::ArgClass::FieldId,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }
  void captureOne(const char *V) {
    push({jni::ArgClass::CString, 0, V});
  }
  void captureOne(const jvalue *V) {
    push({jni::ArgClass::JvalueArray, 0, V});
  }
  template <typename T>
  std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>
  captureOne(T V) {
    push({jni::ArgClass::Scalar, static_cast<uint64_t>(V), nullptr});
  }
  template <typename T>
  std::enable_if_t<!std::is_base_of_v<_jobject, T>> captureOne(T *V) {
    push({jni::ArgClass::OutPtr,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }

  template <typename T> void setReturn(T V) {
    HasReturn = true;
    if constexpr (std::is_pointer_v<T> &&
                  std::is_base_of_v<_jobject, std::remove_pointer_t<T>>) {
      RetIsRef = true;
      RetWord = jni::handleWord(V);
    } else if constexpr (std::is_pointer_v<T>) {
      RetPtr = V;
      RetWord = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V));
    } else if constexpr (std::is_floating_point_v<T>) {
      RetWord = 0;
      RetDouble = static_cast<double>(V);
    } else {
      RetWord = static_cast<uint64_t>(V);
    }
  }
  void setReturnVoid() { HasReturn = true; }

  //===------------------------------------------------------------------===
  // Replay plumbing (used by the trace replayer)
  //===------------------------------------------------------------------===

  void restoreArg(jni::ArgClass Cls, uint64_t Word, uint64_t PtrWord) {
    push({Cls, Word,
          reinterpret_cast<const void *>(static_cast<uintptr_t>(PtrWord))});
  }
  void restoreReturn(bool HasRet, bool IsRef, uint64_t Word,
                     uint64_t PtrWord) {
    HasReturn = HasRet;
    RetIsRef = IsRef;
    RetWord = Word;
    RetPtr = reinterpret_cast<const void *>(static_cast<uintptr_t>(PtrWord));
  }

private:
  void push(CapturedArg Arg) {
    if (NumArgs == Args.size())
      argumentOverflow();
    Args[NumArgs++] = Arg;
  }
  [[noreturn]] void argumentOverflow() const;

  jni::FnId Id;
  JNIEnv *Env;
  const jni::FnTraits *Traits;
  const BoundarySnapshot *Snap = nullptr;
  const ReplayEnvironment *Renv = nullptr;
  std::array<CapturedArg, jni::MaxJniParams> Args;
  size_t NumArgs = 0;
  std::vector<jvalue> CallArgs;
  bool HasReturn = false;
  bool RetIsRef = false;
  uint64_t RetWord = 0;
  double RetDouble = 0.0;
  const void *RetPtr = nullptr;
  bool Aborted = false;
  const void *MemoOwner = nullptr;
  void *MemoValue = nullptr;
};

/// Hook invoked before (pre) or after (post) a JNI function executes.
using HookFn = std::function<void(CapturedCall &)>;

/// One observer slot of the compiled dispatch program: a raw indirect
/// call. The slot's object knows its phase (pre or post), so one signature
/// serves every observer — the synthesized machine checks, the trace
/// recorder, the -Xcheck:jni emulation and hand-registered hooks.
struct DispatchSlot {
  using Fn = void (*)(const void *Obj, CapturedCall &Call);
  Fn Invoke = nullptr;
  const void *Obj = nullptr;
};

/// The compiled dispatch program: one straight-line slot sequence per JNI
/// function and phase — the runtime analogue of the paper's one
/// specialised wrapper per function (Algorithm 1's 22k generated lines).
/// Immutable once published. A function whose record is empty crosses with
/// one load and compare; every other crossing captures its arguments once
/// and runs its slots as plain indirect calls.
class DispatchTable {
public:
  struct FnRec {
    uint32_t PreBegin = 0;
    uint32_t PostBegin = 0;
    uint32_t PreCount = 0;
    uint32_t PostCount = 0;
    /// Hoisted into the record so the crossing skips the fnTraits() lookup.
    const jni::FnTraits *Traits = nullptr;
  };

  /// Set when a sampling predicate is installed: the wrapper prologue then
  /// asks InterposeDispatcher::checksThread once per crossing. Declared
  /// next to Slots so a crossing touches one header cache line.
  bool Sampling = false;
  std::vector<DispatchSlot> Slots;
  std::array<FnRec, jni::NumJniFunctions> Fns{};

  /// Runs \p Rec's pre slots, stopping at the first that aborts the call.
  void runPre(const FnRec &Rec, CapturedCall &Call) const {
    const DispatchSlot *Slot = Slots.data() + Rec.PreBegin;
    for (const DispatchSlot *End = Slot + Rec.PreCount; Slot != End; ++Slot) {
      Slot->Invoke(Slot->Obj, Call);
      if (Call.aborted())
        return;
    }
  }
  /// Runs \p Rec's post slots (the call already happened; all of them run).
  void runPost(const FnRec &Rec, CapturedCall &Call) const {
    const DispatchSlot *Slot = Slots.data() + Rec.PostBegin;
    for (const DispatchSlot *End = Slot + Rec.PostCount; Slot != End; ++Slot)
      Slot->Invoke(Slot->Obj, Call);
  }
};

/// The slots one installer adds, published together: one recompile for the
/// whole batch, however many slots it carries.
struct SlotBatch {
  /// Slots that run on every function. They precede per-function slots
  /// in both phases, so the trace recorder (installed this way) snapshots
  /// exactly the state the machines are about to observe.
  std::vector<DispatchSlot> PreAll;
  std::vector<DispatchSlot> PostAll;
  std::vector<std::pair<jni::FnId, DispatchSlot>> Pre;
  std::vector<std::pair<jni::FnId, DispatchSlot>> Post;
  /// Owners of the slot objects, released at InterposeDispatcher::clear().
  std::vector<std::shared_ptr<const void>> KeepAlive;
};

/// Owns the observers of one runtime and publishes them, compiled into a
/// DispatchTable, to the generated wrappers.
///
/// Publication is read-copy-update: an installer (serialized by a mutex)
/// appends its slots to the registry, compiles a fresh table, and
/// publishes it with a release store. A crossing loads the table once
/// (acquire) and runs entirely on that snapshot. Superseded tables stay
/// owned by the dispatcher until clear(), so a crossing that started
/// before a mid-run install finishes safely on the old program, and every
/// crossing that starts after the install returns sees the new slot.
class InterposeDispatcher {
public:
  InterposeDispatcher();

  /// Adds \p Batch to the registry and publishes the recompiled table.
  void install(SlotBatch Batch);

  /// Single-hook installers (tests, debuggers): the dispatcher keeps the
  /// callable alive and reaches it through a trampoline slot.
  void addPre(jni::FnId Id, HookFn Hook);
  void addPost(jni::FnId Id, HookFn Hook);
  /// Hooks that run on *every* function, ahead of per-function slots.
  void addPreAll(HookFn Hook);
  void addPostAll(HookFn Hook);

  /// The published program. Read once per crossing by the generated
  /// wrappers; never null (an empty table before the first install).
  const DispatchTable *table() const {
    return Current.load(std::memory_order_acquire);
  }

  /// Every change republishes and nothing demotes, so this is always 0;
  /// kept for the benchmark drivers that report it.
  uint64_t demotionCount() const { return 0; }

  /// Total number of registered slots (census support).
  size_t hookCount() const;
  /// Number of pre / post slots the published program runs for \p Id,
  /// all-function slots included.
  size_t preCount(jni::FnId Id) const;
  size_t postCount(jni::FnId Id) const;

  //===------------------------------------------------------------------===
  // Deterministic sampled checking (production monitoring mode)
  //===------------------------------------------------------------------===

  /// Per-thread sampling decision: called once per thread (result cached
  /// in a thread-local keyed by thread id), it decides whether this
  /// thread's crossings run boundary slots at all — the recorder and the
  /// machine checks alike. An unsampled thread pays only this cached
  /// lookup per crossing; a sampled thread is fully recorded and fully
  /// checked, which is what keeps its reports byte-replayable from the
  /// retained trace. The predicate must be pure and deterministic (the
  /// Jinn agent derives it from a seeded SplitMix64 stream over the thread
  /// identity).
  using SamplePredicate = std::function<bool(jvm::JThread &)>;

  /// Installs (or, with nullptr, removes) the sampling predicate and
  /// republishes the table with its Sampling flag set accordingly.
  void setSampler(SamplePredicate Fn);

  /// Whether \p Thread's crossings are recorded and checked. Always true
  /// without a sampler. Used by the wrapper prologue and by the
  /// synthesized native wrapper to gate the whole boundary.
  bool checksThread(jvm::JThread &Thread) const;

  /// Teardown-only (not safe against concurrent crossings, unlike the
  /// installers): drops every slot, the sampler, and every table.
  void clear();

private:
  /// Compiles the registry and publishes the result. Caller holds InstallMu.
  void publishLocked();

  /// Serializes installation (rare); crossings never take this lock.
  mutable std::mutex InstallMu;
  std::vector<DispatchSlot> PreAll;
  std::vector<DispatchSlot> PostAll;
  std::array<std::vector<DispatchSlot>, jni::NumJniFunctions> Pre;
  std::array<std::vector<DispatchSlot>, jni::NumJniFunctions> Post;
  std::vector<std::shared_ptr<const void>> KeepAlive;
  /// Every table published since the last clear(); the last is current.
  std::vector<std::unique_ptr<const DispatchTable>> Tables;
  std::atomic<const DispatchTable *> Current;
  /// Sampling predicate plus its generation tag: the thread-local decision
  /// cache is keyed by (generation, thread id), so replacing the sampler
  /// or reattaching an OS thread under a new VM thread id invalidates the
  /// cache without any cross-thread bookkeeping. The predicate itself is
  /// only read under InstallMu, on a cache miss.
  SamplePredicate Sampler;
  std::atomic<uint64_t> SamplerGen{0};
};

/// The generated interposed function table (shared, immutable).
const JNINativeInterface_ *interposedTable();

/// Returns the dispatcher of \p Runtime, creating and installing the
/// interposed table on first use.
InterposeDispatcher &dispatcherFor(jni::JniRuntime &Runtime);

/// Removes interposition from \p Runtime (restores the default table).
void removeInterposition(jni::JniRuntime &Runtime);

} // namespace jinn::jvmti

#endif // JINN_JVMTI_INTERPOSE_H
