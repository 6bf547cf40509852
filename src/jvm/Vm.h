//===- jvm/Vm.h - The miniature Java virtual machine ---------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The miniature JVM the reproduction runs multilingual programs on. It
/// owns the class registry, heap, threads, global/weak reference tables,
/// monitors, pinned resources, and the undefined-behavior policy that makes
/// production runs behave like Table 1's "Default Behavior" columns.
///
/// The JNI layer (src/jni) builds the 229-function JNIEnv on top of this
/// class; the JVMTI layer (src/jvmti) observes it through VmEventObserver.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVM_VM_H
#define JINN_JVM_VM_H

#include "jvm/Concurrent.h"
#include "jvm/Handle.h"
#include "jvm/Heap.h"
#include "jvm/JThread.h"
#include "jvm/Klass.h"
#include "jvm/Policy.h"
#include "jvm/Value.h"
#include "support/Diagnostics.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jinn::jvm {

/// Construction-time options.
struct VmOptions {
  VmFlavor Flavor = VmFlavor::HotSpotLike;
  /// Capacity of the implicit local frame pushed around native calls. The
  /// JNI specification guarantees 16.
  uint32_t NativeFrameCapacity = 16;
  /// Whether collections relocate surviving objects (simulated motion).
  bool MoveOnGc = true;
  /// Automatic GC every N allocations (0 = manual only).
  uint32_t AutoGcPeriod = 0;
  /// Echo incidents to stderr as they are recorded.
  bool EchoDiagnostics = false;
  /// Split the mark phase across several short stop-the-world pauses with
  /// mutator windows between them (DESIGN.md §12). When false, the whole
  /// collection runs in one pause, as before.
  bool IncrementalMark = true;
  /// Objects traced per incremental mark pause.
  uint32_t GcMarkStepBudget = 2048;
  /// Slots reserved per thread-local allocation buffer refill.
  uint32_t TlabSlots = 64;
};

/// JVMTI-style event observer. The JVMTI layer adapts agent callbacks onto
/// this interface.
class VmEventObserver {
public:
  virtual ~VmEventObserver();
  virtual void onThreadStart(JThread &Thread) { (void)Thread; }
  virtual void onThreadEnd(JThread &Thread) { (void)Thread; }
  virtual void onVmDeath() {}
  virtual void onGcFinish() {}
};

/// Result of a monitor operation.
enum class MonitorResult : uint8_t { Ok, WouldBlock, IllegalState };

/// How a resource was pinned (paper Figure 8, "pinned or copied").
enum class PinKind : uint8_t { ArrayElements, StringChars, StringUtfChars,
                               CriticalArray, CriticalString };

/// An outstanding pin of a string or array.
struct PinRecord {
  ObjectId Target;
  PinKind Kind;
  uint32_t ThreadId;
  uint64_t Cookie; ///< unique id, doubles as the released-buffer key
};

class Vm {
public:
  explicit Vm(VmOptions Options = VmOptions());
  ~Vm();
  Vm(const Vm &) = delete;
  Vm &operator=(const Vm &) = delete;

  const VmOptions &options() const { return Options; }
  DiagnosticSink &diags() { return Diags; }
  Heap &heap() { return TheHeap; }

  //===--------------------------------------------------------------------===
  // Classes
  //===--------------------------------------------------------------------===

  /// Defines a class from \p Def. Returns null (and records an error) when
  /// the definition is malformed or the superclass is missing.
  Klass *defineClass(const ClassDef &Def);

  /// Looks up a class by internal name ("java/lang/String", "[I"). Array
  /// classes are materialized on demand. Returns null when absent.
  Klass *findClass(std::string_view Name);

  /// The class of \p Obj, or null for null/stale ids.
  Klass *klassOf(ObjectId Obj);

  /// Class a mirror object stands for (null when \p Mirror is not a mirror).
  Klass *klassFromMirror(ObjectId Mirror);

  /// All loaded classes, in definition order.
  const std::vector<Klass *> &loadedClasses() const { return ClassOrder; }

  /// True when \p Ptr is a method (field) metadata pointer this VM issued.
  /// JNI IDs are raw pointers; these registries let the simulator and the
  /// checkers recognize garbage IDs without dereferencing them. Lock-free.
  bool isMethodId(const void *Ptr) const {
    return Ptr && MethodIds.find(reinterpret_cast<uint64_t>(Ptr)) != nullptr;
  }
  bool isFieldId(const void *Ptr) const {
    return Ptr && FieldIds.find(reinterpret_cast<uint64_t>(Ptr)) != nullptr;
  }

  Klass *objectClass() const { return ObjectKlass; }
  Klass *classClass() const { return ClassKlass; }
  Klass *stringClass() const { return StringKlass; }
  Klass *throwableClass() const { return ThrowableKlass; }

  //===--------------------------------------------------------------------===
  // Threads
  //===--------------------------------------------------------------------===

  JThread &mainThread() { return *Threads.front(); }
  JThread &attachThread(std::string Name);
  void detachThread(JThread &Thread);
  JThread *threadById(uint32_t Id);
  const std::vector<std::unique_ptr<JThread>> &threads() const {
    return Threads;
  }

  //===--------------------------------------------------------------------===
  // Allocation and strings
  //===--------------------------------------------------------------------===

  ObjectId newObject(Klass *Kl);
  ObjectId newString(std::string_view Utf8);
  ObjectId newStringUtf16(std::u16string Chars);
  ObjectId newPrimArray(JType ElemKind, size_t Len);
  ObjectId newObjArray(Klass *ElemClass, size_t Len);

  /// UTF-8 contents of a string object ("" for non-strings).
  std::string utf8Of(ObjectId Str);

  //===--------------------------------------------------------------------===
  // Exceptions
  //===--------------------------------------------------------------------===

  /// Builds a throwable of class \p ClassName (which must extend
  /// java/lang/Throwable) carrying \p Message and \p Cause, and capturing
  /// \p Thread's current stack.
  ObjectId makeThrowable(JThread &Thread, const char *ClassName,
                         std::string Message, ObjectId Cause = ObjectId());

  /// makeThrowable + set pending on \p Thread.
  void throwNew(JThread &Thread, const char *ClassName, std::string Message);

  /// Renders "Exception in thread ... \n at ... \nCaused by: ..." text in
  /// the style of Figure 9(c).
  std::string describeThrowable(ObjectId Throwable);

  /// Accessors into throwable fields.
  std::string throwableMessage(ObjectId Throwable);
  ObjectId throwableCause(ObjectId Throwable);

  //===--------------------------------------------------------------------===
  // Invocation
  //===--------------------------------------------------------------------===

  /// Invokes \p Method. With \p VirtualDispatch, re-selects the
  /// implementation from the dynamic class of \p Self. Returns the result or
  /// the default value when an exception became pending.
  Value invoke(JThread &Thread, MethodInfo *Method, const Value &Self,
               const std::vector<Value> &Args, bool VirtualDispatch);

  /// Convenience: look up and invoke ClassName.MethodName(Desc) on \p Self.
  Value invokeByName(JThread &Thread, const char *ClassName,
                     const char *MethodName, const char *Desc,
                     const Value &Self, const std::vector<Value> &Args);

  //===--------------------------------------------------------------------===
  // Global / weak-global references
  //===--------------------------------------------------------------------===

  /// Creates a global (or weak-global) reference; returns the handle word.
  uint64_t newGlobalRef(ObjectId Target, bool Weak);

  /// Live/stale/never-issued classification mirroring LocalRefState.
  LocalRefState globalRefState(const HandleBits &Bits) const;

  /// Resolves a live global handle. A weak handle whose target was
  /// collected resolves to null (legal per JNI).
  ObjectId resolveGlobal(const HandleBits &Bits) const;

  bool deleteGlobalRef(const HandleBits &Bits);

  size_t liveGlobalCount(bool Weak) const;

  //===--------------------------------------------------------------------===
  // Central handle resolution (used by every JNI function)
  //===--------------------------------------------------------------------===

  /// Resolves \p Word as seen by \p Current. Invalid handles (wrong magic,
  /// stale, wrong thread) flow through the undefined-behavior policy with
  /// classification \p NullOpClass and resolve to null. \p WasUndefined is
  /// set when the policy ran.
  ObjectId resolveHandle(JThread &Current, uint64_t Word,
                         bool *WasUndefined = nullptr);

  /// Policy-free handle inspection for tools (JVMTI agents, checkers): never
  /// records incidents, never poisons threads. \p Perspective is the thread
  /// on whose behalf validity is judged (locals of other threads report
  /// WrongThreadLive).
  struct PeekResult {
    enum class Status {
      Null,
      Live,
      Stale,      ///< was valid once, no longer (deleted/popped/freed)
      NotARef,    ///< bit pattern is not a reference handle at all
      WrongThreadLive, ///< live local reference of a different thread
      ClearedWeak,     ///< live weak handle whose target was collected
    };
    Status S = Status::Null;
    ObjectId Target;
    RefKind Kind = RefKind::Null;
    uint32_t OwnerThread = 0;
  };
  PeekResult peekHandle(uint64_t Word, const JThread *Perspective);

  //===--------------------------------------------------------------------===
  // Monitors
  //===--------------------------------------------------------------------===

  /// Enters \p Obj's monitor for \p Thread. An enter on a monitor another
  /// thread owns returns WouldBlock and counts in the Diagnostics counter
  /// "jvm.monitor_contended_enters"; only the first MaxContentionNotes of
  /// them also leave a note, so a contended run keeps a bounded sink.
  MonitorResult monitorEnter(JThread &Thread, ObjectId Obj);
  MonitorResult monitorExit(JThread &Thread, ObjectId Obj);
  static constexpr uint64_t MaxContentionNotes = 8;
  /// Number of distinct monitors currently held (any thread).
  size_t heldMonitorCount() const {
    std::lock_guard<std::mutex> Lock(MonitorsMutex);
    return Monitors.size();
  }

  //===--------------------------------------------------------------------===
  // Pinned resources
  //===--------------------------------------------------------------------===

  /// Pins \p Target; returns the pin cookie.
  uint64_t pinObject(JThread &Thread, ObjectId Target, PinKind Kind);
  /// Unpins by target+kind (JNI release calls identify resources this way).
  /// Returns false when no matching pin exists (double free).
  bool unpinObject(JThread &Thread, ObjectId Target, PinKind Kind);
  const std::vector<PinRecord> &pins() const { return Pins; }

  //===--------------------------------------------------------------------===
  // Undefined behavior, GC, lifecycle
  //===--------------------------------------------------------------------===

  /// Routes an undefined operation through the production policy: records
  /// an incident, possibly poisons \p Thread or raises an NPE.
  ProductionOutcome undefined(JThread &Thread, UndefinedOp Op,
                              std::string Detail);

  /// Forces a collection (skipped while any thread is in a critical region,
  /// mirroring the "JVM disables GC" drastic measure).
  void gc();

  /// Allocation hook driving AutoGcPeriod. \p Newborn is the object the
  /// caller just allocated but has not yet made reachable; it is kept as a
  /// GC root for the duration of any collection this hook triggers —
  /// including a collection run by another thread while this one is parked
  /// waiting its turn.
  void maybeAutoGc(ObjectId Newborn = ObjectId());

  /// True while any thread holds a JNI critical section.
  bool anyThreadInCritical() const;

  /// Fires VM death events exactly once. Called by the destructor if the
  /// embedder did not call it.
  void shutdown();
  bool isShutdown() const { return Shutdown.load(std::memory_order_acquire); }

  //===--------------------------------------------------------------------===
  // Stop-the-world mutator protocol
  //===--------------------------------------------------------------------===

  /// Marks the calling OS thread as an active mutator of this VM for the
  /// scope's lifetime. A collection cannot start while any mutator is
  /// active; conversely a mutator entering while a collection runs parks
  /// until it finishes. Reentrant: nested scopes on the same thread only
  /// touch a thread-local depth counter, so nested JNI calls stay lock-free.
  class MutatorScope {
  public:
    explicit MutatorScope(Vm &Owner) : Owner(Owner) { Owner.enterMutator(); }
    ~MutatorScope() { Owner.exitMutator(); }
    MutatorScope(const MutatorScope &) = delete;
    MutatorScope &operator=(const MutatorScope &) = delete;

  private:
    Vm &Owner;
  };

  void enterMutator();
  void exitMutator();

  /// Striped lock for static field storage (FieldInfo::StaticValue), hashed
  /// by field identity. The JNI layer takes this around static get/set.
  std::mutex &staticFieldLock(const void *Field) {
    return StaticFieldMutexes[(reinterpret_cast<uintptr_t>(Field) >> 4) %
                              StaticFieldMutexes.size()];
  }

  void addObserver(VmEventObserver *Observer);
  void removeObserver(VmEventObserver *Observer);

  /// Opaque backpointer to the JNI runtime built on this VM.
  void *JniRuntimeHandle = nullptr;

  /// RAII scope that keeps freshly allocated, not-yet-reachable objects
  /// alive across further allocations (they are GC roots until the scope
  /// closes). VM-internal construction sequences use this. Roots live on
  /// the owning thread's TempRootStack so concurrent scopes on different
  /// threads never truncate each other's entries.
  class TempRoots {
  public:
    explicit TempRoots(JThread &Thread)
        : Thread(Thread), Base(Thread.TempRootStack.size()) {}
    ~TempRoots() { Thread.TempRootStack.resize(Base); }
    TempRoots(const TempRoots &) = delete;
    TempRoots &operator=(const TempRoots &) = delete;
    void add(ObjectId Id) { Thread.TempRootStack.push_back(Id); }

  private:
    JThread &Thread;
    size_t Base;
  };

private:
  friend struct VmTlsCache;

  void bootstrapCoreClasses();
  Klass *defineClassLocked(const ClassDef &Def);
  Klass *defineArrayClassLocked(std::string_view Name);
  Klass *lookupClassLocked(std::string_view Name) const;
  void registerClassLocked(const std::string &Name, Klass *Kl);
  /// State of a global handle and, when Live, its target (null for a
  /// cleared weak). Lock-free: a seqlock-style read of the slot, retried
  /// while a writer moves it, so a concurrent delete or weak clear cannot
  /// tear the pair.
  LocalRefState lookupGlobal(const HandleBits &Bits, ObjectId &Target) const;
  void collectRoots(std::vector<ObjectId> &Roots);
  std::vector<VmEventObserver *> observersSnapshot() const;

  //===--------------------------------------------------------------------===
  // Safepoint protocol (DESIGN.md §12)
  //===--------------------------------------------------------------------===

  /// Per-OS-thread mutator record. `Active` is the thread's safepoint flag:
  /// 1 while it executes VM code that may touch the heap, 0 while it is
  /// outside the VM or parked at a safepoint. `Newborn` publishes the one
  /// object the thread allocated but has not yet made reachable while it
  /// drives (or parks behind) a collection in maybeAutoGc().
  struct MutatorSlot {
    std::atomic<int> Active{0};
    std::atomic<uint64_t> Newborn{0};
  };

  /// Thread-local view of a slot, cached per (thread, VM serial). Depth is
  /// the MutatorScope nesting count, owner-thread-only.
  struct MutatorTls {
    uint64_t Serial = 0;
    Vm *V = nullptr;
    MutatorSlot *Slot = nullptr;
    int Depth = 0;
  };

  MutatorTls &mutatorTlsForCurrentThread();
  static void returnMutatorSlotTrampoline(void *VmPtr, void *SlotPtr);
  void returnMutatorSlot(MutatorSlot *Slot);
  int activeMutatorCount();

  /// Collector-cycle bracket: takes the exclusive collector role (parking
  /// behind a running collection first, with the caller's own mutator slot
  /// deactivated while it waits — the self-mutator exemption).
  void beginCollector();
  void endCollector();
  /// One stop-the-world pause: raises StwRequested and waits until every
  /// mutator slot is inactive. resumeWorld() lowers the flag and wakes
  /// parked mutators. Pause bodies run without StwMutex held.
  void stopWorld();
  void resumeWorld();

  /// One global-table slot, read lock-free (DESIGN.md §12). State packs
  /// the generation (handles carry its low 23 bits) with the live, weak
  /// and cleared bits; it changes at every new, delete and weak clear, and
  /// never repeats. Writers hold GlobalsMutex and order their stores so a
  /// reader that loads State, Target, State and sees State unchanged has
  /// the target that belongs to that state: a new stores Target before its
  /// live State, a delete or weak clear stores its State before zeroing
  /// Target, and every Target store is a release.
  struct GlobalSlot {
    std::atomic<uint64_t> State{0};
    std::atomic<uint64_t> Target{0}; ///< ObjectId::raw()

    static constexpr uint64_t LiveBit = 1, WeakBit = 2, ClearedBit = 4;
    static uint64_t genOf(uint64_t State) { return State >> 3; }
  };

  struct MonitorState {
    uint32_t OwnerThread = 0;
    uint32_t Count = 0;
  };

  VmOptions Options;
  DiagnosticSink Diags;
  Heap TheHeap;

  //===--------------------------------------------------------------------===
  // Locks. Order (outermost first) when more than one must be held:
  //   StwMutex > ClassesMu > ThreadsMutex > GlobalsMutex > MonitorsMutex
  //   > PinsMutex > StaticFieldMutexes > Heap::Mu > ObserversMutex
  //   > DiagnosticSink::Mu
  // (the live-instance registry lock in Concurrent.cpp nests inside all of
  // these). Most paths take exactly one; the hot paths — mutator enter/exit,
  // allocation, handle resolution, class/thread lookup — take none at all:
  // they run on the safepoint flags, TLABs, SnapshotMaps, and the thread
  // table below. Observer callbacks and GC pause bodies run with no lock
  // held (the GC relies on stop-the-world instead).
  //===--------------------------------------------------------------------===

  /// Guards the collector role, StwRequested transitions, and the mutator
  /// slot pool. Taken by a thread's *first* entry into a VM (slot
  /// acquisition), by collections, and by mutators parking at a safepoint —
  /// never on the steady-state mutator enter/exit path.
  mutable std::mutex StwMutex;
  std::condition_variable StwCv;
  std::atomic<bool> StwRequested{false};
  bool CollectorActive = false;

  ChunkedVector<MutatorSlot> MutatorSlots; ///< grown under StwMutex
  std::vector<MutatorSlot *> FreeMutatorSlots;

  mutable std::mutex ClassesMu; ///< serializes definers: Classes, ClassOrder,
                                ///< and inserts into the SnapshotMaps below
  std::map<std::string, std::unique_ptr<Klass>, std::less<>> Classes;
  std::vector<Klass *> ClassOrder;
  Klass *ObjectKlass = nullptr;
  Klass *ClassKlass = nullptr;
  Klass *StringKlass = nullptr;
  Klass *ThrowableKlass = nullptr;

  /// Lock-free read side of the class/method/field registries. Keyed by
  /// name hash (collisions rejected via predicate), mirror id, and raw
  /// pointer value respectively.
  SnapshotMap<Klass *> ClassByName;
  SnapshotMap<Klass *> MirrorToKlass;
  SnapshotMap<const void *> MethodIds;
  SnapshotMap<const void *> FieldIds;

  mutable std::mutex ThreadsMutex; ///< Threads (ownership) and id assignment
  std::vector<std::unique_ptr<JThread>> Threads;
  std::atomic<uint32_t> NextThreadId{1};

  /// Lock-free thread lookup, indexed by thread id (15-bit handle field,
  /// sized for request-per-thread server workloads that never reuse ids).
  /// Threads are never unregistered before VM death, so entries are stable.
  std::array<std::atomic<JThread *>, MaxThreadIds> ThreadTable = {};

  /// Serializes the global table's writers (new, delete, weak clearing,
  /// the root scan, liveGlobalCount) and guards FreeGlobalSlots. Readers
  /// (lookupGlobal and everything built on it) take no lock: slots never
  /// move and are read seqlock-style.
  mutable std::mutex GlobalsMutex;
  ChunkedVector<GlobalSlot> Globals;
  std::vector<uint32_t> FreeGlobalSlots;

  mutable std::mutex MonitorsMutex; ///< Monitors, ContendedEnters
  std::map<uint64_t, MonitorState> Monitors;
  uint64_t ContendedEnters = 0;

  mutable std::mutex PinsMutex; ///< Pins, NextPinCookie, pin-count updates
  std::vector<PinRecord> Pins;
  uint64_t NextPinCookie = 1;

  const uint64_t VmSerial; ///< live-instance registry key for TLS caches

  std::array<std::mutex, 16> StaticFieldMutexes;

  mutable std::mutex ObserversMutex; ///< Observers
  std::vector<VmEventObserver *> Observers;

  std::atomic<uint32_t> AllocsSinceGc{0};
  std::atomic<bool> Shutdown{false};
};

/// UTF conversion helpers (BMP only; adequate for the experiments).
std::u16string utf8ToUtf16(std::string_view Utf8);
std::string utf16ToUtf8(const std::u16string &Chars);

} // namespace jinn::jvm

#endif // JINN_JVM_VM_H
