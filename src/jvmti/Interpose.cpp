//===- jvmti/Interpose.cpp - JNI function-table interposition ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvmti/Interpose.h"

#include "jni/EnvImplDetail.h"
#include "jvm/JThread.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

using namespace jinn;
using namespace jinn::jvmti;
using jinn::jni::ArgClass;
using jinn::jni::FnId;

//===----------------------------------------------------------------------===
// CapturedCall
//===----------------------------------------------------------------------===

jvm::MethodInfo *CapturedCall::methodArg() const {
  int Index = Traits->firstParam(ArgClass::MethodId);
  if (Index < 0)
    return nullptr;
  const void *Ptr = Args[Index].Ptr;
  // Under replay the registry may have changed since recording; trust the
  // validity bit snapshotted at crossing time instead.
  bool Valid = Snap ? Snap->MethodIdValid : (Ptr && vm().isMethodId(Ptr));
  if (!Ptr || !Valid)
    return nullptr;
  return const_cast<jvm::MethodInfo *>(
      static_cast<const jvm::MethodInfo *>(Ptr));
}

uint64_t CapturedCall::methodArgWord() const {
  int Index = Traits->firstParam(ArgClass::MethodId);
  return Index < 0 ? 0 : Args[Index].Word;
}

jvm::FieldInfo *CapturedCall::fieldArg() const {
  int Index = Traits->firstParam(ArgClass::FieldId);
  if (Index < 0)
    return nullptr;
  const void *Ptr = Args[Index].Ptr;
  bool Valid = Snap ? Snap->FieldIdValid : (Ptr && vm().isFieldId(Ptr));
  if (!Ptr || !Valid)
    return nullptr;
  return const_cast<jvm::FieldInfo *>(
      static_cast<const jvm::FieldInfo *>(Ptr));
}

uint64_t CapturedCall::fieldArgWord() const {
  int Index = Traits->firstParam(ArgClass::FieldId);
  return Index < 0 ? 0 : Args[Index].Word;
}

bool CapturedCall::returnFieldIdValid() const {
  if (Snap)
    return Snap->RetFieldIdValid;
  return RetPtr && vm().isFieldId(RetPtr);
}

bool CapturedCall::materializeCallArgs() {
  CallArgs.clear();
  if (Snap) {
    // The recorder materialized (and bounds-capped) the argument vector at
    // crossing time; the raw jvalue array pointer in the trace is dead.
    if (!Snap->HasCallArgs)
      return false;
    CallArgs.assign(Snap->CallArgs, Snap->CallArgs + Snap->NumCallArgs);
    return true;
  }
  int ArrIndex = Traits->firstParam(ArgClass::JvalueArray);
  if (ArrIndex < 0)
    return false;
  jvm::MethodInfo *M = methodArg();
  if (!M)
    return false;
  const jvalue *Raw = static_cast<const jvalue *>(Args[ArrIndex].Ptr);
  size_t N = M->Sig.Params.size();
  if (!Raw && N > 0)
    return false;
  CallArgs.assign(Raw, Raw + N);
  return true;
}

void CapturedCall::argumentOverflow() const {
  std::fprintf(stderr,
               "jinn: %s captured more than %zu arguments (MaxJniParams)\n",
               jni::fnName(Id), jni::MaxJniParams);
  std::abort();
}

//===----------------------------------------------------------------------===
// InterposeDispatcher
//===----------------------------------------------------------------------===

namespace {

/// The table every dispatcher publishes before its first install (and
/// after clear()): no slots, so every crossing takes the bare path.
const DispatchTable &emptyTable() {
  static const DispatchTable Empty = [] {
    DispatchTable T;
    for (size_t I = 0; I < jni::NumJniFunctions; ++I)
      T.Fns[I].Traits = &jni::fnTraits(static_cast<FnId>(I));
    return T;
  }();
  return Empty;
}

void invokeHook(const void *Obj, CapturedCall &Call) {
  (*static_cast<const HookFn *>(Obj))(Call);
}

/// Wraps \p Hook as a slot whose callable the batch keeps alive.
DispatchSlot hookSlot(HookFn Hook, SlotBatch &Batch) {
  auto Owned = std::make_shared<const HookFn>(std::move(Hook));
  DispatchSlot Slot{&invokeHook, Owned.get()};
  Batch.KeepAlive.push_back(std::move(Owned));
  return Slot;
}

/// Per-OS-thread cache of the sampling decision, keyed by the dispatcher's
/// sampler generation and the VM thread id. Thread ids are never reused,
/// so a worker that detaches and reattaches as a new request thread misses
/// the cache and re-evaluates the predicate for its new identity.
struct SampleCacheEntry {
  uint64_t Gen = 0;
  uint32_t ThreadId = 0;
  bool Sampled = true;
};
thread_local SampleCacheEntry LocalSampleCache;

std::atomic<uint64_t> NextSamplerGen{1};

} // namespace

InterposeDispatcher::InterposeDispatcher() : Current(&emptyTable()) {}

void InterposeDispatcher::install(SlotBatch Batch) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  PreAll.insert(PreAll.end(), Batch.PreAll.begin(), Batch.PreAll.end());
  PostAll.insert(PostAll.end(), Batch.PostAll.begin(), Batch.PostAll.end());
  for (const auto &[Id, Slot] : Batch.Pre)
    Pre[static_cast<size_t>(Id)].push_back(Slot);
  for (const auto &[Id, Slot] : Batch.Post)
    Post[static_cast<size_t>(Id)].push_back(Slot);
  for (std::shared_ptr<const void> &Owner : Batch.KeepAlive)
    KeepAlive.push_back(std::move(Owner));
  publishLocked();
}

void InterposeDispatcher::addPre(FnId Id, HookFn Hook) {
  SlotBatch Batch;
  Batch.Pre.push_back({Id, hookSlot(std::move(Hook), Batch)});
  install(std::move(Batch));
}

void InterposeDispatcher::addPost(FnId Id, HookFn Hook) {
  SlotBatch Batch;
  Batch.Post.push_back({Id, hookSlot(std::move(Hook), Batch)});
  install(std::move(Batch));
}

void InterposeDispatcher::addPreAll(HookFn Hook) {
  SlotBatch Batch;
  Batch.PreAll.push_back(hookSlot(std::move(Hook), Batch));
  install(std::move(Batch));
}

void InterposeDispatcher::addPostAll(HookFn Hook) {
  SlotBatch Batch;
  Batch.PostAll.push_back(hookSlot(std::move(Hook), Batch));
  install(std::move(Batch));
}

void InterposeDispatcher::publishLocked() {
  auto Table = std::make_unique<DispatchTable>();
  Table->Sampling = SamplerGen.load(std::memory_order_relaxed) != 0;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    DispatchTable::FnRec &Rec = Table->Fns[I];
    std::vector<DispatchSlot> &Slots = Table->Slots;
    Rec.PreBegin = static_cast<uint32_t>(Slots.size());
    Slots.insert(Slots.end(), PreAll.begin(), PreAll.end());
    Slots.insert(Slots.end(), Pre[I].begin(), Pre[I].end());
    Rec.PreCount = static_cast<uint32_t>(Slots.size() - Rec.PreBegin);
    Rec.PostBegin = static_cast<uint32_t>(Slots.size());
    Slots.insert(Slots.end(), PostAll.begin(), PostAll.end());
    Slots.insert(Slots.end(), Post[I].begin(), Post[I].end());
    Rec.PostCount = static_cast<uint32_t>(Slots.size() - Rec.PostBegin);
    Rec.Traits = &jni::fnTraits(static_cast<FnId>(I));
  }
  Current.store(Table.get(), std::memory_order_release);
  Tables.push_back(std::move(Table));
}

void InterposeDispatcher::setSampler(SamplePredicate Fn) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  Sampler = std::move(Fn);
  SamplerGen.store(Sampler
                       ? NextSamplerGen.fetch_add(1, std::memory_order_relaxed)
                       : 0,
                   std::memory_order_release);
  publishLocked();
}

bool InterposeDispatcher::checksThread(jvm::JThread &Thread) const {
  uint64_t Gen = SamplerGen.load(std::memory_order_acquire);
  if (!Gen)
    return true;
  SampleCacheEntry &Cache = LocalSampleCache;
  if (Cache.Gen == Gen && Cache.ThreadId == Thread.id())
    return Cache.Sampled;
  bool Sampled = true;
  {
    // Cold path (once per thread per sampler generation): the predicate is
    // read under the install mutex so setSampler can swap it safely.
    std::lock_guard<std::mutex> Lock(InstallMu);
    if (Sampler)
      Sampled = Sampler(Thread);
  }
  Cache = {Gen, Thread.id(), Sampled};
  return Sampled;
}

size_t InterposeDispatcher::hookCount() const {
  std::lock_guard<std::mutex> Lock(InstallMu);
  size_t N = PreAll.size() + PostAll.size();
  for (size_t I = 0; I < jni::NumJniFunctions; ++I)
    N += Pre[I].size() + Post[I].size();
  return N;
}

size_t InterposeDispatcher::preCount(FnId Id) const {
  return table()->Fns[static_cast<size_t>(Id)].PreCount;
}

size_t InterposeDispatcher::postCount(FnId Id) const {
  return table()->Fns[static_cast<size_t>(Id)].PostCount;
}

void InterposeDispatcher::clear() {
  std::lock_guard<std::mutex> Lock(InstallMu);
  Current.store(&emptyTable(), std::memory_order_release);
  Tables.clear();
  PreAll.clear();
  PostAll.clear();
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    Pre[I].clear();
    Post[I].clear();
  }
  KeepAlive.clear();
  Sampler = nullptr;
  SamplerGen.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===
// Generated wrappers and the interposed table
//===----------------------------------------------------------------------===

namespace {

template <FnId Id, typename F, F Impl> struct MakeWrapper;

template <FnId Id, typename Ret, typename... Args,
          Ret (*Impl)(JNIEnv *, Args...)>
struct MakeWrapper<Id, Ret (*)(JNIEnv *, Args...), Impl> {
  static_assert(sizeof...(Args) <= jni::MaxJniParams);

  /// The one specialised wrapper per function: one acquire load of the
  /// published program, one record, and either the bare call (no slot
  /// observes this function) or capture plus the pre and post slot runs.
  static Ret fn(JNIEnv *Env, Args... As) {
    auto *Dispatcher =
        static_cast<InterposeDispatcher *>(Env->runtime->Dispatcher);
    if (!Dispatcher)
      return Impl(Env, As...);
    // The program is picked once per crossing: a republish that lands
    // mid-call finishes this crossing on the (still-owned) old table.
    const DispatchTable *Table = Dispatcher->table();
    const DispatchTable::FnRec &Rec = Table->Fns[static_cast<size_t>(Id)];
    if ((Rec.PreCount | Rec.PostCount) == 0)
      return Impl(Env, As...);
    // Sampled mode gates the whole boundary per thread: an unsampled
    // thread neither records nor checks, and pays only the cached
    // predicate. A sampled thread's full event stream is in the trace, so
    // its inline reports reproduce byte-for-byte offline.
    if (Table->Sampling && !Dispatcher->checksThread(*Env->thread))
      return Impl(Env, As...);
    CapturedCall Call(Id, Env, Rec.Traits);
    (Call.captureOne(As), ...);
    if (Rec.PreCount) {
      Table->runPre(Rec, Call);
      if (Call.aborted()) {
        // An observer suppressed the call (paper Figure 4: "raise a JNI
        // exception" instead of executing the faulty call).
        if constexpr (!std::is_void_v<Ret>)
          return Ret{};
        else
          return;
      }
    }
    if constexpr (std::is_void_v<Ret>) {
      Impl(Env, As...);
      if (Rec.PostCount) {
        Call.setReturnVoid();
        Table->runPost(Rec, Call);
      }
    } else {
      Ret Result = Impl(Env, As...);
      if (Rec.PostCount) {
        Call.setReturn(Result);
        Table->runPost(Rec, Call);
      }
      return Result;
    }
  }
};

// Variadic and va_list forms are not wrapped: they delegate (through the
// active table) to the A forms, where the checks run exactly once.
const JNINativeInterface_ InterposedTable = {
#define JNI_FN(Name, Ret, Params, Args)                                      \
  &MakeWrapper<FnId::Name, Ret(*) Params, &jinn::jni::impl_##Name>::fn,
#define JNI_FN_VA(Name, Ret, Params, Args) &jinn::jni::impl_##Name,
#define JNI_FN_VL(Name, Ret, Params, Args) &jinn::jni::impl_##Name,
#include "jni/JniFunctions.def"
#undef JNI_FN_VL
#undef JNI_FN_VA
#undef JNI_FN
};

} // namespace

const JNINativeInterface_ *jinn::jvmti::interposedTable() {
  return &InterposedTable;
}

InterposeDispatcher &jinn::jvmti::dispatcherFor(jni::JniRuntime &Runtime) {
  if (!Runtime.Dispatcher) {
    auto Owned = std::make_shared<InterposeDispatcher>();
    Runtime.Dispatcher = Owned.get();
    Runtime.DispatcherOwner = Owned;
    Runtime.setActiveTable(interposedTable());
  }
  return *static_cast<InterposeDispatcher *>(Runtime.Dispatcher);
}

void jinn::jvmti::removeInterposition(jni::JniRuntime &Runtime) {
  Runtime.Dispatcher = nullptr;
  Runtime.DispatcherOwner.reset();
  Runtime.setActiveTable(nullptr);
}
