//===- trace/Recorder.cpp - Per-thread lock-free boundary recorder -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

#include "jni/JniRuntime.h"
#include "jvm/JThread.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <x86intrin.h>
#define JINN_TRACE_HAVE_RDTSC 1
#endif

using namespace jinn;
using namespace jinn::trace;

const char *jinn::trace::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::JniPre:
    return "jni-pre";
  case EventKind::JniPost:
    return "jni-post";
  case EventKind::NativeEntry:
    return "native-entry";
  case EventKind::NativeExit:
    return "native-exit";
  case EventKind::NativeBind:
    return "native-bind";
  case EventKind::ThreadAttach:
    return "thread-attach";
  case EventKind::ThreadDetach:
    return "thread-detach";
  case EventKind::GcEpoch:
    return "gc-epoch";
  case EventKind::VmDeath:
    return "vm-death";
  }
  return "unknown";
}

std::string Trace::threadName(uint32_t Id) const {
  auto It = ThreadNames.find(Id);
  if (It != ThreadNames.end() && !It->second.empty())
    return It->second;
  return "thread-" + std::to_string(Id);
}

void Trace::rebuildThreadNames() {
  ThreadNames.clear();
  for (const TraceEvent &Ev : Events)
    if (Ev.Kind == EventKind::ThreadAttach)
      ThreadNames[Ev.ThreadId] = Ev.Name;
}

bool Trace::wellFormed(std::string *Err) const {
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &Ev = Events[I];
    const char *Bad = nullptr;
    bool Jni = Ev.Kind == EventKind::JniPre || Ev.Kind == EventKind::JniPost;
    if (Jni && Ev.Fn >= jni::NumJniFunctions)
      Bad = "JNI function id out of range";
    else if (Jni && Ev.NumArgs > TraceEvent::MaxArgs)
      Bad = "more JNI arguments than a trace event holds";
    else if (Ev.NumNativeArgs > TraceEvent::MaxNativeArgs)
      Bad = "more native arguments than a trace event holds";
    else if (Ev.Snap.NumPeeks > jvmti::BoundarySnapshot::MaxPeeks ||
             Ev.Snap.NumCallArgs > jvmti::BoundarySnapshot::MaxCallArgs)
      Bad = "snapshot count past its capacity";
    if (Bad) {
      if (Err)
        *Err = "malformed trace event " + std::to_string(I) + " (" +
               eventKindName(Ev.Kind) + "): " + Bad;
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===
// Per-thread buffers
//===----------------------------------------------------------------------===

/// Owned and written by exactly one OS thread; collect() reads it only
/// after that thread quiesced (the join provides the happens-before edge),
/// and retireLocalBuffer() moves it to the free pool from its own owner
/// thread. NextSeq survives retirement so a recycled buffer keeps strictly
/// increasing sequence numbers.
struct TraceRecorder::ThreadBuffer {
  std::vector<TraceEvent> Ring;
  size_t Count = 0; ///< valid events in Ring
  uint64_t NextSeq = 0;
  std::vector<std::vector<TraceEvent>> Chunks; ///< sealed full rings
};

namespace {

/// Thread-local pointer to this thread's buffer in the recorder it last
/// recorded into, tagged with the recorder's instance id so a stale cache
/// from a destroyed recorder is never followed.
struct BufferCache {
  uint64_t RecorderId = 0;
  void *Buffer = nullptr;
};
thread_local BufferCache LocalCache;

std::atomic<uint64_t> NextRecorderId{1};

} // namespace

namespace {

/// Raw event timestamp. On x86 this is one rdtsc — a fraction of a
/// clock_gettime, which matters at one stamp per boundary crossing
/// direction. The tick unit is converted to nanoseconds at collect time;
/// elsewhere it falls back to the monotonic clock (ticks == ns).
inline uint64_t readTicks() {
#ifdef JINN_TRACE_HAVE_RDTSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

} // namespace

TraceRecorder::TraceRecorder(jvm::Vm &Vm, TraceRecorderOptions Opts)
    : Vm(Vm), Opts(Opts),
      InstanceId(NextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      Start(std::chrono::steady_clock::now()), StartTicks(readTicks()) {
  if (this->Opts.RingCapacity == 0)
    this->Opts.RingCapacity = 1;
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer &TraceRecorder::localBuffer() {
  if (LocalCache.RecorderId == InstanceId)
    return *static_cast<ThreadBuffer *>(LocalCache.Buffer);
  std::lock_guard<std::mutex> Lock(RegistryMu);
  // Prefer a buffer a retired thread left behind: attach/detach churn in a
  // server workload then reuses a bounded buffer pool instead of growing
  // the registry by ~RingCapacity events per short-lived thread.
  std::unique_ptr<ThreadBuffer> Recycled;
  if (!FreeBuffers.empty()) {
    Recycled = std::move(FreeBuffers.back());
    FreeBuffers.pop_back();
  } else {
    Recycled = std::make_unique<ThreadBuffer>();
  }
  Buffers.push_back(std::move(Recycled));
  ThreadBuffer &Buffer = *Buffers.back();
  Buffer.Ring.resize(Opts.RingCapacity);
  Buffer.Count = 0;
  LocalCache = {InstanceId, &Buffer};
  return Buffer;
}

void TraceRecorder::noteDrop(uint64_t Events) {
  if (!Events)
    return;
  uint64_t Total =
      DroppedTotal.fetch_add(Events, std::memory_order_relaxed) + Events;
  // Surface the loss where operators look: the VM diagnostics counters.
  // Amortized — drops happen at most once per sealed chunk.
  Vm.diags().setCounter("jinn.trace.dropped_events", Total);
}

std::vector<TraceEvent>
TraceRecorder::pushSealedChunk(std::vector<TraceEvent> Chunk) {
  std::vector<TraceEvent> Recycled;
  uint64_t Evicted = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    // The queue bound protects streaming runs from a stalled monitor; in
    // batch mode the queue only holds retired threads' chunks (already
    // bounded per thread) and collect() must still see all of them.
    if (Opts.StreamChunks && Opts.MaxQueuedChunks &&
        SealedQueue.size() >= Opts.MaxQueuedChunks) {
      Evicted = SealedQueue.front().size();
      QueueDropped += Evicted;
      Recycled = std::move(SealedQueue.front());
      SealedQueue.pop_front();
    } else if (!FreeChunks.empty()) {
      Recycled = std::move(FreeChunks.back());
      FreeChunks.pop_back();
    }
    SealedQueue.push_back(std::move(Chunk));
  }
  noteDrop(Evicted);
  return Recycled;
}

TraceEvent &TraceRecorder::beginEvent(ThreadBuffer &Buffer, EventKind Kind) {
  if (Buffer.Count == Buffer.Ring.size()) {
    std::vector<TraceEvent> Fresh;
    if (Opts.StreamChunks) {
      // Streaming: publish the full ring to the recorder-level queue (one
      // short lock per RingCapacity events) and reuse whatever storage the
      // queue handed back.
      Fresh = pushSealedChunk(std::move(Buffer.Ring));
      Fresh.resize(Opts.RingCapacity);
    } else {
      // Batch: seal the full ring into a per-thread chunk. When bounded
      // recording drops the oldest chunk, its storage is recycled as the
      // new ring — steady state then records with no allocation at all,
      // which is what keeps the record-only mode cheap (a 2+ MB
      // allocate/zero/free per seal costs page faults and, across threads,
      // the mmap lock). A thread that never flushes is backstopped by
      // HardChunkCap even in "unbounded" mode.
      size_t Cap = Opts.MaxChunksPerThread
                       ? Opts.MaxChunksPerThread
                       : (Opts.HardChunkCap ? Opts.HardChunkCap : 1);
      if (Buffer.Chunks.size() >= Cap) {
        noteDrop(Buffer.Chunks.front().size());
        Fresh = std::move(Buffer.Chunks.front());
        Buffer.Chunks.erase(Buffer.Chunks.begin());
      } else {
        Fresh.resize(Opts.RingCapacity);
      }
      Buffer.Chunks.push_back(std::move(Buffer.Ring));
    }
    Buffer.Ring = std::move(Fresh);
    Buffer.Count = 0;
  }
  TraceEvent &Ev = Buffer.Ring[Buffer.Count++];
  // Clear only the scalar prefixes (TraceEvent's layout contract): the
  // payload arrays are governed by counts in the prefix, and not touching
  // them keeps the per-event cost at ~140 bytes of stores instead of 600.
  std::memset(static_cast<void *>(&Ev), 0, offsetof(TraceEvent, Args));
  std::memset(static_cast<void *>(&Ev.Snap), 0,
              offsetof(jvmti::BoundarySnapshot, Peeks));
  Ev.Kind = Kind;
  Ev.Fn = 0xFFFF;
  // The merge key is (TimeNs, ThreadId, Seq); collect() assigns the global
  // epoch from it. No cross-thread coordination here — a shared atomic
  // counter would put one cache line between every recording thread.
  Ev.Seq = Buffer.NextSeq++;
  Ev.TimeNs = readTicks() - StartTicks; // raw ticks until collect()
  return Ev;
}

//===----------------------------------------------------------------------===
// Snapshot capture
//===----------------------------------------------------------------------===

void TraceRecorder::capturePeek(jvmti::BoundarySnapshot &Snap, uint64_t Word,
                                const jvm::JThread *Perspective) {
  if (!Word || Snap.findPeek(Word))
    return;
  jvm::Vm::PeekResult Peek = Vm.peekHandle(Word, Perspective);
  Snap.addPeek(Word, Peek.Target.raw(), static_cast<uint8_t>(Peek.S),
               static_cast<uint8_t>(Peek.Kind), Peek.OwnerThread);
}

void TraceRecorder::captureCommon(jvmti::BoundarySnapshot &Snap,
                                  JNIEnv *Env) {
  jvm::JThread *Thread = Env->thread;
  Snap.ThreadId = Thread->id();
  jvm::JThread *Current = Env->runtime->currentThread();
  Snap.CurThreadId = Current ? Current->id() : 0;
  Snap.EnvWord = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Env));
  Snap.ExceptionPending = !Thread->Pending.isNull();
}

void TraceRecorder::captureJniSnapshot(jvmti::BoundarySnapshot &Snap,
                                       jvmti::CapturedCall &Call,
                                       bool IsPost) {
  JNIEnv *Env = Call.env();
  jvm::JThread *Thread = Env->thread;
  captureCommon(Snap, Env);

  const jni::FnTraits &Traits = Call.traits();

  // Every nonzero reference argument, as the machines would peek it.
  for (size_t I = 0; I < Call.numArgs(); ++I)
    if (uint64_t Word = Call.refWord(I))
      capturePeek(Snap, Word, Thread);
  if (IsPost && Call.returnIsRef() && Call.returnWord())
    capturePeek(Snap, Call.returnWord(), Thread);

  // Entity-ID registry checks.
  int MethodIdx = Traits.firstParam(jni::ArgClass::MethodId);
  if (MethodIdx >= 0) {
    const void *Ptr = Call.arg(MethodIdx).Ptr;
    Snap.MethodIdValid = Ptr && Vm.isMethodId(Ptr);
  }
  int FieldIdx = Traits.firstParam(jni::ArgClass::FieldId);
  if (FieldIdx >= 0) {
    const void *Ptr = Call.arg(FieldIdx).Ptr;
    Snap.FieldIdValid = Ptr && Vm.isFieldId(Ptr);
  }
  if (IsPost && Traits.ProducesFieldId)
    Snap.RetFieldIdValid =
        Call.returnPtr() && Vm.isFieldId(Call.returnPtr());

  // Pin-release buffer lookup (the released pointer is matched against the
  // runtime's outstanding pin records at call time).
  if (!IsPost && Traits.Resource == jni::ResourceRole::PinRelease) {
    int BufIdx = Traits.firstParam(jni::ArgClass::OutPtr);
    if (BufIdx < 0)
      BufIdx = Traits.firstParam(jni::ArgClass::CString);
    const void *Buf = BufIdx >= 0 ? Call.arg(BufIdx).Ptr : nullptr;
    if (const jni::BufferRecord *Record =
            Buf ? Env->runtime->findBuffer(Buf) : nullptr) {
      Snap.BufferFound = true;
      Snap.BufferTarget = Record->Target.raw();
    }
  }

  // Decoded call-argument vectors (CallXMethodA family) plus peeks of the
  // reference formals the entity-typing machine conforms.
  if (!IsPost && Traits.hasParam(jni::ArgClass::JvalueArray) &&
      Call.materializeCallArgs()) {
    const std::vector<jvalue> &CallArgs = Call.callArgs();
    if (CallArgs.size() <= jvmti::BoundarySnapshot::MaxCallArgs) {
      Snap.HasCallArgs = true;
      Snap.NumCallArgs = static_cast<uint8_t>(CallArgs.size());
      std::copy(CallArgs.begin(), CallArgs.end(), Snap.CallArgs);
      if (jvm::MethodInfo *Method = Call.methodArg())
        for (size_t I = 0;
             I < CallArgs.size() && I < Method->Sig.Params.size(); ++I)
          if (Method->Sig.Params[I].isReference())
            capturePeek(Snap, jni::handleWord(CallArgs[I].l), Thread);
    }
  }
}

//===----------------------------------------------------------------------===
// Event recording
//===----------------------------------------------------------------------===

void TraceRecorder::recordJni(jvmti::CapturedCall &Call, bool IsPost) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev =
      beginEvent(Buffer, IsPost ? EventKind::JniPost : EventKind::JniPre);
  Ev.Fn = static_cast<uint16_t>(Call.id());
  Ev.ThreadId = Call.env()->thread->id();
  Ev.NumArgs = static_cast<uint8_t>(Call.numArgs());
  for (size_t I = 0; I < Call.numArgs(); ++I) {
    const jvmti::CapturedArg &Arg = Call.arg(I);
    Ev.Args[I] = {static_cast<uint8_t>(Arg.Cls), Arg.Word,
                  static_cast<uint64_t>(
                      reinterpret_cast<uintptr_t>(Arg.Ptr))};
  }
  if (IsPost) {
    Ev.HasReturn = Call.hasReturn();
    Ev.RetIsRef = Call.returnIsRef();
    Ev.RetWord = Call.returnWord();
    Ev.RetPtrWord = static_cast<uint64_t>(
        reinterpret_cast<uintptr_t>(Call.returnPtr()));
  }
  captureJniSnapshot(Ev.Snap, Call, IsPost);
}

void TraceRecorder::installJniHooks(jvmti::InterposeDispatcher &Dispatcher) {
  jvmti::SlotBatch Batch;
  Batch.PreAll.push_back({&recordPre, this});
  Batch.PostAll.push_back({&recordPost, this});
  Dispatcher.install(std::move(Batch));
}

void TraceRecorder::recordPre(const void *Self, jvmti::CapturedCall &Call) {
  const_cast<TraceRecorder *>(static_cast<const TraceRecorder *>(Self))
      ->recordJni(Call, false);
}

void TraceRecorder::recordPost(const void *Self, jvmti::CapturedCall &Call) {
  const_cast<TraceRecorder *>(static_cast<const TraceRecorder *>(Self))
      ->recordJni(Call, true);
}

void TraceRecorder::recordThreadAttach(jvm::JThread &Thread) {
  TraceEvent &Ev = beginEvent(localBuffer(), EventKind::ThreadAttach);
  Ev.ThreadId = Thread.id();
  std::snprintf(Ev.Name, sizeof(Ev.Name), "%s", Thread.name().c_str());
  Ev.Snap.ThreadId = Thread.id();
  Ev.Snap.EnvWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Thread.EnvPtr));
}

void TraceRecorder::recordThreadDetach(jvm::JThread &Thread) {
  TraceEvent &Ev = beginEvent(localBuffer(), EventKind::ThreadDetach);
  Ev.ThreadId = Thread.id();
  Ev.Snap.ThreadId = Thread.id();
}

void TraceRecorder::recordGcEpoch() {
  beginEvent(localBuffer(), EventKind::GcEpoch);
}

void TraceRecorder::recordVmDeath() {
  beginEvent(localBuffer(), EventKind::VmDeath);
}

void TraceRecorder::recordNativeBind(jvm::MethodInfo &Method) {
  TraceEvent &Ev = beginEvent(localBuffer(), EventKind::NativeBind);
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
}

void TraceRecorder::onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env,
                                  jobject Self, const jvalue *Args) {
  TraceEvent &Ev = beginEvent(localBuffer(), EventKind::NativeEntry);
  Ev.ThreadId = Env->thread->id();
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
  Ev.SelfWord = jni::handleWord(Self);
  size_t NumParams = Method.Sig.Params.size();
  if (NumParams > TraceEvent::MaxNativeArgs) {
    Ev.NativeArgsTruncated = true;
    NumParams = TraceEvent::MaxNativeArgs;
  }
  if (Args) {
    Ev.NumNativeArgs = static_cast<uint8_t>(NumParams);
    std::copy(Args, Args + NumParams, Ev.NativeArgs);
  }
  captureCommon(Ev.Snap, Env);
}

void TraceRecorder::onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env,
                                 jobject Self, const jvalue *Args,
                                 const jvalue *Ret, bool EntryAborted) {
  TraceEvent &Ev = beginEvent(localBuffer(), EventKind::NativeExit);
  Ev.ThreadId = Env->thread->id();
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
  Ev.SelfWord = jni::handleWord(Self);
  Ev.Aborted = EntryAborted;
  size_t NumParams = Method.Sig.Params.size();
  if (NumParams > TraceEvent::MaxNativeArgs) {
    Ev.NativeArgsTruncated = true;
    NumParams = TraceEvent::MaxNativeArgs;
  }
  if (Args) {
    Ev.NumNativeArgs = static_cast<uint8_t>(NumParams);
    std::copy(Args, Args + NumParams, Ev.NativeArgs);
  }
  if (Ret) {
    Ev.HasReturn = true;
    Ev.NativeRet = *Ret;
  }
  captureCommon(Ev.Snap, Env);
  // The local-ref and global-ref machines peek a returned reference.
  if (Ret && Method.Sig.Ret.isReference())
    capturePeek(Ev.Snap, jni::handleWord(Ret->l), Env->thread);
}

//===----------------------------------------------------------------------===
// Collection
//===----------------------------------------------------------------------===

double TraceRecorder::nsPerTick() {
  // Calibrate the tick unit against the monotonic clock over the span
  // recorded so far, once, and cache the factor: every segment of one
  // recording (incremental drains and the final collect) must use the
  // *same* monotonic scaling, or cross-segment merge order could invert.
  std::lock_guard<std::mutex> Lock(CalibMu);
  if (CachedNsPerTick == 0.0) {
    uint64_t ElapsedTicks = readTicks() - StartTicks;
    uint64_t ElapsedNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    CachedNsPerTick = ElapsedTicks
                          ? static_cast<double>(ElapsedNs) /
                                static_cast<double>(ElapsedTicks)
                          : 1.0;
  }
  return CachedNsPerTick;
}

void TraceRecorder::convertTicks(std::vector<TraceEvent> &Events) {
  double Factor = nsPerTick();
  for (TraceEvent &Ev : Events)
    Ev.TimeNs =
        static_cast<uint64_t>(static_cast<double>(Ev.TimeNs) * Factor);
}

void TraceRecorder::finalizeOrder(Trace &Out) {
  std::sort(Out.Events.begin(), Out.Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.TimeNs != B.TimeNs)
                return A.TimeNs < B.TimeNs;
              if (A.ThreadId != B.ThreadId)
                return A.ThreadId < B.ThreadId;
              return A.Seq < B.Seq;
            });
  for (size_t I = 0; I < Out.Events.size(); ++I)
    Out.Events[I].Epoch = I;
  Out.rebuildThreadNames();
}

Trace TraceRecorder::collect() {
  Trace Out;
  Out.Head.NativeFrameCapacity = Vm.options().NativeFrameCapacity;
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    for (const std::unique_ptr<ThreadBuffer> &Buffer : Buffers) {
      for (const std::vector<TraceEvent> &Chunk : Buffer->Chunks)
        Out.Events.insert(Out.Events.end(), Chunk.begin(), Chunk.end());
      Out.Events.insert(Out.Events.end(), Buffer->Ring.begin(),
                        Buffer->Ring.begin() +
                            static_cast<ptrdiff_t>(Buffer->Count));
    }
  }
  {
    // Queued-but-undrained chunks (streaming mode, retired threads) are
    // part of the recording too; copy them non-destructively so a final
    // "drain then collect" harvest sees each event exactly once and a
    // collect() without drains still sees everything.
    std::lock_guard<std::mutex> Lock(QueueMu);
    for (const std::vector<TraceEvent> &Chunk : SealedQueue)
      Out.Events.insert(Out.Events.end(), Chunk.begin(), Chunk.end());
  }
  Out.Head.DroppedEvents = DroppedTotal.load(std::memory_order_relaxed);
  convertTicks(Out.Events);
  finalizeOrder(Out);
  return Out;
}

Trace TraceRecorder::drainSealed() {
  Trace Out;
  Out.Head.NativeFrameCapacity = Vm.options().NativeFrameCapacity;
  std::deque<std::vector<TraceEvent>> Popped;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Popped.swap(SealedQueue);
    uint64_t Total = DroppedTotal.load(std::memory_order_relaxed);
    Out.Head.DroppedEvents = Total - DrainReportedDropped;
    DrainReportedDropped = Total;
  }
  size_t TotalEvents = 0;
  for (const std::vector<TraceEvent> &Chunk : Popped)
    TotalEvents += Chunk.size();
  Out.Events.reserve(TotalEvents);
  for (std::vector<TraceEvent> &Chunk : Popped)
    Out.Events.insert(Out.Events.end(), Chunk.begin(), Chunk.end());
  {
    // Return the drained storage to the recycle pool; sealing threads pick
    // it up instead of allocating fresh rings.
    std::lock_guard<std::mutex> Lock(QueueMu);
    for (std::vector<TraceEvent> &Chunk : Popped)
      if (FreeChunks.size() < Opts.MaxQueuedChunks)
        FreeChunks.push_back(std::move(Chunk));
  }
  convertTicks(Out.Events);
  finalizeOrder(Out);
  return Out;
}

void TraceRecorder::retireLocalBuffer() {
  if (LocalCache.RecorderId != InstanceId)
    return;
  auto *Buffer = static_cast<ThreadBuffer *>(LocalCache.Buffer);
  LocalCache = {};
  std::unique_ptr<ThreadBuffer> Owned;
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    for (auto It = Buffers.begin(); It != Buffers.end(); ++It)
      if (It->get() == Buffer) {
        Owned = std::move(*It);
        Buffers.erase(It);
        break;
      }
  }
  if (!Owned)
    return;
  // Everything the thread buffered moves to the recorder-level queue: the
  // batch-mode chunks and the partial ring (trimmed to its live prefix).
  for (std::vector<TraceEvent> &Chunk : Owned->Chunks)
    pushSealedChunk(std::move(Chunk));
  Owned->Chunks.clear();
  if (Owned->Count) {
    Owned->Ring.resize(Owned->Count);
    pushSealedChunk(std::move(Owned->Ring));
    Owned->Ring = {};
  }
  Owned->Count = 0;
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    FreeBuffers.push_back(std::move(Owned));
  }
}

size_t TraceRecorder::liveThreadBuffers() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  return Buffers.size();
}

uint64_t TraceRecorder::droppedEvents() {
  return DroppedTotal.load(std::memory_order_relaxed);
}
