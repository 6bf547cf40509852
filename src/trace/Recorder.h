//===- trace/Recorder.h - Per-thread lock-free boundary recorder ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace recorder: captures every boundary transition into per-thread
/// ring buffers. The hot path takes no locks and shares no cache lines —
/// each OS thread writes only its own buffer (found through a thread-local
/// cache) and stamps events with the monotonic clock plus a per-thread
/// sequence number. Full rings are sealed into chunks owned by the same
/// thread; when bounded, the oldest chunk is dropped and counted.
///
/// Two consumption models:
///
///  - Batch (the default): collect() merges all buffers into one
///    epoch-ordered Trace. It must only be called when recording threads
///    are quiesced (joined), which gives the necessary happens-before edge
///    without any locking on the record path.
///  - Streaming (StreamChunks): sealed chunks are published to a bounded
///    recorder-level queue (one short lock per RingCapacity events), and a
///    monitor thread drains them incrementally with drainSealed() while
///    recording continues — the production-monitoring mode. Queue overflow
///    drops the oldest chunk and counts it.
///
/// Short-lived threads call retireLocalBuffer() at detach: the partial
/// ring is sealed into the queue and the buffer storage returns to a free
/// pool for the next attaching thread, so a server that churns through
/// thousands of request threads holds a bounded number of buffers.
///
/// Every dropped event (per-thread chunk bound, queue bound, or retirement
/// overflow) is surfaced through the VM's "jinn.trace.dropped_events"
/// diagnostics counter.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_TRACE_RECORDER_H
#define JINN_TRACE_RECORDER_H

#include "trace/TraceEvent.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>

namespace jinn::trace {

struct TraceRecorderOptions {
  /// Events per ring before sealing a chunk. The default keeps one ring
  /// under glibc's 128 KiB mmap threshold so ring churn stays in the
  /// (per-thread, lock-free) malloc arenas — large rings turn every seal
  /// into an mmap/munmap pair, which serializes recording threads on the
  /// kernel's address-space lock and pays a page fault per touched page.
  size_t RingCapacity = 128;
  /// Sealed chunks kept per thread; 0 = full-fidelity traces, still
  /// backstopped by HardChunkCap. When the bound is hit, the oldest chunk
  /// is dropped and counted, which keeps long runs from holding the entire
  /// event stream in memory.
  size_t MaxChunksPerThread = 0;
  /// Hard per-thread backstop applied when MaxChunksPerThread is 0: no
  /// thread may retain more than this many sealed chunks, ever. A thread
  /// that records forever without a flush previously grew without bound;
  /// now it recycles the oldest chunk past this cap (drops are counted and
  /// published). Large enough (1M events at the default ring size) that
  /// full-fidelity replay runs never hit it.
  size_t HardChunkCap = 8192;
  /// Streaming mode: publish sealed chunks to the recorder-level queue for
  /// incremental drainSealed() consumption instead of accumulating them
  /// per thread.
  bool StreamChunks = false;
  /// Sealed chunks the streaming queue holds before dropping the oldest
  /// (counted). Bounds recorder memory when the monitor falls behind.
  size_t MaxQueuedChunks = 256;
};

/// Records boundary crossings. One recorder per agent; installJniHooks()
/// attaches it to the interposed table, setBoundaryObserver() on the
/// synthesizer routes native-method crossings here.
class TraceRecorder : public jvmti::NativeBoundaryObserver {
public:
  explicit TraceRecorder(jvm::Vm &Vm, TraceRecorderOptions Opts = {});
  ~TraceRecorder() override;

  /// Installs the recording pre/post slots on \p Dispatcher (one publish).
  /// They are all-function slots, which the compiled program runs before
  /// any per-function machine slot — so each snapshot freezes the state
  /// the machines were about to observe.
  void installJniHooks(jvmti::InterposeDispatcher &Dispatcher);

  void recordThreadAttach(jvm::JThread &Thread);
  void recordThreadDetach(jvm::JThread &Thread);
  void recordGcEpoch();
  void recordVmDeath();
  void recordNativeBind(jvm::MethodInfo &Method);

  // NativeBoundaryObserver: the synthesized native-method wrapper fires
  // these around the original body.
  void onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env, jobject Self,
                     const jvalue *Args) override;
  void onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env, jobject Self,
                    const jvalue *Args, const jvalue *Ret,
                    bool EntryAborted) override;

  /// Merges every per-thread buffer, retired/queued chunk, into one trace
  /// and assigns the global epoch: events sort by (TimeNs, ThreadId, Seq)
  /// — a deterministic total order that follows real time and breaks clock
  /// ties stably — and the merged index becomes the epoch. Non-destructive
  /// (events are copied); recording may continue after. Caller must ensure
  /// other recording threads are quiesced.
  Trace collect();

  /// Streaming harvest: destructively pops every chunk currently in the
  /// sealed queue and returns them as one merged, epoch-ordered segment.
  /// Safe to call concurrently with recording threads (this is the
  /// monitor's tick path). The segment header's DroppedEvents carries the
  /// drops since the previous drain.
  Trace drainSealed();

  /// Seals the calling OS thread's partial ring into the queue and retires
  /// its buffer to the free pool (reused by the next attaching thread).
  /// Called from the agent's ThreadEnd callback — which runs on the
  /// detaching thread — so short-lived request threads leave no buffered
  /// state behind.
  void retireLocalBuffer();

  /// Number of live (non-retired) per-thread buffers.
  size_t liveThreadBuffers();

  /// Events lost to bounded recording so far, across live buffers, retired
  /// buffers, and the streaming queue.
  uint64_t droppedEvents();

private:
  struct ThreadBuffer;

  ThreadBuffer &localBuffer();
  TraceEvent &beginEvent(ThreadBuffer &Buffer, EventKind Kind);
  void recordJni(jvmti::CapturedCall &Call, bool IsPost);
  /// The dispatch slots: \p Self is the recorder.
  static void recordPre(const void *Self, jvmti::CapturedCall &Call);
  static void recordPost(const void *Self, jvmti::CapturedCall &Call);
  void capturePeek(jvmti::BoundarySnapshot &Snap, uint64_t Word,
                   const jvm::JThread *Perspective);
  void captureCommon(jvmti::BoundarySnapshot &Snap, JNIEnv *Env);
  void captureJniSnapshot(jvmti::BoundarySnapshot &Snap,
                          jvmti::CapturedCall &Call, bool IsPost);
  /// Publishes a sealed (full or partial) chunk to the streaming queue,
  /// enforcing MaxQueuedChunks. Returns recycled storage for the caller's
  /// next ring when the bound evicted a chunk. Caller must not hold
  /// QueueMu.
  std::vector<TraceEvent> pushSealedChunk(std::vector<TraceEvent> Chunk);
  /// Tick-to-nanosecond factor, calibrated once against the monotonic
  /// clock and cached so every segment of one recording uses the same
  /// monotonic scaling (per-drain factors could reorder events across
  /// segments).
  double nsPerTick();
  void convertTicks(std::vector<TraceEvent> &Events);
  static void finalizeOrder(Trace &Out);
  void noteDrop(uint64_t Events);

  jvm::Vm &Vm;
  TraceRecorderOptions Opts;
  uint64_t InstanceId; ///< tags the thread-local buffer cache
  // Events are stamped with raw timestamp-counter ticks on the hot path
  // (one rdtsc instead of a clock_gettime per event); consumers convert
  // to nanoseconds with a calibration measured between these anchors and
  // the first conversion point.
  std::chrono::steady_clock::time_point Start;
  uint64_t StartTicks;
  std::mutex CalibMu;
  double CachedNsPerTick = 0.0;
  std::mutex RegistryMu; ///< guards Buffers and FreeBuffers
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  std::vector<std::unique_ptr<ThreadBuffer>> FreeBuffers;
  /// Sealed chunks not owned by any live thread buffer: the streaming
  /// queue (StreamChunks) plus everything retired threads left behind.
  std::mutex QueueMu;
  std::deque<std::vector<TraceEvent>> SealedQueue;
  std::vector<std::vector<TraceEvent>> FreeChunks; ///< recycled storage
  uint64_t QueueDropped = 0;   ///< events evicted from the queue
  uint64_t RetiredDropped = 0; ///< drops carried over from retired buffers
  uint64_t DrainReportedDropped = 0; ///< drops already reported by drains
  /// Running total of every dropped event, mirrored into the
  /// "jinn.trace.dropped_events" diagnostics counter.
  std::atomic<uint64_t> DroppedTotal{0};
};

} // namespace jinn::trace

#endif // JINN_TRACE_RECORDER_H
