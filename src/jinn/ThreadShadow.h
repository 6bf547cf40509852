//===- jinn/ThreadShadow.h - One shadow block per checked thread ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shadow state that belongs to one VM thread, shared by the seven
/// machines whose encodings are per thread (DESIGN.md §10): the expected
/// JNIEnv, the critical-section depth, the three pushdown depths, the
/// critical resources and monitors held per object, and the
/// local-reference shadow. A MachineSet owns one ThreadShadows registry; each crossing
/// finds its thread's block once — a thread-local (instance, logical
/// thread id) cache, then a memo on the CapturedCall — and every machine
/// action of that crossing reads and writes the block with no lock and
/// no atomic read-modify-write.
///
/// Only crossings of the block's thread write it. Depth fields are
/// relaxed atomics, each write a load and a store, so the cross-thread
/// observers (depthOf, the VM-death sweeps) read them race-free at any
/// time. The maps and the local-reference shadow are plain memory: they
/// may be observed from another thread only once the owner has quiesced.
/// Replay runs every recorded thread on one OS thread and keys the blocks
/// by the recorded (logical) id.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_THREADSHADOW_H
#define JINN_JINN_THREADSHADOW_H

#include "jinn/LocalRefShadow.h"
#include "spec/StateMachine.h"
#include "support/OpenMap.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace jinn::agent {

/// A depth only its own thread's crossings write: a relaxed load and a
/// relaxed store, never a read-modify-write. Any thread may read it.
class ShadowDepth {
public:
  int32_t get() const { return V.load(std::memory_order_relaxed); }
  void add(int32_t Delta) {
    V.store(V.load(std::memory_order_relaxed) + Delta,
            std::memory_order_relaxed);
  }

private:
  std::atomic<int32_t> V{0};
};

/// What one thread holds of one object through JNI. An entry leaves its
/// map when both counts are back at zero.
struct HeldCounts {
  int32_t Criticals = 0; ///< open critical acquisitions (CriticalState)
  int32_t Monitors = 0;  ///< JNI monitor entries (Monitor)
  bool empty() const { return Criticals == 0 && Monitors == 0; }
};

/// One VM thread's shadow state (see file comment). There is one per
/// thread a soak ever attached, so it is kept small: a thread usually
/// holds a monitor or critical resource or two, and the held map starts
/// at two slots.
struct ThreadShadow {
  explicit ThreadShadow(uint32_t FrameCapacity) : Locals(FrameCapacity) {}

  std::atomic<uint64_t> ExpectedEnv{0}; ///< JNIEnv identity (0: unknown)
  ShadowDepth CriticalDepth;            ///< critical-section state
  ShadowDepth LocalFrameDepth;          ///< explicit PushLocalFrame frames
  ShadowDepth MonitorDepth;             ///< JNI monitor entries (balance)
  ShadowDepth CriticalNestingDepth;     ///< open critical sections
  OpenMap<HeldCounts, 2> Held;          ///< object identity -> held counts
  LocalRefShadow Locals;
};

/// The per-MachineSet registry of thread blocks. Its mutex is taken only
/// to find or create a block on a thread-local cache miss and by the
/// cross-thread observers; the count of those acquisitions is the
/// contention proxy the local-reference machine publishes.
class ThreadShadows {
public:
  ThreadShadows();
  ThreadShadows(const ThreadShadows &) = delete;
  ThreadShadows &operator=(const ThreadShadows &) = delete;

  /// The block of the crossing's thread, looked up once per crossing and
  /// memoized on its CapturedCall.
  ThreadShadow &at(spec::TransitionContext &Ctx) {
    jvmti::CapturedCall &Call = Ctx.call();
    if (void *Memo = Call.memo(this))
      return *static_cast<ThreadShadow *>(Memo);
    ThreadShadow &Block = of(Ctx.threadId());
    Call.setMemo(this, &Block);
    return Block;
  }

  /// The block of a starting thread, created with its frame capacity when
  /// no crossing made it first.
  ThreadShadow &start(const spec::ThreadStartInfo &Info);

  /// Cross-thread observation: the block of \p ThreadId, or nullptr.
  const ThreadShadow *find(uint32_t ThreadId) const;

  /// Visits every block under the registry lock (VM-death sweeps).
  template <typename Fn> void forEach(Fn &&Visit) const {
    std::lock_guard<std::mutex> Lock(lock());
    for (const auto &[Id, Block] : Blocks)
      Visit(Block);
  }

  /// Registry lock acquisitions so far.
  uint64_t lockAcquires() const {
    return Acquires.load(std::memory_order_relaxed);
  }

private:
  /// The block of logical thread \p ThreadId through the thread-local
  /// cache, created (base frame of the default capacity) on first touch.
  ThreadShadow &of(uint32_t ThreadId);
  /// Counts the acquisition, then hands out the mutex to lock.
  std::mutex &lock() const {
    Acquires.fetch_add(1, std::memory_order_relaxed);
    return Mu;
  }
  ThreadShadow &findOrCreate(uint32_t ThreadId, uint32_t FrameCapacity);

  mutable std::mutex Mu; ///< guards the Blocks map structure
  mutable std::atomic<uint64_t> Acquires{0};
  /// Blocks live in the map's nodes, which never move, so the references
  /// handed out stay valid for the registry's lifetime.
  std::unordered_map<uint32_t, ThreadShadow> Blocks;
  const uint64_t InstanceId; ///< keys the thread-local cache
};

} // namespace jinn::agent

#endif // JINN_JINN_THREADSHADOW_H
