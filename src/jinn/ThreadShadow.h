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
/// local-reference shadow. A MachineSet owns one ThreadShadows table,
/// indexed by VM thread id; every machine action finds its crossing's
/// block with two loads and reads and writes it with no lock and no
/// atomic read-modify-write.
///
/// Only crossings of the block's thread write it. Depth fields are
/// relaxed atomics, each write a load and a store, so the cross-thread
/// observers (depthOf, the VM-death sweeps) read them race-free at any
/// time. The maps and the local-reference shadow are plain memory: they
/// may be observed from another thread only once the owner has quiesced.
/// Replay runs every recorded thread on one OS thread and indexes the
/// table by the recorded id, which Trace::wellFormed keeps below
/// jvm::MaxThreadIds.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_THREADSHADOW_H
#define JINN_JINN_THREADSHADOW_H

#include "jinn/LocalRefShadow.h"
#include "jinn/ShardedState.h"
#include "jvm/Handle.h"
#include "spec/StateMachine.h"
#include "support/OpenMap.h"

#include <atomic>
#include <cstdint>

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

/// The per-MachineSet table of thread blocks: one block pointer per VM
/// thread id, in a ChunkDirectory, so a lookup takes no lock. A block is
/// installed by compare-exchange on its thread's start or first touch,
/// whichever comes first, and lives as long as the table.
class ThreadShadows {
public:
  ThreadShadows() = default;
  ~ThreadShadows();
  ThreadShadows(const ThreadShadows &) = delete;
  ThreadShadows &operator=(const ThreadShadows &) = delete;

  /// The block of the crossing's thread, created (base frame of the
  /// default capacity) on first touch.
  ThreadShadow &at(spec::TransitionContext &Ctx) {
    return of(Ctx.threadId(), DefaultFrameCapacity);
  }

  /// The block of a starting thread, created with its frame capacity when
  /// no crossing made it first.
  ThreadShadow &start(const spec::ThreadStartInfo &Info) {
    return of(Info.Id, Info.FrameCapacity);
  }

  /// Cross-thread observation: the block of \p ThreadId, or nullptr.
  const ThreadShadow *find(uint32_t ThreadId) const {
    if (ThreadId >= jvm::MaxThreadIds)
      return nullptr;
    const std::atomic<ThreadShadow *> *Slot = Blocks.find(ThreadId);
    return Slot ? Slot->load(std::memory_order_acquire) : nullptr;
  }

  /// Visits every block in thread-id order (VM-death sweeps).
  template <typename Fn> void forEach(Fn &&Visit) const {
    Blocks.forEach([&Visit](const std::atomic<ThreadShadow *> &Slot) {
      if (const ThreadShadow *Block = Slot.load(std::memory_order_acquire))
        Visit(*Block);
    });
  }

private:
  /// LocalRefShadow's default base capacity, for blocks a crossing creates
  /// before (or without) a thread start.
  static constexpr uint32_t DefaultFrameCapacity = 16;

  ThreadShadow &of(uint32_t ThreadId, uint32_t FrameCapacity) {
    std::atomic<ThreadShadow *> &Slot = Blocks.at(ThreadId);
    if (ThreadShadow *Block = Slot.load(std::memory_order_acquire))
      return *Block;
    return install(Slot, FrameCapacity);
  }
  /// Installs a fresh block in \p Slot unless another thread won the race;
  /// either way returns the installed block.
  [[gnu::cold]] static ThreadShadow &
  install(std::atomic<ThreadShadow *> &Slot, uint32_t FrameCapacity);

  ChunkDirectory<ThreadShadow *, 8, (jvm::MaxThreadIds >> 8)> Blocks;
};

} // namespace jinn::agent

#endif // JINN_JINN_THREADSHADOW_H
