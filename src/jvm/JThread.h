//===- jvm/JThread.h - VM threads and local reference frames -------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A VM thread owns the state every JNI pitfall in the paper revolves
/// around: a stack of local-reference frames (implicitly pushed around each
/// native method invocation, capacity 16 unless extended), the pending
/// exception, the critical-section depth, a simulated call stack for
/// Figure 9-style traces, and a "poisoned" flag that models a thread that
/// has (simulated-)crashed.
///
/// Local reference slots are generational: DeleteLocalRef or a frame pop
/// bumps the slot generation, so previously-issued handles become stale bit
/// patterns rather than aliases of future references.
///
/// Concurrency model (DESIGN.md §12): local-ref frames are thread-private
/// by construction, so push/pop/new/delete are owner-thread-only and take
/// no lock at all. The slot arena stores (generation, live) and the target
/// as per-slot atomics in an address-stable chunked array, which lets the
/// two legitimate cross-thread readers — WrongThreadRef probes and the GC
/// root scan — run lock-free against a seqlock-style re-check instead of
/// serializing every push/pop behind a mutex.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVM_JTHREAD_H
#define JINN_JVM_JTHREAD_H

#include "jvm/Concurrent.h"
#include "jvm/Handle.h"
#include "jvm/Value.h"

#include <atomic>
#include <string>
#include <vector>

namespace jinn::jvm {

class Vm;

/// One simulated stack frame for diagnostics.
struct StackEntry {
  bool IsNative = false;
  std::string Display; ///< e.g. "ExceptionState.main(ExceptionState.java:5)"
};

/// State of a local-reference handle relative to its owning thread.
enum class LocalRefState : uint8_t {
  Live,        ///< valid, usable
  Stale,       ///< existed once; slot deleted or frame popped
  NeverIssued, ///< no such slot/generation was ever handed out
};

/// A VM thread. Created via Vm::attachThread; the main thread exists from
/// VM construction.
///
/// Thread-safety contract: members below are split into three classes.
///  - *Owner-only*: frame push/pop, ref creation/deletion, and the plain
///    fields (Pending, TempRootStack, Stack, Poisoned). Only the OS thread
///    this JThread represents may touch them while it runs; the collector
///    reads them during stop-the-world pauses (the safepoint handshake
///    provides the happens-before edge).
///  - *Lock-free shared*: localRefState / resolveLocal / collectRoots /
///    everOverflowedCapacity read per-slot atomics and may be called from
///    any thread at any time.
///  - CriticalDepth is an atomic polled by the GC-initiating thread.
class JThread {
public:
  JThread(Vm &Owner, uint32_t Id, std::string Name);

  Vm &vm() { return Owner; }
  uint32_t id() const { return Id; }
  const std::string &name() const { return Name; }

  /// The JNIEnv* the JNI layer created for this thread (opaque here).
  void *EnvPtr = nullptr;

  //===--------------------------------------------------------------------===
  // Local reference frames (owner thread only unless noted)
  //===--------------------------------------------------------------------===

  /// Pushes a frame. The VM pushes an implicit frame (capacity
  /// \p Capacity, usually 16) around every native method invocation;
  /// user code pushes explicit frames via PushLocalFrame.
  void pushFrame(uint32_t Capacity, bool Explicit);

  /// Pops the top frame, invalidating every local reference created in it.
  /// Returns false when no frame is active.
  bool popFrame();

  /// Number of active frames.
  size_t frameDepth() const { return Frames.size(); }

  /// True when the current top frame was pushed explicitly.
  bool topFrameExplicit() const {
    return !Frames.empty() && Frames.back().Explicit;
  }

  /// Creates a local reference to \p Target in the top frame and returns the
  /// encoded handle word (0 when no frame is active or \p Target is null).
  /// The VM itself never rejects over-capacity creation — a production JVM
  /// with an unchecked bump pointer would not either — but it remembers that
  /// the capacity was exceeded (the "time bomb" of §6.4.1).
  uint64_t newLocalRef(ObjectId Target);

  /// Classifies \p Bits (which must have RefKind::Local and this thread id).
  /// Lock-free; callable from any thread.
  LocalRefState localRefState(const HandleBits &Bits) const;

  /// Resolves a live local handle to its target; null ObjectId otherwise.
  /// Lock-free; callable from any thread.
  ObjectId resolveLocal(const HandleBits &Bits) const;

  /// Deletes a local reference. Returns false when the handle was not live.
  bool deleteLocal(const HandleBits &Bits);

  /// Live locals across all frames (test support).
  size_t liveLocalCount() const;

  /// Live locals created in the top frame.
  size_t liveLocalsInTopFrame() const;

  /// Capacity of the top frame (0 when no frame).
  uint32_t topFrameCapacity() const {
    return Frames.empty() ? 0 : Frames.back().Capacity;
  }

  /// Grows the top frame capacity to at least \p Capacity.
  bool ensureLocalCapacity(uint32_t Capacity);

  /// Whether any frame ever exceeded its declared capacity. Callable from
  /// any thread (scenario agents read it after the run).
  bool everOverflowedCapacity() const {
    return OverflowedCapacity.load(std::memory_order_acquire);
  }

  /// Appends every live local reference target to \p Roots (GC support).
  /// Lock-free over the slot atomics; also reads Pending/TempRootStack,
  /// which is safe only from the collector during a pause or from the owner.
  void collectRoots(std::vector<ObjectId> &Roots) const;

  //===--------------------------------------------------------------------===
  // Exception, critical-section, call-stack, and poison state
  //===--------------------------------------------------------------------===

  /// The pending Java exception (null when none). Written only by the
  /// owning thread while it is a mutator; the collector reads it under
  /// stop-the-world.
  ObjectId Pending;

  /// Nesting depth of JNI critical sections entered by this thread.
  /// Atomic because Vm::anyThreadInCritical polls it from the GC-initiating
  /// thread.
  std::atomic<int> CriticalDepth{0};

  /// Temporary GC roots pinned by in-flight VM operations on this thread
  /// (see Vm::TempRoots). Per-thread so concurrent scopes never clobber
  /// each other; the collector reads it under stop-the-world.
  std::vector<ObjectId> TempRootStack;

  /// Simulated call stack (innermost last).
  std::vector<StackEntry> Stack;

  /// Set after a simulated crash/deadlock; all further VM work on this
  /// thread is suppressed.
  bool Poisoned = false;

  /// Whether this thread's crossings are recorded and checked while the
  /// interposed dispatch table samples: a sampling agent decides it once,
  /// when the thread starts (or at agent load for an earlier thread), and
  /// the interposed wrappers read it on every crossing. Relaxed: the flag
  /// publishes nothing else.
  std::atomic<bool> Sampled{true};

  /// Explicit frames (PushLocalFrame) reclaimed by the VM because native
  /// code returned without popping them — a leak indicator.
  uint32_t LeakedExplicitFrames = 0;

  /// Renders the call stack in "\tat Frame" lines, innermost first.
  std::string renderStack() const;

private:
  /// One slot in the local-ref arena. `State` packs (Gen << 1 | Live);
  /// `Target` holds the raw ObjectId word. The owner publishes a new
  /// resident by storing Target first, then State with release order; it
  /// invalidates by bumping State first (release), then clearing Target.
  /// Cross-thread readers load State, then Target, then re-check State —
  /// a torn read is detected by the State change and reported as stale,
  /// never as a wrong target.
  struct LocalSlot {
    std::atomic<uint64_t> State{0};
    std::atomic<uint64_t> Target{0};

    static uint64_t packState(uint64_t Gen, bool Live) {
      return (Gen << 1) | (Live ? 1 : 0);
    }
    static uint64_t genOf(uint64_t State) { return State >> 1; }
    static bool liveOf(uint64_t State) { return State & 1; }
  };

  struct LocalFrame {
    uint32_t Capacity = 0;
    bool Explicit = false;
    bool Overflowed = false;
    std::vector<uint32_t> OwnedSlots;
    uint32_t LiveCount = 0;
  };

  Vm &Owner;
  uint32_t Id;
  std::string Name;

  /// Slot arena: address-stable, indexed lock-free by cross-thread probes;
  /// grown only by the owner thread (the single writer).
  ChunkedVector<LocalSlot> Arena;

  /// Owner-confined: only the owning thread pushes/pops frames or recycles
  /// slots, so no synchronization is needed (the GC pause handshake covers
  /// collector reads of Frames metadata, which it does not do today).
  std::vector<uint32_t> FreeSlots;
  std::vector<LocalFrame> Frames;

  std::atomic<bool> OverflowedCapacity{false};

  void invalidateSlot(uint32_t Index);
};

} // namespace jinn::jvm

#endif // JINN_JVM_JTHREAD_H
