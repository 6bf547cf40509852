//===- jinn/Machines.h - The JNI constraint state machines ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations of the fourteen state machines — the paper §5 eleven plus
/// three pushdown constraints (ROADMAP item 3) — grouped as three
/// constraint classes covering the 1,500+ JNI rules:
///
///   JVM state:  JNIEnv* state, exception state, critical-section state
///   Types:      fixed typing, entity-specific typing, access control,
///               nullness
///   Resources:  pinned/copied string-or-array, monitor, global/weak
///               global reference, local reference
///
/// Each machine's constructor builds its StateMachineSpec: states, state
/// transitions, the mapping to language transitions, and actions bound to
/// the machine's mutable encoding. The definitions (one .cpp per machine
/// under machines/) are the handwritten "state machine and mapping code"
/// whose line count the synthesis experiment compares against the
/// generated wrappers.
///
/// Shadow-state layout (DESIGN.md §10): thread-confined encodings (local
/// references, expected JNIEnv, critical depth) live in per-thread tables
/// or wait-free atomic arrays; the genuinely-global tables (global refs,
/// monitors, pins, entity IDs) are lock-striped so concurrent crossings
/// contend only when they hash to the same shard. Every machine exposes
/// lockAcquires() as a contention proxy for the scaling bench.
///
/// Checks never call JNI functions; they inspect the VM through the
/// policy-free JVMTI peek interface. (The paper's Jinn calls functions like
/// GetObjectType/IsAssignableFrom from inside wrappers; the observable
/// checks are the same, without re-entering the wrapped table.)
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_MACHINES_H
#define JINN_JINN_MACHINES_H

#include "jinn/LocalRefShadow.h"
#include "jinn/ShardedState.h"
#include "spec/StateMachine.h"

#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace jinn::agent {

/// Concurrency-layout knobs shared by the machines (JinnOptions carries
/// the user-facing copies and MachineSet forwards them here).
struct MachineTuning {
  /// Lock stripes per global shadow table (rounded to a power of two).
  unsigned ShardCount = DefaultShardCount;
};

//===----------------------------------------------------------------------===
// JVM state constraints (paper Figure 6)
//===----------------------------------------------------------------------===

/// JNIEnv* state: the JNIEnv passed to every JNI function must belong to
/// the executing thread. Error: JNIEnv* mismatch (pitfall 14). The
/// expected-env table is read on every JNI call, so it is an
/// AtomicWordArray: the hot read path is wait-free.
class JniEnvStateMachine : public spec::MachineBase {
public:
  JniEnvStateMachine();
  void onThreadStart(const spec::ThreadStartInfo &Info) override;
  uint64_t lockAcquires() const { return 0; } ///< lock-free encoding

private:
  AtomicWordArray ExpectedEnv; ///< env identity, indexed by thread id
};

/// Exception state: no exception-sensitive JNI call while an exception is
/// pending. Error: unhandled Java exception (pitfall 1).
class ExceptionStateMachine : public spec::MachineBase {
public:
  ExceptionStateMachine();
  uint64_t lockAcquires() const { return 0; } ///< stateless
};

/// Critical-section state: between Get*Critical and Release*Critical only
/// the four critical functions are legal. Errors: critical-section
/// violation, unmatched release (pitfall 16). The per-thread depth tally
/// is read on every critical-sensitive call (nearly every JNI function),
/// so it lives in an AtomicWordArray; only the per-resource held map —
/// touched exclusively by the rare critical acquire/release — still takes
/// the mutex.
class CriticalStateMachine : public spec::MachineBase {
public:
  CriticalStateMachine();

  /// Shadow nesting depth for \p ThreadId (0 when not in a section).
  /// Wait-free; safe to call from any thread.
  int depthOf(uint32_t ThreadId) const {
    return static_cast<int>(static_cast<int64_t>(Depth.load(ThreadId)));
  }

  uint64_t lockAcquires() const {
    return HeldAcquires.load(std::memory_order_relaxed);
  }

private:
  AtomicWordArray Depth; ///< per-thread nesting depth (single-writer)
  mutable std::mutex Mu; ///< guards Held (critical acquire/release only)
  mutable std::atomic<uint64_t> HeldAcquires{0};
  std::map<std::pair<uint32_t, uint64_t>, int> Held; ///< (thread, obj)->count
};

//===----------------------------------------------------------------------===
// Type constraints (paper Figure 7)
//===----------------------------------------------------------------------===

/// Fixed typing: actuals must conform to the Java types fixed by the JNI
/// signature itself (jclass -> java.lang.Class, jstring -> String, typed
/// arrays). Suppressed for the four critical functions, mirroring the
/// paper's critical-section limitation (§6.5 category 1).
class FixedTypingMachine : public spec::MachineBase {
public:
  explicit FixedTypingMachine(const CriticalStateMachine &Critical);
  uint64_t lockAcquires() const { return 0; } ///< stateless

private:
  const CriticalStateMachine &Critical;
};

/// Entity-specific typing: method/field IDs constrain receivers, argument
/// types, and staticness (the Eclipse SWT bug of §6.4.3). The observed-ID
/// sets are striped by ID identity.
class EntityTypingMachine : public spec::MachineBase {
public:
  explicit EntityTypingMachine(const MachineTuning &Tuning = {});
  uint64_t lockAcquires() const {
    return SeenMethodIds.lockAcquires() + SeenFieldIds.lockAcquires();
  }

private:
  /// IDs observed at producer returns (GetMethodID etc.), keyed by the
  /// ID's pointer identity; the value is unused (set semantics).
  StripedTable<uint8_t> SeenMethodIds;
  StripedTable<uint8_t> SeenFieldIds;
};

/// Access control: no assignment to final fields through the 18 Set
/// functions (pitfall 9). Recording is rare (ID production); checking is
/// the hot path, so lookups take the lock shared.
class AccessControlMachine : public spec::MachineBase {
public:
  AccessControlMachine();
  uint64_t lockAcquires() const {
    return Acquires.load(std::memory_order_relaxed);
  }

private:
  mutable std::shared_mutex Mu; ///< guards RecordedFinal
  mutable std::atomic<uint64_t> Acquires{0};
  std::unordered_map<const void *, bool> RecordedFinal; ///< field id -> isFinal
};

/// Nullness: the experimentally-determined non-null parameters (pitfall 2).
class NullnessMachine : public spec::MachineBase {
public:
  NullnessMachine();
  uint64_t lockAcquires() const { return 0; } ///< stateless
};

//===----------------------------------------------------------------------===
// Resource constraints (paper Figure 8)
//===----------------------------------------------------------------------===

/// Pinned or copied string or array: acquire/release must pair; leaks are
/// reported at termination; double-free is an error (pitfall 11). The
/// outstanding-acquisition table is striped by resource identity; each
/// entry tallies acquisitions per pin family.
class PinnedResourceMachine : public spec::MachineBase {
public:
  explicit PinnedResourceMachine(const MachineTuning &Tuning = {});
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;
  uint64_t lockAcquires() const { return Outstanding.lockAcquires(); }

private:
  /// Outstanding acquisitions per pin family, one slot per resource.
  struct PinCounts {
    int32_t ByFamily[6] = {0, 0, 0, 0, 0, 0}; ///< indexed by PinFamily
    bool empty() const {
      for (int32_t N : ByFamily)
        if (N != 0)
          return false;
      return true;
    }
  };
  StripedTable<PinCounts> Outstanding; ///< resource identity -> counts
};

/// Monitor: MonitorEnter/MonitorExit must pair by program termination.
/// The held set is striped by object identity; read-only held lookups
/// (heldEntryCount, the VM-death sweep) take shard locks shared.
class MonitorMachine : public spec::MachineBase {
public:
  explicit MonitorMachine(const MachineTuning &Tuning = {});
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;

  /// Outstanding JNI entry count for object identity \p Obj (read-only,
  /// shared shard lock).
  int64_t heldEntryCount(uint64_t Obj) const;
  /// Number of distinct monitors currently held through JNI.
  size_t heldMonitorCount() const { return Held.size(); }

  uint64_t lockAcquires() const { return Held.lockAcquires(); }

private:
  StripedTable<int64_t> Held; ///< object identity -> entry count
};

/// Global / weak-global references: explicit acquire/release; use after
/// release is dangling; unreleased references leak. The live set is
/// striped by handle word; the use-site membership test — the hot path —
/// takes its shard lock shared.
class GlobalRefMachine : public spec::MachineBase {
public:
  explicit GlobalRefMachine(const MachineTuning &Tuning = {});
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;
  uint64_t lockAcquires() const { return Live.lockAcquires(); }

private:
  StripedTable<uint8_t> Live; ///< live global/weak handle words (set)
};

/// Local references: the machine of paper Figure 2/Figure 8 — acquire on
/// native entry and JNI returns, release on delete/pop/native return, use
/// on JNI calls and native returns. Errors: overflow, leak (frames),
/// dangling, double-free, wrong thread, and ID/reference confusion.
///
/// JNI local references are thread-confined by specification, so the
/// shadow tables are too: each VM thread owns a LocalRefShadow reached
/// through a thread-local cache — no lock on the hot path. Cross-thread
/// *use* of a local reference is a detected violation (the wrong-thread
/// check in useCheck), not a supported access pattern. The registry that
/// backs the cache is only locked on first touch per (machine, thread)
/// and for the cross-thread observation queries below, which callers must
/// only invoke once the owning thread has quiesced.
class LocalRefMachine : public spec::MachineBase {
public:
  LocalRefMachine();
  ~LocalRefMachine() override;
  void onThreadStart(const spec::ThreadStartInfo &Info) override;

  /// Live local references currently tracked for \p ThreadId.
  size_t liveCount(uint32_t ThreadId) const;
  /// Capacity of the top shadow frame of \p ThreadId.
  uint32_t topCapacity(uint32_t ThreadId) const;

  /// Observation hook for experiments (Figure 10's time series): called
  /// after every acquire/release with the new live count.
  std::function<void(uint32_t ThreadId, size_t Live)> OnCountChange;

  uint64_t lockAcquires() const {
    return RegistryAcquires.load(std::memory_order_relaxed);
  }

private:
  /// RegistryMu guards only the map structure (insertion of new per-thread
  /// entries). The *contents* of a LocalRefShadow are only touched by the
  /// thread whose transitions they shadow (machine transitions run on the
  /// thread making the JNI call; offline replay runs every logical thread
  /// on one OS thread), so the hot path is a two-word thread-local cache
  /// compare and no lock.
  mutable std::mutex RegistryMu;
  mutable std::atomic<uint64_t> RegistryAcquires{0};
  std::unordered_map<uint32_t, std::unique_ptr<LocalRefShadow>> Shadows;
  const uint64_t InstanceId; ///< keys the thread-local cache

  LocalRefShadow &shadowOf(uint32_t ThreadId);
  /// shadowOf with the lookup hoisted to once per crossing: the resolved
  /// shadow is memoized on the CapturedCall, so a crossing that runs
  /// several of this machine's actions (or one action with many reference
  /// arguments) pays the thread-local cache compare once.
  LocalRefShadow &shadowAt(spec::TransitionContext &Ctx);
  LocalRefShadow *findShadow(uint32_t ThreadId) const;
  /// Adds local reference \p Word to \p Shadow's top frame and checks
  /// the frame's capacity.
  void acquire(spec::TransitionContext &Ctx, LocalRefShadow &Shadow,
               uint64_t Word);
  /// Checks one used reference. \p ArgIndex is the 0-based JNI argument
  /// position, or -1 for a native method's returned reference; the text
  /// naming it is built only when a violation is reported.
  void useCheck(spec::TransitionContext &Ctx, uint64_t Word, int ArgIndex);
  void countChanged(uint32_t ThreadId, const LocalRefShadow &Shadow) {
    if (OnCountChange)
      OnCountChange(ThreadId, Shadow.liveCount());
  }
};

//===----------------------------------------------------------------------===
// Pushdown constraints (ROADMAP item 3, beyond the paper's 11 machines)
//===----------------------------------------------------------------------===
//
// Three rules are stack-shaped and need the spec language's bounded
// counter facility (spec::CounterSpec): a finite state set cannot count
// how many frames/monitors/criticals are outstanding. Each machine keeps
// one wait-free per-thread depth word; every transition declares its
// CounterOp so speclint and the static verifier (analysis/verify) can
// interpret the counter abstractly. Error ownership is disjoint from the
// regular machines: LocalRef keeps frame *leaks*, Monitor keeps monitor
// *leaks*, CriticalState keeps unmatched *releases* and in-critical calls;
// the pushdown machines own the underflow/nesting violations.

/// Local-frame nesting: every PopLocalFrame must match an earlier
/// PushLocalFrame on the same thread. Error: unmatched pop. (Frame leaks
/// at native return stay with the local-reference machine.)
class LocalFrameNestingMachine : public spec::MachineBase {
public:
  LocalFrameNestingMachine();
  /// Shadow nesting depth for \p ThreadId. Wait-free.
  int depthOf(uint32_t ThreadId) const {
    return static_cast<int>(static_cast<int64_t>(Depth.load(ThreadId)));
  }
  uint64_t lockAcquires() const { return 0; } ///< lock-free encoding

private:
  AtomicWordArray Depth; ///< per-thread explicit-frame depth (single-writer)
};

/// Monitor balance: every JNI MonitorExit must match an earlier JNI
/// MonitorEnter on the same thread. Error: unmatched exit. (Monitors still
/// held at termination stay with the monitor machine's leak check.)
class MonitorBalanceMachine : public spec::MachineBase {
public:
  MonitorBalanceMachine();
  /// Outstanding JNI monitor entries for \p ThreadId. Wait-free.
  int depthOf(uint32_t ThreadId) const {
    return static_cast<int>(static_cast<int64_t>(Depth.load(ThreadId)));
  }
  uint64_t lockAcquires() const { return 0; } ///< lock-free encoding

private:
  AtomicWordArray Depth; ///< per-thread JNI entry count (single-writer)
};

/// Critical-section nesting: a thread must not open a second critical
/// section (Get*Critical) before releasing the first — the JNI spec allows
/// no JNI call at all inside a critical region, including the critical
/// functions themselves. Error: nested critical sections. (Unmatched
/// releases and non-critical calls inside a region stay with the
/// critical-section state machine.)
class CriticalNestingMachine : public spec::MachineBase {
public:
  CriticalNestingMachine();
  /// Shadow critical depth for \p ThreadId. Wait-free.
  int depthOf(uint32_t ThreadId) const {
    return static_cast<int>(static_cast<int64_t>(Depth.load(ThreadId)));
  }
  uint64_t lockAcquires() const { return 0; } ///< lock-free encoding

private:
  AtomicWordArray Depth; ///< per-thread critical depth (single-writer)
};

/// Convenience: constructs all fourteen machines — the paper's eleven in
/// paper order, then the three pushdown machines.
struct MachineSet {
  MachineSet() : MachineSet(MachineTuning{}) {}
  explicit MachineSet(const MachineTuning &Tuning)
      : EntityTyping(Tuning), PinnedResource(Tuning), Monitor(Tuning),
        GlobalRef(Tuning) {}

  JniEnvStateMachine EnvState;
  ExceptionStateMachine ExceptionState;
  CriticalStateMachine CriticalState;
  FixedTypingMachine FixedTyping{CriticalState};
  EntityTypingMachine EntityTyping;
  AccessControlMachine AccessControl;
  NullnessMachine Nullness;
  PinnedResourceMachine PinnedResource;
  MonitorMachine Monitor;
  GlobalRefMachine GlobalRef;
  LocalRefMachine LocalRef;
  LocalFrameNestingMachine LocalFrameNesting;
  MonitorBalanceMachine MonitorBalance;
  CriticalNestingMachine CriticalNesting;

  /// All machines: paper order, then the pushdown machines.
  std::vector<spec::MachineBase *> all();

  /// (machine name, lock acquisitions) per machine — the contention proxy
  /// surfaced through the Diagnostics counters and bench_mt_scaling.
  std::vector<std::pair<const char *, uint64_t>> lockAcquireCounts() const;
};

} // namespace jinn::agent

#endif // JINN_JINN_MACHINES_H
