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
/// Shadow-state layout (DESIGN.md §10): the per-thread encodings (expected
/// JNIEnv, critical depth and held resources, the three pushdown depths,
/// JNI monitor entries, local references) live in one ThreadShadow block
/// per thread, which a crossing finds by thread id and then reads and
/// writes with no lock; the global-reference live set is a GlobalSlotTable
/// of atomic words indexed by the handle's global slot; the one table
/// keyed by entity identity that any thread may touch (outstanding pins)
/// is lock-striped so concurrent crossings contend only when they hash to
/// the same shard. MachineSet::lockAcquires() counts how often crossings
/// took those stripes, the only shadow lock.
///
/// Checks never call JNI functions; they inspect the VM through the
/// policy-free JVMTI peek interface. (The paper's Jinn calls functions like
/// GetObjectType/IsAssignableFrom from inside wrappers; the observable
/// checks are the same, without re-entering the wrapped table.)
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_MACHINES_H
#define JINN_JINN_MACHINES_H

#include "jinn/ShardedState.h"
#include "jinn/ThreadShadow.h"
#include "spec/StateMachine.h"

#include <functional>
#include <string>
#include <vector>

namespace jinn::agent {

//===----------------------------------------------------------------------===
// JVM state constraints (paper Figure 6)
//===----------------------------------------------------------------------===

/// JNIEnv* state: the JNIEnv passed to every JNI function must belong to
/// the executing thread. Error: JNIEnv* mismatch (pitfall 14). The
/// expected env is read on every JNI call from the thread's shadow block.
class JniEnvStateMachine : public spec::MachineBase {
public:
  explicit JniEnvStateMachine(ThreadShadows &Threads);
  void onThreadStart(const spec::ThreadStartInfo &Info) override;

private:
  ThreadShadows &Threads; ///< ThreadShadow::ExpectedEnv
};

/// Exception state: no exception-sensitive JNI call while an exception is
/// pending. Error: unhandled Java exception (pitfall 1).
class ExceptionStateMachine : public spec::MachineBase {
public:
  ExceptionStateMachine();
};

/// Critical-section state: between Get*Critical and Release*Critical only
/// the four critical functions are legal. Errors: critical-section
/// violation, unmatched release (pitfall 16). The depth, read on every
/// critical-sensitive call (nearly every JNI function), and the held
/// resource counts both live in the thread's shadow block: no path locks.
class CriticalStateMachine : public spec::MachineBase {
public:
  explicit CriticalStateMachine(ThreadShadows &Threads);

  /// Shadow nesting depth for \p ThreadId (0 when not in a section).
  /// Safe to call from any thread.
  int depthOf(uint32_t ThreadId) const;
  /// True while the crossing's thread is inside a critical section.
  bool inCritical(spec::TransitionContext &Ctx) const {
    return Threads.at(Ctx).CriticalDepth.get() > 0;
  }

private:
  ThreadShadows &Threads; ///< CriticalDepth, Held[].Criticals
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

private:
  const CriticalStateMachine &Critical;
};

/// Entity-specific typing: method/field IDs constrain receivers, argument
/// types, and staticness (the Eclipse SWT bug of §6.4.3). An ID is the
/// VM's MethodInfo/FieldInfo, which carries its signature, so the machine
/// keeps no table.
class EntityTypingMachine : public spec::MachineBase {
public:
  EntityTypingMachine();
};

/// Access control: no assignment to final fields through the 18 Set
/// functions (pitfall 9). A field ID's modifiers are fixed when its class
/// is defined, so the check reads them from the ID and keeps no table.
class AccessControlMachine : public spec::MachineBase {
public:
  AccessControlMachine();
};

/// Nullness: the experimentally-determined non-null parameters (pitfall 2).
class NullnessMachine : public spec::MachineBase {
public:
  NullnessMachine();
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
  PinnedResourceMachine();
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;

private:
  friend struct MachineSet; // publishes the stripes' lock count
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
/// A JNI MonitorExit succeeds only on the thread that owns the monitor,
/// so the entry counts live in that thread's shadow block; the VM-death
/// sweep counts the distinct monitors still held across all blocks.
class MonitorMachine : public spec::MachineBase {
public:
  explicit MonitorMachine(ThreadShadows &Threads);
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;

private:
  ThreadShadows &Threads; ///< Held[].Monitors
};

/// Global / weak-global references: explicit acquire/release; use after
/// release is dangling; unreleased references leak. The live set is a
/// GlobalSlotTable, so no path takes a lock.
class GlobalRefMachine : public spec::MachineBase {
public:
  GlobalRefMachine();
  void onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) override;

private:
  GlobalSlotTable Live; ///< live global/weak handle word per global slot
  /// True when \p Word (global or weak) is not live in the shadow and the
  /// VM does not hold it live either; a pre-agent reference the VM holds
  /// is adopted instead.
  bool dangling(spec::TransitionContext &Ctx, uint64_t Word);
};

/// Local references: the machine of paper Figure 2/Figure 8 — acquire on
/// native entry and JNI returns, release on delete/pop/native return, use
/// on JNI calls and native returns. Errors: overflow, leak (frames),
/// dangling, double-free, wrong thread, and ID/reference confusion.
///
/// JNI local references are thread-confined by specification, so the
/// shadow is too: each VM thread's LocalRefShadow sits in its shadow
/// block — no lock on the hot path. Cross-thread *use* of a local
/// reference is a detected violation (the wrong-thread check in useCheck),
/// not a supported access pattern. The observation queries below may only
/// be called once the owning thread has quiesced.
class LocalRefMachine : public spec::MachineBase {
public:
  explicit LocalRefMachine(ThreadShadows &Threads);
  void onThreadStart(const spec::ThreadStartInfo &Info) override;

  /// Live local references currently tracked for \p ThreadId.
  size_t liveCount(uint32_t ThreadId) const;
  /// Capacity of the top shadow frame of \p ThreadId.
  uint32_t topCapacity(uint32_t ThreadId) const;

  /// Observation hook for experiments (Figure 10's time series): called
  /// after every acquire/release with the new live count.
  std::function<void(uint32_t ThreadId, size_t Live)> OnCountChange;

private:
  ThreadShadows &Threads; ///< ThreadShadow::Locals

  LocalRefShadow &shadowAt(spec::TransitionContext &Ctx) {
    return Threads.at(Ctx).Locals;
  }
  /// Adds local reference \p Word to \p Shadow's top frame and checks
  /// the frame's capacity.
  void acquire(spec::TransitionContext &Ctx, LocalRefShadow &Shadow,
               uint64_t Word);
  /// Checks one used reference. \p ArgIndex is the 0-based JNI argument
  /// position, or -1 for a native method's returned reference; the text
  /// naming it is built only when a violation is reported.
  void useCheck(spec::TransitionContext &Ctx, uint64_t Word, int ArgIndex);
  /// useCheck's rare half, for a word \p Shadow does not track: adopts a
  /// pre-agent reference the VM holds live and reports a dead one.
  [[gnu::cold, gnu::noinline]] void useUntracked(spec::TransitionContext &Ctx,
                                                 LocalRefShadow &Shadow,
                                                 uint64_t Word, int ArgIndex);
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
// one depth in the thread's shadow block; every transition declares its
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
  explicit LocalFrameNestingMachine(ThreadShadows &Threads);
  /// Shadow nesting depth for \p ThreadId, from any thread.
  int depthOf(uint32_t ThreadId) const;

private:
  ThreadShadows &Threads; ///< ThreadShadow::LocalFrameDepth
};

/// Monitor balance: every JNI MonitorExit must match an earlier JNI
/// MonitorEnter on the same thread. Error: unmatched exit. (Monitors still
/// held at termination stay with the monitor machine's leak check.)
class MonitorBalanceMachine : public spec::MachineBase {
public:
  explicit MonitorBalanceMachine(ThreadShadows &Threads);
  /// Outstanding JNI monitor entries for \p ThreadId, from any thread.
  int depthOf(uint32_t ThreadId) const;

private:
  ThreadShadows &Threads; ///< ThreadShadow::MonitorDepth
};

/// Critical-section nesting: a thread must not open a second critical
/// section (Get*Critical) before releasing the first — the JNI spec allows
/// no JNI call at all inside a critical region, including the critical
/// functions themselves. Error: nested critical sections. (Unmatched
/// releases and non-critical calls inside a region stay with the
/// critical-section state machine.)
class CriticalNestingMachine : public spec::MachineBase {
public:
  explicit CriticalNestingMachine(ThreadShadows &Threads);
  /// Shadow critical depth for \p ThreadId, from any thread.
  int depthOf(uint32_t ThreadId) const;

private:
  ThreadShadows &Threads; ///< ThreadShadow::CriticalNestingDepth
};

/// Convenience: constructs all fourteen machines — the paper's eleven in
/// paper order, then the three pushdown machines.
struct MachineSet {
  /// One shadow block per thread, shared by the per-thread machines.
  ThreadShadows Threads;

  JniEnvStateMachine EnvState{Threads};
  ExceptionStateMachine ExceptionState;
  CriticalStateMachine CriticalState{Threads};
  FixedTypingMachine FixedTyping{CriticalState};
  EntityTypingMachine EntityTyping;
  AccessControlMachine AccessControl;
  NullnessMachine Nullness;
  PinnedResourceMachine PinnedResource;
  MonitorMachine Monitor{Threads};
  GlobalRefMachine GlobalRef;
  LocalRefMachine LocalRef{Threads};
  LocalFrameNestingMachine LocalFrameNesting{Threads};
  MonitorBalanceMachine MonitorBalance{Threads};
  CriticalNestingMachine CriticalNesting{Threads};

  /// All machines: paper order, then the pushdown machines.
  std::vector<spec::MachineBase *> all();

  /// The machines whose spec names are in \p Names, in all() order; every
  /// machine when \p Names is empty. The agent and replay both enable
  /// machines through this filter.
  std::vector<spec::MachineBase *>
  select(const std::vector<std::string> &Names);

  /// Acquisitions of the pin stripes by crossings (the only shadow lock;
  /// the VM-death sweep is not counted) — the contention proxy surfaced
  /// through the Diagnostics counters and bench_mt_scaling.
  uint64_t lockAcquires() const {
    return PinnedResource.Outstanding.lockAcquires();
  }
};

} // namespace jinn::agent

#endif // JINN_JINN_MACHINES_H
