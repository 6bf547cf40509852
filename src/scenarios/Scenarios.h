//===- scenarios/Scenarios.h - Microbenchmarks and the scenario runner ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation scenarios of paper §6: a suite of small JNI programs,
/// each designed to trigger one error state of the fourteen state machines
/// (the paper's 16 microbenchmarks; this reproduction has 17 detectable
/// ones because ID/reference confusion is split from dangling references,
/// plus the boundary-undetectable pitfall 8). The ScenarioWorld runs each
/// program under a configurable VM flavor and checker, and classify()
/// reduces what happened to a Table 1 cell.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_SCENARIOS_SCENARIOS_H
#define JINN_SCENARIOS_SCENARIOS_H

#include "checkjni/XcheckAgent.h"
#include "jinn/JinnAgent.h"
#include "jni/JniRuntime.h"
#include "jvm/Vm.h"
#include "jvmti/Jvmti.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jinn::scenarios {

/// One microbenchmark per machine error state (paper §6.1).
enum class MicroId : uint8_t {
  EnvMismatch,        ///< pitfall 14: JNIEnv used across threads
  PendingException,   ///< pitfall 1: sensitive call with exception pending
  CriticalViolation,  ///< pitfall 16: JNI call inside a critical region
  FixedTypeMismatch,  ///< pitfall 3: jobject passed where jclass expected
  EntityTypeMismatch, ///< §6.4.3: static call via non-declaring class
  FinalFieldWrite,    ///< pitfall 9: SetStaticIntField on a final field
  NullArgument,       ///< pitfall 2: null where non-null required
  PinLeak,            ///< pitfall 11: Get<T>ArrayElements never released
  PinDoubleFree,      ///< pitfall 11: released twice
  MonitorLeak,        ///< pitfall 11: MonitorEnter never exited
  GlobalRefLeak,      ///< pitfall 11: NewGlobalRef never deleted
  GlobalRefDangling,  ///< use of a deleted global reference
  LocalOverflow,      ///< pitfall 12: >16 local references
  LocalFrameLeak,     ///< PushLocalFrame never popped
  LocalDangling,      ///< pitfall 13: the GNOME bug of Figure 1
  LocalDoubleFree,    ///< pitfall 13: DeleteLocalRef twice
  IdRefConfusion,     ///< pitfall 6: jmethodID used as a reference
  CrossThreadLocalUse, ///< pitfall 13: a local ref used from another thread
  UnterminatedString, ///< pitfall 8: undetectable at the language boundary
  PopWithoutPush,     ///< PopLocalFrame with no frame left to pop
  PopWithoutPushFixed, ///< the same nest, balanced (fixed variant)
  MonitorExitUnmatched, ///< MonitorExit with no outstanding JNI MonitorEnter
  MonitorExitUnmatchedFixed, ///< reentrant enter/exit, balanced (fixed)
  CriticalNested,     ///< Get*Critical inside an open critical section
  CriticalNestedFixed, ///< sequential critical sections (fixed variant)
  Count,
};

/// Metadata of one microbenchmark.
struct MicroInfo {
  MicroId Id;
  const char *ClassName;  ///< the scenario's Java class name
  const char *Machine;    ///< state machine expected to fire
  int Pitfall;            ///< Liang's pitfall number (0 when unnumbered)
  const char *Description;
  bool DetectableAtBoundary; ///< false only for pitfall 8
};

const std::vector<MicroInfo> &allMicrobenchmarks();
const MicroInfo &microInfo(MicroId Id);

/// Which dynamic checker a run uses. InterposeOnly installs the wrapped
/// function table with one no-op pre and post observer on every function
/// — the paper's "Interposing" column of Table 3: every call pays argument
/// capture and an indirect call each way, but no check.
enum class CheckerKind : uint8_t { None, Xcheck, Jinn, InterposeOnly };

/// Configuration of one scenario run.
struct WorldConfig {
  jvm::VmFlavor Flavor = jvm::VmFlavor::HotSpotLike;
  CheckerKind Checker = CheckerKind::None;
  bool EchoDiagnostics = false;
  /// Boundary treatment of the Jinn agent (ignored for other checkers):
  /// inline checking, record-only, or record+replay.
  agent::TraceMode JinnMode = agent::TraceMode::InlineCheck;
  /// Recorder tuning when JinnMode records.
  trace::TraceRecorderOptions JinnRecorder;
  /// Machine-name filter forwarded to JinnOptions::EnabledMachines.
  std::vector<std::string> JinnEnabledMachines;
  /// Deterministic sampled checking (production monitoring), forwarded to
  /// JinnOptions::SampleRate: check 1-in-N threads; 1 checks everything.
  uint32_t JinnSampleRate = 1;
  /// Root sampling seed, forwarded to JinnOptions::SampleSeed.
  uint64_t JinnSampleSeed = 0x6a696e6e5eedULL;
};

/// A fresh VM + JNI runtime + (optionally) a checker agent, plus helpers
/// to run scenario code as a native method called from Java.
class ScenarioWorld {
public:
  explicit ScenarioWorld(WorldConfig Config);

  WorldConfig Config;
  jvm::Vm Vm;
  jni::JniRuntime Rt;
  jvmti::AgentHost Host;
  agent::JinnAgent *Jinn = nullptr;
  checkjni::XcheckAgent *Xcheck = nullptr;

  JNIEnv *env() { return Rt.mainEnv(); }

  /// Defines class \p ClassName with a Java `main` (at "<Class>.java:5")
  /// that invokes a static native `call` bound to \p Body, then runs main.
  void runAsNative(const std::string &ClassName,
                   std::function<void(JNIEnv *)> Body);

  /// Defines (once) class \p ClassName with a static native
  /// `get()Ljava/lang/Object;` bound to \p Body: a nested native callee
  /// for scenarios that need the Return:C->Java checks applied to a
  /// second native frame's returned reference (dangling-return paths).
  void defineRefSupplier(const std::string &ClassName,
                         std::function<jobject(JNIEnv *)> Body);

  /// Fires VM-death events (leak checks). Idempotent.
  void shutdown() { Vm.shutdown(); }
};

/// The outcome classes of Table 1.
enum class Outcome : uint8_t {
  Running,       ///< completed (possibly in a silently-undefined state)
  Crash,         ///< simulated crash without diagnosis
  Warning,       ///< checker printed a diagnosis and continued
  Error,         ///< checker printed a diagnosis and aborted
  Npe,           ///< a NullPointerException surfaced
  Leak,          ///< a VM resource was retained at termination
  Deadlock,      ///< simulated deadlock
  JinnException, ///< jinn.JNIAssertionFailure thrown / reported
};

const char *outcomeName(Outcome O);

/// True when \p O counts as a valid bug report in the coverage metric of
/// §6.3 (exception, warning, or error).
bool isValidBugReport(Outcome O);

/// Classifies what happened in \p World (after the scenario and shutdown).
Outcome classify(ScenarioWorld &World);

/// Runs microbenchmark \p Id in \p World (does not shut down).
void runMicrobenchmark(MicroId Id, ScenarioWorld &World);

/// Convenience: fresh world, run, shutdown, classify.
Outcome runMicroToOutcome(MicroId Id, const WorldConfig &Config);

} // namespace jinn::scenarios

#endif // JINN_SCENARIOS_SCENARIOS_H
