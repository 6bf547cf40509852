//===- jinn/Report.h - Jinn's exception-based error reporting ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Jinn reports violations by throwing a custom Java exception,
/// jinn.JNIAssertionFailure, at the point of failure (paper §2.3, §4,
/// Figure 9c). If an exception was already pending (the exception-state
/// machine's case), it becomes the cause of the new failure, producing the
/// "Caused by:" chain of Figure 9c. The faulting call is suppressed.
///
/// Reports are cold (each one throws), so recording is one list under one
/// mutex, appended in arrival order: on one OS thread (every deterministic
/// scenario, offline replay) that is program order. Every report also
/// takes the VM-wide DiagnosticSink lock, so a per-thread buffer would
/// keep no lock off the violation path.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_REPORT_H
#define JINN_JINN_REPORT_H

#include "spec/StateMachine.h"

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jinn::agent {

/// The internal class name of Jinn's custom exception.
inline constexpr const char *JinnExceptionClass = "jinn/JNIAssertionFailure";

/// One recorded violation (for harnesses; the program sees the exception).
struct JinnReport {
  std::string Machine;  ///< state machine that fired
  std::string Function; ///< faulting JNI function or native method
  std::string Message;  ///< full message as thrown
  bool EndOfRun = false; ///< leak report at VM death
};

/// The record of a violation at \p Ctx's site: the thrown message is
/// "<Message> in <site>.". JinnReporter and the offline replay's
/// CollectingReporter both build their records here, so the inline and
/// replayed lists cannot drift apart on text.
JinnReport violationReport(spec::TransitionContext &Ctx,
                           const spec::StateMachineSpec &Machine,
                           const std::string &Message);

/// The record of a leak reported at program termination.
JinnReport endOfRunReport(const spec::StateMachineSpec &Machine,
                          const std::string &Message);

/// Reporter that throws jinn.JNIAssertionFailure.
class JinnReporter : public spec::Reporter {
public:
  explicit JinnReporter(jvm::Vm &Vm) : Vm(Vm) {}

  void violation(spec::TransitionContext &Ctx,
                 const spec::StateMachineSpec &Machine,
                 const std::string &Message) override;

  void endOfRun(const spec::StateMachineSpec &Machine,
                const std::string &Message) override;

  /// Direct access to the report list, in arrival order. Callers must
  /// quiesce mutator threads first (harness/termination use); concurrent
  /// reporting would invalidate the reference.
  const std::vector<JinnReport> &reports() const;
  void clearReports();

  /// Thread-safe snapshot of the report count (unlike reports(),
  /// callable while mutator threads are still reporting).
  size_t reportCount() const;

  /// Thread-safe per-machine report counts, for monitor snapshots.
  std::map<std::string, uint64_t> reportCountsByMachine() const;

  /// Debugger integration (paper §2.3): invoked at each violation, at the
  /// point of failure, before the exception unwinds — the hook a debugger
  /// like Blink or jdb uses to stop the program with full state.
  std::function<void(const JinnReport &)> OnViolation;

  /// Number of reports from machine \p MachineName.
  size_t countFor(std::string_view MachineName) const;

private:
  jvm::Vm &Vm;
  mutable std::mutex Mu; ///< guards Reports
  std::vector<JinnReport> Reports;
};

} // namespace jinn::agent

#endif // JINN_JINN_REPORT_H
