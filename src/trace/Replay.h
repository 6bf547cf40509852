//===- trace/Replay.h - Offline replay of boundary-crossing traces -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline replay checking: feed a recorded trace back through a freshly
/// synthesized set of state machines and reproduce the reports the inline
/// checker would have produced. Replay runs in the same process as the
/// recording (entity identities in the trace are process addresses),
/// against the quiesced VM; volatile observations come from each event's
/// BoundarySnapshot, so the machines see exactly what they saw inline.
///
/// Determinism guarantee: replaying a trace recorded in record+replay mode
/// yields a report list byte-identical to the inline checker's, because
/// the snapshots embed every effect inline checking had on the execution
/// (suppressed calls have no post event; reporter-thrown exceptions appear
/// as ExceptionPending in subsequent snapshots).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_TRACE_REPLAY_H
#define JINN_TRACE_REPLAY_H

#include "jinn/Report.h"
#include "trace/TraceEvent.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace jinn::trace {

struct ReplayOptions {
  /// Machine-name filter, same semantics as JinnOptions::EnabledMachines
  /// (empty = all fourteen).
  std::vector<std::string> EnabledMachines;
  /// When set, invoked once per report as it is produced, with the index
  /// into Trace::Events of the event being replayed. The static verifier's
  /// trace lifter uses this to pin each witnessed violation to its
  /// crossing.
  std::function<void(size_t, const agent::JinnReport &)> OnReport;
};

struct ReplayResult {
  std::vector<agent::JinnReport> Reports; ///< inline-equivalent verdicts
  uint64_t EventsReplayed = 0;
  std::map<std::string, uint64_t> MachineTransitions;
  /// Replayed crossings whose snapshot ran out of peek capacity: a handle
  /// it did not freeze is answered by the live VM, so the replayed verdict
  /// for that crossing may differ from the inline one. The replay contract
  /// (inline reports == replayed reports) is exact only while this is 0.
  uint64_t InexactCrossings = 0;
  /// Non-empty when the trace was refused as malformed (nothing replayed).
  std::string Error;

  /// Violation (non-end-of-run) report counts keyed by machine name.
  std::map<std::string, uint64_t> violationsPerMachine() const;
};

/// Reporter that reproduces JinnReporter's report list byte-for-byte —
/// same message text, same faulting-call suppression — without touching
/// the VM (no throwable is constructed, no diagnostics emitted).
class CollectingReporter : public spec::Reporter {
public:
  void violation(spec::TransitionContext &Ctx,
                 const spec::StateMachineSpec &Machine,
                 const std::string &Message) override;
  void endOfRun(const spec::StateMachineSpec &Machine,
                const std::string &Message) override;

  std::vector<agent::JinnReport> Reports;
};

/// Replays \p T through a fresh machine set against \p Vm.
ReplayResult replayTrace(const Trace &T, jvm::Vm &Vm,
                         const ReplayOptions &Opts = {});

} // namespace jinn::trace

#endif // JINN_TRACE_REPLAY_H
