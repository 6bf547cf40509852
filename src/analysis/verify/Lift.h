//===- analysis/verify/Lift.h - Lifting crossings into the CFG IR --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three program sources jinn-verify lifts into ClientCfg form:
///
///  1. Recorded .jtrace crossing streams (liftTrace): events become a
///     straight-line, one-block CFG; each report the offline replay
///     produces is pinned (through ReplayOptions::OnReport) to the
///     crossing that fired it and attached as a Witnessed hint.
///  2. Table-1 microbenchmarks (liftMicro): the scenario runs once under
///     the Jinn agent in record+replay mode; the recorded trace lifts as
///     above and the inline report list ships alongside as the dynamic
///     oracle the static verdict diffs against.
///  3. jinn-fuzz op-table sequences (liftJniSequence): same shape, driven
///     through fuzz::runJniSequenceRecorded.
///
/// Trace entity identities are process addresses, so lifting happens while
/// the recording world is alive; the resulting ClientCfg is self-contained
/// (function ids, success bits, report texts) and outlives it.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_ANALYSIS_VERIFY_LIFT_H
#define JINN_ANALYSIS_VERIFY_LIFT_H

#include "analysis/verify/Cfg.h"
#include "fuzz/Generator.h"
#include "scenarios/Scenarios.h"
#include "trace/TraceEvent.h"

#include <string>
#include <vector>

namespace jinn::analysis::verify {

/// A lifted program plus the dynamic oracle it must agree with.
struct LiftedProgram {
  ClientCfg Cfg;
  /// The inline checker's report list from the recording run.
  std::vector<agent::JinnReport> Oracle;
};

/// Lifts recorded trace \p T (replaying it against \p Vm to pin witnessed
/// reports). \p Vm must be the trace's own world, still alive. Pass
/// \p PinWitnessed = false for a foreign trace (read from a file written
/// by another process): its entity identities no longer resolve, so it
/// cannot be replayed at all — the lifted program then carries no hints
/// and the verdict covers the spec-decidable counter checks only.
/// A malformed trace (see trace::Trace::wellFormed) lifts to an empty
/// program, with the reason in \p Err.
ClientCfg liftTrace(const trace::Trace &T, jvm::Vm &Vm,
                    const std::string &Name, bool PinWitnessed = true,
                    std::string *Err = nullptr);

/// Runs microbenchmark \p Id under the Jinn agent in record+replay mode
/// and lifts the recorded crossings.
LiftedProgram liftMicro(scenarios::MicroId Id);

/// Runs fuzz sequence \p Seq in a fresh recording world and lifts it.
LiftedProgram liftJniSequence(const fuzz::Sequence &Seq);

} // namespace jinn::analysis::verify

#endif // JINN_ANALYSIS_VERIFY_LIFT_H
