//===- fuzz/Executor.h - Differential execution under the oracle stack ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one generated sequence against the real VM/JNI layer and judges it
/// with three mutually checking oracles:
///
///  1. The spec verdict: a clean path must produce zero reports; a bug
///     path must produce exactly the report its bug op declares (machine,
///     message fragment, faulting function, end-of-run flag) — known by
///     construction from the spec, never inferred from the checker.
///  2. Record+replay: the boundary trace replayed offline must reproduce
///     the inline report list byte-for-byte.
///  3. -Xcheck:jni: the same sequence rerun under the baseline agent must
///     detect the bug where its documented coverage overlaps
///     (FuzzOp::XcheckDetects) and stay silent everywhere else.
///
/// Any disagreement is a finding: either a checker bug or a wrong op
/// declaration, and the minimizer shrinks the sequence either way.
/// SeededDefect deliberately corrupts one oracle so the harness (and its
/// tests) can prove disagreements are caught and shrunk.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_FUZZ_EXECUTOR_H
#define JINN_FUZZ_EXECUTOR_H

#include "fuzz/Coverage.h"
#include "fuzz/Generator.h"
#include "jinn/Report.h"
#include "trace/TraceEvent.h"

#include <functional>
#include <string>
#include <vector>

namespace jinn::jvm {
class Vm;
}

namespace jinn::fuzz {

/// Deliberately planted oracle defects, for harness self-tests.
enum class SeededDefect : uint8_t {
  None,
  /// The replay oracle silently drops dangling-reference reports.
  ReplayDropsDangling,
};

struct ExecutorOptions {
  bool RunXcheck = true;
  bool RunReplay = true;
  SeededDefect Defect = SeededDefect::None;
};

struct ExecResult {
  bool Pass = false;
  /// Oracle disagreements, human-readable; empty iff Pass.
  std::vector<std::string> Failures;
  /// Ops whose Apply actually ran (precondition-skipped ops excluded).
  std::vector<std::string> ExecutedOps;
  /// The Jinn world's merged report list (after shutdown).
  std::vector<agent::JinnReport> Inline;
};

/// Runs one JNI-domain sequence under the oracle stack.
ExecResult runJniSequence(const Sequence &Seq,
                          const ExecutorOptions &Opts = {});

/// Runs \p Seq once in a fresh Jinn world in record+replay mode and hands
/// the recorded boundary trace, the still-live VM, and the inline report
/// list to \p Consume before the world is torn down (trace entity
/// identities are process addresses into that world, so the trace must be
/// consumed — e.g. lifted by the static verifier — while the world
/// exists).
void runJniSequenceRecorded(
    const Sequence &Seq,
    const std::function<void(const trace::Trace &, jvm::Vm &,
                             const std::vector<agent::JinnReport> &)>
        &Consume);

/// Stable category of one failure line: "replay" (record+replay
/// disagreement), "xcheck" (baseline-agent disagreement), "gating" (op
/// skipping diverged between worlds), "verdict" (spec-predicted verdict
/// missed). The minimizer shrinks against the category, not bare failure,
/// so dropping a setup op (which merely skips the bug) never counts as
/// "still failing".
std::string failureClass(const std::string &Failure);

/// True when some failure in \p A shares a class with some failure in \p B.
bool sharesFailureClass(const std::vector<std::string> &A,
                        const std::vector<std::string> &B);

/// Credits the implicit native-boundary edges plus every executed op's
/// declared edges. Call only for passing runs: coverage counts validated
/// drives, so an error edge is covered only when its predicted report was
/// actually observed.
void coverJniSequence(const ExecResult &Result, Coverage &Cov);

} // namespace jinn::fuzz

#endif // JINN_FUZZ_EXECUTOR_H
