//===- fuzz/Executor.cpp - Differential execution under the oracle stack -===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Executor.h"

#include "support/Format.h"
#include "trace/Replay.h"

#include <algorithm>

using namespace jinn;
using namespace jinn::fuzz;

namespace {

/// Runtime gate: critical sections and pending exceptions deaden every op
/// not declared safe for them, then the op's own precondition applies.
/// The gate reads only ExecState bookkeeping, never checker state, so op
/// skipping is identical across the Jinn and Xcheck worlds.
bool runnable(const FuzzOp &Op, const ExecState &S) {
  if (S.InCritical && !Op.CriticalSafe)
    return false;
  if (S.ExcPending && !Op.ExcSafe)
    return false;
  return Op.Ready(S);
}

std::vector<std::string> executeOps(scenarios::ScenarioWorld &World,
                                    const Sequence &Seq) {
  prepareJniWorld(World);
  ExecState S(World);
  std::vector<std::string> Executed;
  World.runAsNative("FuzzSeq", [&](JNIEnv *Env) {
    S.Env = Env;
    for (const std::string &Name : Seq.OpNames) {
      const FuzzOp *Op = findJniOp(Name);
      if (!Op || !runnable(*Op, S))
        continue;
      Op->Apply(S);
      Executed.push_back(Name);
      if (Op->Kind == OpKind::Bug)
        break; // the violation pends an exception; nothing legal follows
    }
  });
  return Executed;
}

std::string describeReport(const agent::JinnReport &R) {
  return formatString("[%s] %s: %s%s", R.Machine.c_str(), R.Function.c_str(),
                      R.Message.c_str(), R.EndOfRun ? " (end of run)" : "");
}

void compareReports(const std::vector<agent::JinnReport> &Inline,
                    const std::vector<agent::JinnReport> &Replayed,
                    std::vector<std::string> &Failures) {
  if (Inline.size() != Replayed.size()) {
    Failures.push_back(formatString(
        "replay disagreement: inline produced %zu report(s), replay %zu",
        Inline.size(), Replayed.size()));
    return;
  }
  for (size_t I = 0; I < Inline.size(); ++I) {
    const agent::JinnReport &A = Inline[I];
    const agent::JinnReport &B = Replayed[I];
    if (A.Machine != B.Machine || A.Function != B.Function ||
        A.Message != B.Message || A.EndOfRun != B.EndOfRun)
      Failures.push_back(
          formatString("replay disagreement at report %zu: inline %s vs "
                       "replay %s",
                       I, describeReport(A).c_str(),
                       describeReport(B).c_str()));
  }
}

void checkVerdict(const Sequence &Seq, const FuzzOp *Bug, ExecResult &R) {
  if (!Bug) {
    for (const agent::JinnReport &Rep : R.Inline)
      R.Failures.push_back(formatString("clean path reported %s",
                                        describeReport(Rep).c_str()));
    return;
  }
  if (std::find(R.ExecutedOps.begin(), R.ExecutedOps.end(),
                std::string(Bug->Name)) == R.ExecutedOps.end()) {
    R.Failures.push_back(formatString(
        "bug op %s never became runnable in this sequence", Bug->Name));
    return;
  }
  if (R.Inline.size() != 1) {
    R.Failures.push_back(formatString(
        "bug path must produce exactly one report, got %zu", R.Inline.size()));
    for (const agent::JinnReport &Rep : R.Inline)
      R.Failures.push_back("  " + describeReport(Rep));
    return;
  }
  const agent::JinnReport &Rep = R.Inline.front();
  const Expected &E = Bug->Expect;
  if (Rep.Machine != E.Machine)
    R.Failures.push_back(formatString("wrong machine: predicted \"%s\", got %s",
                                      E.Machine.c_str(),
                                      describeReport(Rep).c_str()));
  if (Rep.Message.find(E.MessagePart) == std::string::npos)
    R.Failures.push_back(formatString(
        "message lacks \"%s\": got %s", E.MessagePart.c_str(),
        describeReport(Rep).c_str()));
  if (!E.Function.empty() && Rep.Function != E.Function)
    R.Failures.push_back(formatString(
        "wrong faulting function: predicted \"%s\", got %s",
        E.Function.c_str(), describeReport(Rep).c_str()));
  if (Rep.EndOfRun != E.EndOfRun)
    R.Failures.push_back(formatString(
        "wrong end-of-run flag: predicted %d, got %s", E.EndOfRun ? 1 : 0,
        describeReport(Rep).c_str()));
  (void)Seq;
}

} // namespace

ExecResult jinn::fuzz::runJniSequence(const Sequence &Seq,
                                      const ExecutorOptions &Opts) {
  ExecResult R;
  const FuzzOp *Bug = Seq.bugOp();

  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = Opts.RunReplay ? agent::TraceMode::RecordAndReplay
                                   : agent::TraceMode::InlineCheck;
  scenarios::ScenarioWorld World(Config);
  R.ExecutedOps = executeOps(World, Seq);
  World.shutdown();
  R.Inline = World.Jinn->reporter().reports();

  checkVerdict(Seq, Bug, R);

  if (Opts.RunReplay && World.Jinn->recorder()) {
    trace::Trace Recorded = World.Jinn->recorder()->collect();
    trace::ReplayResult RR = trace::replayTrace(Recorded, World.Vm);
    std::vector<agent::JinnReport> Replayed = std::move(RR.Reports);
    if (Opts.Defect == SeededDefect::ReplayDropsDangling)
      Replayed.erase(std::remove_if(Replayed.begin(), Replayed.end(),
                                    [](const agent::JinnReport &Rep) {
                                      return Rep.Message.find("dangling") !=
                                             std::string::npos;
                                    }),
                     Replayed.end());
    compareReports(R.Inline, Replayed, R.Failures);
  }

  if (Opts.RunXcheck) {
    scenarios::WorldConfig XConfig;
    XConfig.Checker = scenarios::CheckerKind::Xcheck;
    scenarios::ScenarioWorld XWorld(XConfig);
    std::vector<std::string> XExecuted = executeOps(XWorld, Seq);
    XWorld.shutdown();
    if (XExecuted != R.ExecutedOps)
      R.Failures.push_back(
          "op gating diverged between the Jinn and -Xcheck:jni worlds");
    const std::vector<checkjni::XcheckDetection> &Detections =
        XWorld.Xcheck->reporter().detections();
    if (Bug && Bug->XcheckDetects) {
      bool Found = std::any_of(Detections.begin(), Detections.end(),
                               [&](const checkjni::XcheckDetection &D) {
                                 return D.Machine == Bug->Expect.Machine;
                               });
      if (!Found)
        R.Failures.push_back(formatString(
            "-Xcheck:jni missed a bug its coverage predicts for \"%s\" "
            "(%zu detection(s) total)",
            Bug->Expect.Machine.c_str(), Detections.size()));
    } else if (!Detections.empty()) {
      R.Failures.push_back(formatString(
          "-Xcheck:jni detected where the spec predicts silence: %s",
          Detections.front().FormattedText.c_str()));
    }
  }

  R.Pass = R.Failures.empty();
  return R;
}

void jinn::fuzz::runJniSequenceRecorded(
    const Sequence &Seq,
    const std::function<void(const trace::Trace &, jvm::Vm &,
                             const std::vector<agent::JinnReport> &)>
        &Consume) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  scenarios::ScenarioWorld World(Config);
  executeOps(World, Seq);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  Consume(Recorded, World.Vm, World.Jinn->reporter().reports());
}

std::string jinn::fuzz::failureClass(const std::string &Failure) {
  if (Failure.find("replay disagreement") != std::string::npos)
    return "replay";
  if (Failure.find("-Xcheck:jni") != std::string::npos)
    return "xcheck";
  if (Failure.find("op gating diverged") != std::string::npos)
    return "gating";
  if (Failure.find("never became runnable") != std::string::npos)
    return "skipped"; // shrink artifact (setup removed), not a finding
  return "verdict";
}

bool jinn::fuzz::sharesFailureClass(const std::vector<std::string> &A,
                                    const std::vector<std::string> &B) {
  for (const std::string &FA : A)
    for (const std::string &FB : B)
      if (failureClass(FA) == failureClass(FB))
        return true;
  return false;
}

void jinn::fuzz::coverJniSequence(const ExecResult &Result, Coverage &Cov) {
  for (const EdgeRef &Edge : implicitJniEdges())
    Cov.cover(Edge.Machine, Edge.Index);
  for (const std::string &Name : Result.ExecutedOps)
    if (const FuzzOp *Op = findJniOp(Name))
      for (const EdgeRef &Edge : Op->Edges)
        Cov.cover(Edge.Machine, Edge.Index);
}
