//===- tests/jinn_verify_test.cpp - Static verifier (analysis/verify) ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-vs-dynamic agreement contract: abstract interpretation of
/// lifted crossing programs must reproduce the dynamic checker's verdicts
/// byte-for-byte on straight-line programs, classify may vs must across
/// branches and loops, and derive the pushdown (counter-guarded) checks
/// from the interval domain alone — without leaning on the replay hints.
///
//===----------------------------------------------------------------------===//

#include "analysis/verify/Examples.h"
#include "analysis/verify/Interp.h"
#include "analysis/verify/Lift.h"
#include "fuzz/Generator.h"
#include "scenarios/Scenarios.h"
#include "trace/TraceFile.h"

#include "gtest/gtest.h"

#include <cstdio>

using namespace jinn;
using namespace jinn::analysis::verify;

namespace {

void expectSameReports(const std::vector<agent::JinnReport> &A,
                       const std::vector<agent::JinnReport> &B,
                       const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Machine, B[I].Machine) << Context << " report " << I;
    EXPECT_EQ(A[I].Function, B[I].Function) << Context << " report " << I;
    EXPECT_EQ(A[I].Message, B[I].Message) << Context << " report " << I;
    EXPECT_EQ(A[I].EndOfRun, B[I].EndOfRun) << Context << " report " << I;
  }
}

bool machineIn(const std::vector<agent::JinnReport> &Reports,
               const std::string &Machine) {
  for (const agent::JinnReport &R : Reports)
    if (R.Machine == Machine)
      return true;
  return false;
}

/// Every Table-1 micro: the static must-verdict equals the dynamic report
/// list byte-for-byte; detectable micros are flagged, fixed variants and
/// the boundary-undetectable pitfall are not; nothing is classified may.
TEST(JinnVerify, MicroMustBugAgreement) {
  std::vector<analysis::MachineModel> Models = verifierModels();
  for (const scenarios::MicroInfo &Info : scenarios::allMicrobenchmarks()) {
    LiftedProgram P = liftMicro(Info.Id);
    Verdict V = verifyCfg(P.Cfg, Models);
    expectSameReports(V.Must, P.Oracle, Info.ClassName);
    EXPECT_TRUE(V.May.empty()) << Info.ClassName;
    EXPECT_EQ(Info.DetectableAtBoundary, !V.Must.empty()) << Info.ClassName;
  }
}

/// The pushdown micros' reports derive from the interval domain alone:
/// with every pushdown-machine hint stripped from the lifted program, the
/// must-verdict still carries the exact report text.
TEST(JinnVerify, PushdownAbstractDerivation) {
  std::vector<analysis::MachineModel> Models = verifierModels();
  struct Case {
    scenarios::MicroId Id;
    const char *Machine;
  } Cases[] = {
      {scenarios::MicroId::PopWithoutPush, "Local-frame nesting"},
      {scenarios::MicroId::MonitorExitUnmatched, "Monitor balance"},
      {scenarios::MicroId::CriticalNested, "Critical-section nesting"},
  };
  for (const Case &C : Cases) {
    LiftedProgram P = liftMicro(C.Id);
    ASSERT_EQ(P.Oracle.size(), 1u) << C.Machine;
    for (BasicBlock &B : P.Cfg.Blocks)
      for (CrossEvent &Ev : B.Events)
        Ev.Witnessed.clear();
    Verdict V = verifyCfg(P.Cfg, Models);
    expectSameReports(V.Must, P.Oracle, C.Machine);
    EXPECT_GE(V.Stats.AbstractReports, 1u) << C.Machine;
    // Stripped hints: nothing to confirm against.
    EXPECT_EQ(V.Stats.AbstractConfirmed, 0u) << C.Machine;
  }

  // With the hints kept, the abstract derivation is cross-validated.
  LiftedProgram P = liftMicro(scenarios::MicroId::PopWithoutPush);
  Verdict V = verifyCfg(P.Cfg, Models);
  EXPECT_GE(V.Stats.AbstractConfirmed, 1u);
}

/// Branch joins classify may (one arm) vs must (every arm), and loops
/// reach a fixpoint — with widening where the counter would otherwise
/// grow without bound. The example set declares its own expectations.
TEST(JinnVerify, BranchingMayVsMustAndLoops) {
  std::vector<analysis::MachineModel> Models = verifierModels();
  for (const VerifyExample &E : verifyExamples()) {
    Verdict V = verifyCfg(E.Cfg, Models);
    EXPECT_EQ(E.ExpectMust, machineIn(V.Must, E.Machine)) << E.Cfg.Name;
    EXPECT_EQ(E.ExpectMay, machineIn(V.May, E.Machine)) << E.Cfg.Name;
    if (!E.ExpectMust && !E.ExpectMay) {
      EXPECT_FALSE(V.flagged()) << E.Cfg.Name;
    }
    if (E.ExpectWidening) {
      EXPECT_GT(V.Stats.Widenings, 0u) << E.Cfg.Name;
    }
    EXPECT_GT(V.Stats.BlockIterations, 0u) << E.Cfg.Name;
  }
}

/// Generator-driven fuzz paths: clean sequences verify clean; every bug
/// op's path produces a must-verdict byte-identical to the dynamic
/// oracle; nothing on these single-path programs is may.
TEST(JinnVerify, CorpusAgreement) {
  std::vector<analysis::MachineModel> Models = verifierModels();
  fuzz::Generator Gen(0x7465737453eedULL);

  for (const char *Machine :
       {"Local-frame nesting", "Monitor balance",
        "Critical-section nesting", "Local reference"}) {
    LiftedProgram P = liftJniSequence(Gen.cleanJniSequence(Machine, 1));
    Verdict V = verifyCfg(P.Cfg, Models);
    EXPECT_TRUE(P.Oracle.empty()) << Machine;
    EXPECT_FALSE(V.flagged()) << Machine;
  }

  for (const char *Bug :
       {"bug_pop_unbalanced", "bug_monitor_exit_unmatched",
        "bug_critical_nested", "bug_exc_pending"}) {
    LiftedProgram P = liftJniSequence(Gen.bugJniSequence(Bug, 2));
    Verdict V = verifyCfg(P.Cfg, Models);
    EXPECT_FALSE(P.Oracle.empty()) << Bug;
    expectSameReports(V.Must, P.Oracle, Bug);
    EXPECT_TRUE(V.May.empty()) << Bug;
  }
}

/// A trace round-tripped through the binary file format and lifted
/// without replay hints (the foreign-trace path) still yields the
/// pushdown must-bug purely from the interval domain.
TEST(JinnVerify, ForeignTraceFileVerdict) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  scenarios::ScenarioWorld World(Config);
  scenarios::runMicrobenchmark(scenarios::MicroId::PopWithoutPush, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = testing::TempDir() + "jinn_verify_roundtrip.jinntrace";
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  trace::Trace FromDisk;
  ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
  std::remove(Path.c_str());

  ClientCfg Cfg = liftTrace(FromDisk, World.Vm, "roundtrip",
                            /*PinWitnessed=*/false);
  Verdict V = verifyCfg(Cfg, verifierModels());
  ASSERT_EQ(V.Must.size(), 1u);
  EXPECT_EQ(V.Must.front().Machine, "Local-frame nesting");
  EXPECT_EQ(V.Must.front().Function, "PopLocalFrame");
  EXPECT_EQ(V.Must.front().Message,
            "PopLocalFrame without a matching PushLocalFrame in "
            "PopLocalFrame.");
  EXPECT_TRUE(V.May.empty());
}

/// A foreign trace whose JNI events carry an out-of-range function id or
/// argument count is refused with an error, never lifted.
TEST(JinnVerify, MalformedTraceIsRefused) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = agent::TraceMode::RecordOnly;
  scenarios::ScenarioWorld World(Config);
  scenarios::runMicrobenchmark(scenarios::MicroId::PopWithoutPush, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  for (trace::TraceEvent &Ev : Recorded.Events)
    if (Ev.Kind == trace::EventKind::JniPost) {
      Ev.Fn = 0xFFFF;
      break;
    }

  std::string Err;
  ClientCfg Cfg = liftTrace(Recorded, World.Vm, "malformed",
                            /*PinWitnessed=*/false, &Err);
  EXPECT_NE(Err.find("JNI function id out of range"), std::string::npos)
      << Err;
  EXPECT_TRUE(Cfg.Blocks.empty());
}

/// The lifter's success gating: a micro whose balance calls all succeed
/// lifts with Success on those calls, and the balanced fixed variants
/// stay verdict-free even though they move the counters.
TEST(JinnVerify, LiftedSuccessGating) {
  LiftedProgram P = liftMicro(scenarios::MicroId::MonitorExitUnmatchedFixed);
  size_t Enters = 0, Exits = 0;
  for (const BasicBlock &B : P.Cfg.Blocks)
    for (const CrossEvent &Ev : B.Events) {
      if (Ev.K != CrossEvent::Kind::Call)
        continue;
      if (Ev.Fn == jni::FnId::MonitorEnter && Ev.Success)
        ++Enters;
      if (Ev.Fn == jni::FnId::MonitorExit && Ev.Success)
        ++Exits;
    }
  EXPECT_GT(Enters, 0u);
  EXPECT_EQ(Enters, Exits);
  Verdict V = verifyCfg(P.Cfg, verifierModels());
  EXPECT_FALSE(V.flagged());
}

} // namespace
