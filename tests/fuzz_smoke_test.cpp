//===- tests/fuzz_smoke_test.cpp - Differential fuzzer smoke campaign ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's tier-1 contract, at ctest budget (~seconds, fixed seeds):
/// the op table must validate against the resolved spec models; every
/// clean path must execute report-free under all three oracles; every bug
/// path must produce exactly its spec-predicted report; and the smoke
/// campaign must drive every reachable transition of every JNI machine
/// (the ≥90% acceptance floor — the smoke budget in fact reaches 100%,
/// and this test pins that so the committed baseline can demand it).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jinn;
using namespace jinn::fuzz;

namespace {

TEST(FuzzOps, TableValidatesAgainstSpecModels) {
  std::vector<std::string> Issues = validateJniOps(jniMachineModels());
  for (const std::string &Issue : Issues)
    ADD_FAILURE() << Issue;
  EXPECT_TRUE(Issues.empty());
}

TEST(FuzzOps, EveryMachineHasABugOp) {
  // The generator can only reach error states through declared bug ops;
  // a machine without one would silently cap below the coverage floor.
  for (const analysis::MachineModel &Model : jniMachineModels()) {
    bool ErrorReachable = std::any_of(
        Model.Transitions.begin(), Model.Transitions.end(),
        [](const analysis::TransitionModel &T) {
          return T.To.rfind("Error", 0) == 0;
        });
    if (!ErrorReachable)
      continue;
    bool Found = std::any_of(jniOps().begin(), jniOps().end(),
                             [&](const FuzzOp &Op) {
                               return Op.Kind == OpKind::Bug &&
                                      Op.Expect.Machine == Model.Name;
                             });
    EXPECT_TRUE(Found) << "no bug op targets machine " << Model.Name;
  }
}

TEST(FuzzSmoke, CleanPathsAreReportFree) {
  Generator Gen(11);
  for (const analysis::MachineModel &Model : jniMachineModels()) {
    Sequence Seq = Gen.cleanJniSequence(Model.Name, 0);
    ExecResult R = runJniSequence(Seq);
    for (const std::string &Failure : R.Failures)
      ADD_FAILURE() << "focus " << Model.Name << ": " << Failure;
    EXPECT_TRUE(R.Pass);
    EXPECT_TRUE(R.Inline.empty());
  }
}

TEST(FuzzSmoke, BugPathsProduceExactlyThePredictedReport) {
  Generator Gen(13);
  for (const FuzzOp &Op : jniOps()) {
    if (Op.Kind != OpKind::Bug)
      continue;
    Sequence Seq = Gen.bugJniSequence(Op.Name, 0);
    ExecResult R = runJniSequence(Seq);
    for (const std::string &Failure : R.Failures)
      ADD_FAILURE() << Op.Name << ": " << Failure;
    EXPECT_TRUE(R.Pass) << Op.Name;
    ASSERT_EQ(R.Inline.size(), 1u) << Op.Name;
    EXPECT_EQ(R.Inline.front().Machine, Op.Expect.Machine) << Op.Name;
  }
}

TEST(FuzzSmoke, CampaignCoversEveryReachableJniEdge) {
  CampaignOptions Opts;
  Opts.Seed = 1;
  DiagnosticSink Sink;
  Opts.Sink = &Sink;
  CampaignResult Result = runCampaign(Opts);

  for (const std::string &Issue : Result.TableIssues)
    ADD_FAILURE() << Issue;
  for (const CampaignFinding &F : Result.Findings) {
    for (const std::string &Failure : F.Failures)
      ADD_FAILURE() << Failure;
  }
  EXPECT_TRUE(Result.Pass);

  // The acceptance criterion is >=90%; the smoke budget reaches every
  // reachable edge, and the committed baseline holds future runs to that.
  EXPECT_TRUE(Result.JniCov.allAbove(0.90)) << Result.JniCov.toTable();
  for (const MachineCoverage &Row : Result.JniCov.machines())
    EXPECT_EQ(Row.covered(), Row.reachable()) << Result.JniCov.toTable();

  // Python domain: same exhaustive coverage over its four machines.
  EXPECT_TRUE(Result.PyCov.allAbove(0.90)) << Result.PyCov.toTable();
  for (const MachineCoverage &Row : Result.PyCov.machines())
    EXPECT_EQ(Row.covered(), Row.reachable()) << Result.PyCov.toTable();

  // Counters surfaced through the Diagnostics sink for observability.
  EXPECT_EQ(Sink.counter("fuzz.findings"), 0u);
  EXPECT_EQ(Sink.counter("fuzz.sequences"), Result.SequencesRun);
  EXPECT_GT(Sink.counter("fuzz.cov.Monitor.covered"), 0u);
}

TEST(FuzzSmoke, SequencesAreDeterministicForAFixedSeed) {
  Generator Gen(99);
  Sequence A = Gen.cleanJniSequence("Local reference", 4);
  Sequence B = Gen.cleanJniSequence("Local reference", 4);
  EXPECT_EQ(A.OpNames, B.OpNames);
  Sequence C = Gen.cleanJniSequence("Local reference", 5);
  EXPECT_NE(A.OpNames, C.OpNames);

  // Same for bug paths, and across generator instances.
  Sequence D = Gen.bugJniSequence("bug_global_dangling", 2);
  Sequence E = Generator(99).bugJniSequence("bug_global_dangling", 2);
  EXPECT_EQ(D.OpNames, E.OpNames);
}

TEST(FuzzSmoke, PythonDomainVerdicts) {
  PyExecResult Clean = runPySequence(cleanPySequence(5, 0));
  for (const std::string &Failure : Clean.Failures)
    ADD_FAILURE() << Failure;
  EXPECT_TRUE(Clean.Pass);

  for (const std::string &BugName : pyBugOpNames()) {
    PyExecResult R = runPySequence(bugPySequence(5, BugName, 0));
    for (const std::string &Failure : R.Failures)
      ADD_FAILURE() << BugName << ": " << Failure;
    EXPECT_TRUE(R.Pass) << BugName;
  }
}

} // namespace
