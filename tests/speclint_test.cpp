//===- tests/speclint_test.cpp - Spec static analyzer tests --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer contract, from both sides: the fourteen shipped machines
/// (and the Python checker's machines) must lint clean, a fixture spec
/// with seeded defects must be flagged on every defect, the relevance
/// matrix must agree with the program Algorithm 1 compiles into the
/// dispatcher.
///
//===----------------------------------------------------------------------===//

#include "analysis/SpecLint.h"
#include "jinn/Machines.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace jinn;
using namespace jinn::analysis;
using jinn::jni::FnId;
using jinn::spec::Direction;
using jinn::spec::FunctionSelector;

namespace {

struct CountingReporter : spec::Reporter {
  size_t Violations = 0;
  void violation(spec::TransitionContext &, const spec::StateMachineSpec &,
                 const std::string &) override {
    ++Violations;
  }
  void endOfRun(const spec::StateMachineSpec &, const std::string &) override {
  }
};

/// Models + real synthesis stats for the shipped machine set.
struct ShippedAnalysis {
  agent::MachineSet Machines;
  CountingReporter Reporter;
  jvmti::InterposeDispatcher Dispatcher;
  synth::SynthesisStats Stats;
  std::vector<MachineModel> Models;
  RelevanceMatrix Matrix;

  ShippedAnalysis() {
    synth::Synthesizer Synth(Machines.all(), Reporter);
    Stats = Synth.installInto(Dispatcher);
    for (spec::MachineBase *Machine : Machines.all())
      Models.push_back(buildModel(Machine->spec()));
    Matrix = buildRelevanceMatrix(Models);
  }
};

//===----------------------------------------------------------------------===
// Clean runs: the shipped specifications carry no defects.
//===----------------------------------------------------------------------===

TEST(SpecLint, ShippedJniMachinesClean) {
  ShippedAnalysis A;
  LintOptions Opts;
  Opts.Stats = &A.Stats;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines(A.Models, Opts);
  for (const Finding &F : Report.Findings)
    ADD_FAILURE() << severityName(F.S) << " " << F.Check << " [" << F.Machine
                  << "] " << F.Detail;
  EXPECT_EQ(Report.count(Severity::Error), 0u);
  EXPECT_EQ(Report.count(Severity::Warning), 0u);
}

TEST(SpecLint, PythonMachinesClean) {
  std::vector<MachineModel> Models = buildPythonModels();
  ASSERT_EQ(Models.size(), 4u);
  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines(Models, Opts);
  for (const Finding &F : Report.Findings)
    ADD_FAILURE() << severityName(F.S) << " " << F.Check << " [" << F.Machine
                  << "] " << F.Detail;
  EXPECT_FALSE(Report.hasErrors());
}

//===----------------------------------------------------------------------===
// Seeded defects: one fixture machine carrying every defect class the
// analyzer exists to catch. Each must surface as exactly the right check.
//===----------------------------------------------------------------------===

spec::StateMachineSpec brokenFixtureSpec() {
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Broken fixture";
  Spec.ObservedEntity = "nothing real";
  Spec.States = {"Start", "Mid", "Orphan", "Error: boom"};

  // Fine on its own, but overlaps the MonitorEnter transition below: both
  // fire at Call:C->Java on MonitorEnter with different non-error targets.
  Spec.Transitions.push_back(
      {"Start",
       "Mid",
       {{FunctionSelector::all("any JNI function"), Direction::CallCToJava}},
       Noop});
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::MonitorEnter), Direction::CallCToJava}},
       Noop});

  // Targets a state the machine never declared.
  Spec.Transitions.push_back(
      {"Mid",
       "Ghost",
       {{FunctionSelector::one(FnId::MonitorExit), Direction::CallCToJava}},
       Noop});

  // A selector that matches no function at all.
  Spec.Transitions.push_back(
      {"Mid",
       "Start",
       {{FunctionSelector::matching("matches nothing",
                                    [](const jni::FnTraits &) {
                                      return false;
                                    }),
         Direction::ReturnJavaToC}},
       Noop});

  // Triggers but no action: Algorithm 1 would wrap a null action.
  Spec.Transitions.push_back(
      {"Mid",
       "Mid",
       {{FunctionSelector::one(FnId::GetVersion), Direction::CallCToJava}},
       nullptr});

  // An action with no trigger anywhere: dead code in the spec.
  Spec.Transitions.push_back({"Mid", "Start", {}, Noop});

  // "Orphan" is declared but no transition ever reaches it.
  return Spec;
}

TEST(SpecLint, FlagsEverySeededDefect) {
  std::vector<MachineModel> Models = {buildModel(brokenFixtureSpec())};
  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines(Models, Opts);

  EXPECT_TRUE(Report.hasErrors());
  ASSERT_EQ(Report.named("reachability/unreachable-state").size(), 1u);
  EXPECT_NE(Report.named("reachability/unreachable-state")[0]->Detail.find(
                "Orphan"),
            std::string::npos);
  ASSERT_EQ(Report.named("reachability/undeclared-state").size(), 1u);
  EXPECT_NE(
      Report.named("reachability/undeclared-state")[0]->Detail.find("Ghost"),
      std::string::npos);
  EXPECT_EQ(Report.named("selector/zero-match").size(), 1u);
  EXPECT_EQ(Report.named("transition/missing-action").size(), 1u);
  EXPECT_EQ(Report.named("transition/dead-action").size(), 1u);
  EXPECT_EQ(Report.named("determinism/conflict").size(), 1u);
}

TEST(SpecLint, PushdownSeededDefects) {
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Pushdown fixture";
  Spec.ObservedEntity = "a broken counter";
  Spec.States = {"Start", "Error: underflow"};
  Spec.Counter = {"fixture depth", 0}; // Bound 0: unbounded

  // A reachable guarded pop with no non-error push anywhere in the spec:
  // the pop can never fire and every attempt underflows.
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::MonitorExit), Direction::ReturnJavaToC}},
       Noop,
       spec::CounterOp::Pop});
  // A pop on an epsilon transition: no hook site guards against zero.
  Spec.Transitions.push_back(
      {"Start", "Start", {}, nullptr, spec::CounterOp::Pop});
  // The guarded error check (pop at zero) is not a matching push either.
  Spec.Transitions.push_back(
      {"Start",
       "Error: underflow",
       {{FunctionSelector::one(FnId::MonitorExit), Direction::CallCToJava}},
       Noop,
       spec::CounterOp::Pop});

  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines({buildModel(Spec)}, Opts);
  EXPECT_TRUE(Report.hasErrors());
  EXPECT_EQ(Report.named("pushdown/underflow-on-epsilon").size(), 1u);
  EXPECT_EQ(Report.named("pushdown/unmatched-pop").size(), 1u);
  EXPECT_EQ(Report.named("pushdown/unbounded-counter").size(), 1u);
}

TEST(SpecLint, CounterOpWithoutDeclaredCounterIsAnError) {
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Undeclared-counter fixture";
  Spec.States = {"Start"};
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::MonitorEnter),
         Direction::ReturnJavaToC}},
       Noop,
       spec::CounterOp::Push});
  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines({buildModel(Spec)}, Opts);
  EXPECT_EQ(Report.named("pushdown/undeclared-counter").size(), 1u);
  EXPECT_TRUE(Report.hasErrors());
}

TEST(SpecLint, MonotonePushAndUnusedCounterAreWarnings) {
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};

  spec::StateMachineSpec GrowOnly;
  GrowOnly.Name = "Grow-only fixture";
  GrowOnly.States = {"Start"};
  GrowOnly.Counter = {"grow-only depth", 8};
  GrowOnly.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::PushLocalFrame),
         Direction::ReturnJavaToC}},
       Noop,
       spec::CounterOp::Push});

  spec::StateMachineSpec Unused;
  Unused.Name = "Unused-counter fixture";
  Unused.States = {"Start"};
  Unused.Counter = {"idle depth", 8};
  Unused.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::GetVersion), Direction::CallCToJava}},
       Noop});

  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report =
      lintMachines({buildModel(GrowOnly), buildModel(Unused)}, Opts);
  EXPECT_FALSE(Report.hasErrors());
  ASSERT_EQ(Report.named("pushdown/unmatched-push").size(), 1u);
  EXPECT_EQ(Report.named("pushdown/unmatched-push")[0]->Machine,
            "Grow-only fixture");
  ASSERT_EQ(Report.named("pushdown/unused-counter").size(), 1u);
  EXPECT_EQ(Report.named("pushdown/unused-counter")[0]->Machine,
            "Unused-counter fixture");
}

TEST(SpecLint, InertMachineIsAnErrorInBothUniverses) {
  // A machine whose only selector matches nothing observes zero functions
  // at every language transition: every one of its checks is dead. The
  // report must be identical for the JNI and the Python/C universes (the
  // historical blind spot: the pass used to skip zero-match machines when
  // linting the Python models).
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Inert fixture";
  Spec.States = {"Start"};
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::matching("matches nothing",
                                    [](const jni::FnTraits &) {
                                      return false;
                                    }),
         Direction::CallCToJava}},
       Noop});

  LintOptions Opts;
  Opts.IncludeInfo = false;

  std::vector<MachineModel> Jni = {buildModel(Spec)};
  LintReport JniReport = lintMachines(Jni, Opts);
  ASSERT_EQ(JniReport.named("coverage/inert-machine").size(), 1u);
  EXPECT_EQ(JniReport.named("coverage/inert-machine")[0]->Machine,
            "Inert fixture");

  // Same defect seeded into the Python universe: hand-build the model the
  // way buildPythonModels would resolve it (selector matches nothing).
  std::vector<MachineModel> Py = buildPythonModels();
  MachineModel Inert;
  Inert.Name = "Inert fixture";
  Inert.Universe = Py.front().Universe;
  Inert.States = {"Start"};
  Inert.StartState = "Start";
  TransitionModel T;
  T.From = T.To = "Start";
  T.HasAction = true;
  TriggerModel Trigger;
  Trigger.Dir = spec::Direction::CallCToJava;
  Trigger.SelectorKind = spec::FunctionSelector::Kind::JniPredicate;
  Trigger.Description = "matches nothing";
  Trigger.Matches = FnSet(Inert.Universe->size());
  T.Triggers.push_back(Trigger);
  Inert.Transitions.push_back(T);
  Py.push_back(Inert);

  LintReport PyReport = lintMachines(Py, Opts);
  ASSERT_EQ(PyReport.named("coverage/inert-machine").size(), 1u);
  EXPECT_EQ(PyReport.named("coverage/inert-machine")[0]->Machine,
            "Inert fixture");
}

TEST(SpecLint, GuardedErrorTransitionsAreNotConflicts) {
  // Two transitions from one state on the same function where one target
  // is an error state: the guarded-check idiom, not nondeterminism.
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Guarded fixture";
  Spec.States = {"Start", "Error: caught"};
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::all("any"), Direction::CallCToJava}},
       Noop});
  Spec.Transitions.push_back(
      {"Start",
       "Error: caught",
       {{FunctionSelector::all("any"), Direction::CallCToJava}},
       Noop});
  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines({buildModel(Spec)}, Opts);
  EXPECT_EQ(Report.named("determinism/conflict").size(), 0u);
  EXPECT_FALSE(Report.hasErrors());
}

TEST(SpecLint, ViolationTextMustTargetAnErrorState) {
  // Regression for the mutation campaign's spec-monitorbalance-error-
  // state-swapped survivor: a counter-guard transition whose declared
  // violation text flows to a non-error target used to pass every
  // analysis (reachability exempts error states, and the compiled check
  // program records only hook sites). The lint now makes the target label
  // load-bearing.
  spec::TransitionAction Noop = [](spec::TransitionContext &) {};
  spec::StateMachineSpec Spec;
  Spec.Name = "Mislabeled fixture";
  Spec.States = {"Start", "Error: underflow"};
  Spec.Counter = {"fixture depth", 4};
  Spec.Transitions.push_back(
      {"Start",
       "Start",
       {{FunctionSelector::one(FnId::MonitorEnter),
         Direction::ReturnJavaToC}},
       Noop,
       spec::CounterOp::Push});
  Spec.Transitions.push_back(
      {"Start",
       "Start", // should be "Error: underflow"
       {{FunctionSelector::one(FnId::MonitorExit), Direction::CallCToJava}},
       Noop,
       spec::CounterOp::Pop});
  Spec.Transitions.back().Violation = "fixture underflow";

  LintOptions Opts;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines({buildModel(Spec)}, Opts);
  ASSERT_EQ(Report.named("transition/violation-without-error-target").size(),
            1u);
  EXPECT_TRUE(Report.hasErrors());

  // The correctly labeled spec is clean.
  Spec.Transitions.back().To = "Error: underflow";
  LintReport Fixed = lintMachines({buildModel(Spec)}, Opts);
  EXPECT_EQ(Fixed.named("transition/violation-without-error-target").size(),
            0u);
}

TEST(SpecLint, StatsMismatchIsAnError) {
  ShippedAnalysis A;
  synth::SynthesisStats Wrong = A.Stats;
  Wrong.JniPreHooks += 1;
  LintOptions Opts;
  Opts.Stats = &Wrong;
  Opts.IncludeInfo = false;
  LintReport Report = lintMachines(A.Models, Opts);
  EXPECT_GE(Report.named("consistency/stats-mismatch").size(), 1u);
  EXPECT_TRUE(Report.hasErrors());
}

//===----------------------------------------------------------------------===
// Relevance matrix vs Algorithm 1: the static derivation must agree with
// the hooks actually installed, function by function and in total.
//===----------------------------------------------------------------------===

TEST(RelevanceMatrix, AgreesWithInstalledHooksPerFunction) {
  ShippedAnalysis A;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    FnId Id = static_cast<FnId>(I);
    EXPECT_EQ(A.Dispatcher.preCount(Id) > 0, A.Matrix.AnyPre.test(I))
        << jni::fnName(Id);
    EXPECT_EQ(A.Dispatcher.postCount(Id) > 0, A.Matrix.AnyPost.test(I))
        << jni::fnName(Id);
  }
}

TEST(RelevanceMatrix, RederivesSynthesisStats) {
  ShippedAnalysis A;
  EXPECT_EQ(A.Matrix.Machines.size(), A.Stats.MachineCount);
  EXPECT_EQ(A.Matrix.TotalTransitions, A.Stats.StateTransitionCount);
  EXPECT_EQ(A.Matrix.TotalPreHooks, A.Stats.JniPreHooks);
  EXPECT_EQ(A.Matrix.TotalPostHooks, A.Stats.JniPostHooks);
  EXPECT_EQ(A.Matrix.TotalNativeEntry, A.Stats.NativeEntryActions);
  EXPECT_EQ(A.Matrix.TotalNativeExit, A.Stats.NativeExitActions);
}

TEST(RelevanceMatrix, EnvStateObservesAllFunctionsPre) {
  ShippedAnalysis A;
  const MachineRelevance *Env = A.Matrix.rowFor("JNIEnv* state");
  ASSERT_NE(Env, nullptr);
  EXPECT_EQ(Env->Pre.count(), jni::NumJniFunctions);
  // Post checks are sparse: most functions have none, so their compiled
  // wrappers skip the post phase even in the full configuration.
  EXPECT_LT(A.Matrix.AnyPost.count(), jni::NumJniFunctions / 2);
}

} // namespace
