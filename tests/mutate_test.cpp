//===- tests/mutate_test.cpp - Mutation campaign regression tests --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression anchors for the jinn-mutate campaign (DESIGN.md §16): the
/// registry invariants, the unmutated contract-probe values, and — most
/// importantly — the probes that were added to close discovered blind
/// spots. Each blind-spot test flips the mutant on in-process and asserts
/// the probe section moves; if a refactor ever re-opens the gap, the
/// corresponding test fails here, independent of the full campaign.
///
//===----------------------------------------------------------------------===//

#include "mutate/Harness.h"
#include "mutate/Mutation.h"
#include "scenarios/Scenarios.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::mutate;

namespace {

/// RAII: no test may leak an active mutant into its neighbours.
struct MutantGuard {
  explicit MutantGuard(M Which) {
    setActiveMutant(static_cast<int>(Which));
  }
  ~MutantGuard() { setActiveMutant(0); }
};

std::string probeLine(const std::vector<std::string> &Lines,
                      const char *Prefix) {
  for (const std::string &Line : Lines)
    if (Line.rfind(Prefix, 0) == 0)
      return Line;
  return "<missing: " + std::string(Prefix) + ">";
}

} // namespace

TEST(MutantRegistry, IdsAndNamesAreUniqueAndResolvable) {
  const std::vector<MutantInfo> &Mutants = allMutants();
  ASSERT_GE(Mutants.size(), 20u);
  std::set<int> Ids;
  std::set<std::string> Names;
  for (const MutantInfo &Info : Mutants) {
    EXPECT_TRUE(Ids.insert(Info.Id).second) << "duplicate id " << Info.Id;
    EXPECT_TRUE(Names.insert(Info.Name).second)
        << "duplicate name " << Info.Name;
    EXPECT_EQ(findMutant(Info.Id), &Info);
    EXPECT_EQ(findMutant(std::string(Info.Name)), &Info);
    EXPECT_EQ(findMutant(std::to_string(Info.Id)), &Info);
    EXPECT_NE(Info.Rationale, std::string());
  }
  EXPECT_EQ(findMutant(0), nullptr);
  EXPECT_EQ(findMutant("no-such-mutant"), nullptr);
  EXPECT_EQ(activeMutant(), 0) << "tests must start unmutated";
}

TEST(MutantRegistry, EverySurvivorIsAnnotated) {
  // The gate enforces this against the campaign JSON; this is the
  // compile-time half — annotations must name a real policy.
  for (const MutantInfo &Info : allMutants())
    EXPECT_TRUE(Info.Expected == Expect::Killed ||
                Info.Expected == Expect::SurvivesEquivalent ||
                Info.Expected == Expect::SurvivesBlindSpot);
}

TEST(ContractProbes, UnmutatedContractsHold) {
  std::vector<std::string> Probes = runContractProbes();
  // EnsureLocalCapacity(-1) must be rejected with JNI_ERR.
  EXPECT_EQ(probeLine(Probes, "probe:ensure-negative="),
            "probe:ensure-negative=-1");
  // A foreign MonitorExit fails with a pending IllegalMonitorState-
  // Exception while enter and the matching exit both succeed.
  EXPECT_EQ(probeLine(Probes, "probe:monitor-exit-foreign="),
            "probe:monitor-exit-foreign=enter:0,foreign:-1,pending:1,"
            "matching:0");
  // An ensured capacity of 24 really holds 21 locals.
  EXPECT_EQ(probeLine(Probes, "probe:ensure-grows="),
            "probe:ensure-grows=rc:0,live:20,outcome:running");
  // The attach frame holds exactly 16 locals: FindClass + 16 allocations
  // is one over and must classify as a leak (capacity overflow).
  EXPECT_EQ(probeLine(Probes, "probe:frame-boundary="),
            "probe:frame-boundary=attach:0,live:16,outcome:leak");
  // The false-positive contract behind the exit-gate blind spot: a held
  // monitor plus one rejected foreign exit stays report-free under Jinn.
  EXPECT_EQ(probeLine(Probes, "probe:jinn-foreign-exit="),
            "probe:jinn-foreign-exit=reports:0[]");
}

//===----------------------------------------------------------------------===
// Blind-spot regressions: each fixed gap keeps a test proving the closing
// oracle still observes its mutant.
//===----------------------------------------------------------------------===

TEST(BlindSpotRegression, FrameCapacitySlackIsObserved) {
  // Mutant 1 survived the original battery: no oracle exercised the
  // attach frame at its exact capacity. The frame-boundary probe must
  // flip from leak to running when the frame gains a slack slot.
  std::vector<std::string> Base = runContractProbes();
  MutantGuard Guard(M::JvmFrameCapacityPlusOne);
  std::vector<std::string> Mutated = runContractProbes();
  EXPECT_NE(probeLine(Base, "probe:frame-boundary="),
            probeLine(Mutated, "probe:frame-boundary="));
  EXPECT_EQ(probeLine(Mutated, "probe:frame-boundary="),
            "probe:frame-boundary=attach:0,live:16,outcome:running");
}

TEST(BlindSpotRegression, EnsureCapacityMustActuallyGrow) {
  std::vector<std::string> Base = runContractProbes();
  MutantGuard Guard(M::JvmEnsureCapacityIgnored);
  std::vector<std::string> Mutated = runContractProbes();
  EXPECT_NE(probeLine(Base, "probe:ensure-grows="),
            probeLine(Mutated, "probe:ensure-grows="));
}

TEST(BlindSpotRegression, NegativeCapacityMustBeRejected) {
  MutantGuard Guard(M::JniEnsureNegativeAccepted);
  EXPECT_EQ(probeLine(runContractProbes(), "probe:ensure-negative="),
            "probe:ensure-negative=0");
}

TEST(BlindSpotRegression, MaskedMonitorExitFailureIsObserved) {
  MutantGuard Guard(M::JniMonitorExitFailureMasked);
  std::string Line =
      probeLine(runContractProbes(), "probe:monitor-exit-foreign=");
  // The masked exit claims JNI_OK and raises no exception.
  EXPECT_NE(Line.find("foreign:0"), std::string::npos) << Line;
  EXPECT_NE(Line.find("pending:0"), std::string::npos) << Line;
}

TEST(BlindSpotRegression, RejectedForeignExitMustNotPopShadow) {
  // Mutant 10, the campaign's headline discovery: with the JNI_OK gate
  // dropped, MonitorBalance pops its shadow counter for the rejected
  // foreign exit, then reports a false unmatched-exit on the legitimate
  // matching exit.
  std::vector<std::string> Base = runContractProbes();
  EXPECT_EQ(probeLine(Base, "probe:jinn-foreign-exit="),
            "probe:jinn-foreign-exit=reports:0[]");
  MutantGuard Guard(M::SpecMonitorExitGateDropped);
  std::string Line =
      probeLine(runContractProbes(), "probe:jinn-foreign-exit=");
  EXPECT_NE(Line, "probe:jinn-foreign-exit=reports:0[]");
  EXPECT_NE(Line.find("MonitorExit"), std::string::npos) << Line;
}

TEST(BlindSpotRegression, NullnessInversionFlipsACleanMicro) {
  // Sanity anchor: the machinery really is runtime-switchable — the same
  // process observes a clean micro turning into a Jinn report under the
  // inverted nullness guard, then back to clean after the guard resets.
  using namespace jinn::scenarios;
  WorldConfig Cfg;
  Cfg.Checker = CheckerKind::Jinn;
  EXPECT_EQ(runMicroToOutcome(MicroId::PopWithoutPushFixed, Cfg),
            Outcome::Running);
  {
    MutantGuard Guard(M::SpecNullnessInverted);
    EXPECT_NE(runMicroToOutcome(MicroId::PopWithoutPushFixed, Cfg),
              Outcome::Running);
  }
  EXPECT_EQ(runMicroToOutcome(MicroId::PopWithoutPushFixed, Cfg),
            Outcome::Running);
}

TEST(MutantSwitch, EnvironmentSelectsTheActiveMutant) {
  // The JINN_MUTANT environment variable (a name or an id) selects the
  // mutant every guarded site sees from process start. Run plainly, this
  // asserts the unmutated default; the mutate_env_* ctests rerun it with
  // the variable set and check that a clean micro flips.
#ifdef JINN_MUTANT_PINNED
  GTEST_SKIP() << "a pinned build ignores the environment";
#else
  const char *Env = std::getenv("JINN_MUTANT");
  int Expected = 0;
  if (Env && *Env) {
    const MutantInfo *Info = findMutant(std::string(Env));
    ASSERT_NE(Info, nullptr) << Env;
    Expected = Info->Id;
  }
  EXPECT_EQ(activeMutant(), Expected);
  for (const MutantInfo &Info : allMutants())
    EXPECT_EQ(active(Info.Which), Info.Id == Expected) << Info.Name;
  if (Expected == static_cast<int>(M::SpecNullnessInverted)) {
    using namespace jinn::scenarios;
    WorldConfig Cfg;
    Cfg.Checker = CheckerKind::Jinn;
    EXPECT_NE(runMicroToOutcome(MicroId::PopWithoutPushFixed, Cfg),
              Outcome::Running);
  }
#endif
}

TEST(KillJudge, EquivalentMutantProducesIdenticalFingerprint) {
  // Mutant 2 (one fewer TLAB slot) is the annotated equivalent: the
  // whole fingerprint, not just the probes, must match the baseline.
  Verdict V = judgeMutant(static_cast<int>(M::JvmTlabRefillMinusOne));
  EXPECT_EQ(V.Status, "survived");
  EXPECT_TRUE(V.KilledBy.empty());
  EXPECT_EQ(activeMutant(), 0) << "judge must restore the active mutant";
}
