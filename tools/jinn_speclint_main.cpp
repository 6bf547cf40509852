//===- tools/jinn_speclint_main.cpp - Spec static analyzer CLI -----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jinn-speclint: loads the fourteen JNI machine specifications and the
/// Python checker's machines into the analysis model, runs every lint
/// pass (reachability, determinism, coverage, cross-machine consistency),
/// and prints the relevance matrix the synthesis-time check elision is
/// driven by. Exits non-zero when any ERROR-class finding is present, so
/// registering it as a ctest makes a malformed specification fail tier-1.
///
//===----------------------------------------------------------------------===//

#include "analysis/SpecLint.h"
#include "jinn/Census.h"
#include "jinn/Machines.h"
#include "jvmti/Interpose.h"
#include "synth/Synthesizer.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::analysis;

namespace {

/// The synthesizer needs a reporter; static analysis never fires one.
class NullReporter : public spec::Reporter {
  void violation(spec::TransitionContext &, const spec::StateMachineSpec &,
                 const std::string &) override {}
  void endOfRun(const spec::StateMachineSpec &, const std::string &) override {
  }
};

struct UniverseReport {
  std::string Name;
  std::vector<MachineModel> Models;
  RelevanceMatrix Matrix;
  LintReport Lint;
};

/// Cross-checks the dispatcher's compiled program against the relevance
/// matrix: a function must carry a pre/post slot exactly when some
/// machine's matrix row observes it there.
void checkDispatcherAgainstMatrix(const jvmti::InterposeDispatcher &Dispatcher,
                                  const RelevanceMatrix &Matrix,
                                  LintReport &Lint) {
  size_t Mismatches = 0;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    jni::FnId Id = static_cast<jni::FnId>(I);
    bool HookPre = Dispatcher.preCount(Id) > 0;
    bool HookPost = Dispatcher.postCount(Id) > 0;
    if (HookPre != Matrix.AnyPre.test(I) ||
        HookPost != Matrix.AnyPost.test(I)) {
      ++Mismatches;
      Lint.Findings.push_back(
          {Severity::Error, "consistency/dispatcher-mask", "",
           std::string("function ") + Matrix.Universe->Functions[I] +
               ": installed hooks disagree with the relevance matrix"});
    }
  }
  if (!Mismatches)
    Lint.Findings.push_back(
        {Severity::Info, "consistency/dispatcher-mask", "",
         "the dispatcher's per-function hook table matches the relevance "
         "matrix for all 229 functions (elision is report-preserving)"});
}

void printFindings(const LintReport &Lint) {
  for (Severity S : {Severity::Error, Severity::Warning, Severity::Info})
    for (const Finding &F : Lint.Findings) {
      if (F.S != S)
        continue;
      std::printf("  %-7s %-33s %s%s%s\n", severityName(F.S),
                  F.Check.c_str(), F.Machine.empty() ? "" : "[",
                  F.Machine.empty() ? "" : (F.Machine + "] ").c_str(),
                  F.Detail.c_str());
    }
  if (Lint.Findings.empty())
    std::printf("  (no findings)\n");
}

void printMatrix(const UniverseReport &Report) {
  std::printf("\nRelevance matrix (%s universe, %zu functions):\n",
              Report.Name.c_str(), Report.Matrix.Universe->size());
  std::printf("  %-36s | %7s %8s | %9s %10s | %5s %5s\n", "machine",
              "pre fns", "post fns", "pre hooks", "post hooks", "entry",
              "exit");
  for (const MachineRelevance &Row : Report.Matrix.Machines)
    std::printf("  %-36s | %7zu %8zu | %9zu %10zu | %5zu %5zu\n",
                Row.Machine.c_str(), Row.Pre.count(), Row.Post.count(),
                Row.PreHooks, Row.PostHooks, Row.NativeEntryTriggers,
                Row.NativeExitTriggers);
  std::printf("  %-36s | %7zu %8zu | %9zu %10zu | %5zu %5zu\n", "union / total",
              Report.Matrix.AnyPre.count(), Report.Matrix.AnyPost.count(),
              Report.Matrix.TotalPreHooks, Report.Matrix.TotalPostHooks,
              Report.Matrix.TotalNativeEntry, Report.Matrix.TotalNativeExit);
  size_t N = Report.Matrix.Universe->size();
  std::printf("  observed: %zu/%zu functions (%zu by function-specific "
              "selectors); elidable without the all-function machines: %zu\n",
              Report.Matrix.Any.count(), N, Report.Matrix.SpecificAny.count(),
              N - Report.Matrix.SpecificAny.count());
}

void printCensusJoin(const RelevanceMatrix &Matrix) {
  std::printf("\nTable 2 constraint classes vs relevance matrix:\n");
  std::printf("  %-12s %-36s | %6s %6s | %7s %8s\n", "class", "machine",
              "rules", "paper", "pre fns", "post fns");
  for (const agent::CensusRow &Row : agent::computeConstraintCensus()) {
    const MachineRelevance *Rel = nullptr;
    for (const MachineRelevance &R : Matrix.Machines)
      if (R.Machine.rfind(Row.Name, 0) == 0 ||
          Row.Name.rfind(R.Machine, 0) == 0)
        Rel = &R;
    std::printf("  %-12s %-36s | %6zu %6zu | %7zu %8zu\n",
                Row.ConstraintClass.c_str(), Row.Name.c_str(), Row.Count,
                Row.PaperCount, Rel ? Rel->Pre.count() : 0,
                Rel ? Rel->Post.count() : 0);
  }
}

std::string jsonEscaped(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

void printJson(const std::vector<UniverseReport> &Reports,
               const synth::SynthesisStats &Stats) {
  std::printf("{\n  \"tool\": \"jinn-speclint\",\n");
  std::printf("  \"synthesis\": {\"machines\": %zu, \"transitions\": %zu, "
              "\"preHooks\": %zu, \"postHooks\": %zu, \"nativeEntry\": %zu, "
              "\"nativeExit\": %zu, \"points\": %zu},\n",
              Stats.MachineCount, Stats.StateTransitionCount,
              Stats.JniPreHooks, Stats.JniPostHooks, Stats.NativeEntryActions,
              Stats.NativeExitActions, Stats.instrumentationPoints());
  std::printf("  \"universes\": [\n");
  for (size_t U = 0; U < Reports.size(); ++U) {
    const UniverseReport &Report = Reports[U];
    std::printf("    {\"name\": \"%s\", \"functions\": %zu, \"observed\": "
                "%zu,\n     \"machines\": [\n",
                jsonEscaped(Report.Name).c_str(),
                Report.Matrix.Universe->size(), Report.Matrix.Any.count());
    for (size_t M = 0; M < Report.Matrix.Machines.size(); ++M) {
      const MachineRelevance &Row = Report.Matrix.Machines[M];
      std::string Counter; // additive: present only for pushdown machines
      if (M < Report.Models.size() && Report.Models[M].hasCounter()) {
        char Buf[128];
        std::snprintf(Buf, sizeof(Buf),
                      ", \"counter\": {\"name\": \"%s\", \"bound\": %u}",
                      jsonEscaped(Report.Models[M].Counter.Name).c_str(),
                      Report.Models[M].Counter.Bound);
        Counter = Buf;
      }
      std::printf("       {\"name\": \"%s\", \"preFns\": %zu, \"postFns\": "
                  "%zu, \"preHooks\": %zu, \"postHooks\": %zu, "
                  "\"nativeEntry\": %zu, \"nativeExit\": %zu%s}%s\n",
                  jsonEscaped(Row.Machine).c_str(), Row.Pre.count(),
                  Row.Post.count(), Row.PreHooks, Row.PostHooks,
                  Row.NativeEntryTriggers, Row.NativeExitTriggers,
                  Counter.c_str(),
                  M + 1 < Report.Matrix.Machines.size() ? "," : "");
    }
    std::printf("     ],\n     \"findings\": [\n");
    for (size_t F = 0; F < Report.Lint.Findings.size(); ++F) {
      const Finding &Finding = Report.Lint.Findings[F];
      std::printf("       {\"severity\": \"%s\", \"check\": \"%s\", "
                  "\"machine\": \"%s\", \"detail\": \"%s\"}%s\n",
                  severityName(Finding.S), jsonEscaped(Finding.Check).c_str(),
                  jsonEscaped(Finding.Machine).c_str(),
                  jsonEscaped(Finding.Detail).c_str(),
                  F + 1 < Report.Lint.Findings.size() ? "," : "");
    }
    std::printf("     ]}%s\n", U + 1 < Reports.size() ? "," : "");
  }
  size_t Errors = 0, Warnings = 0;
  for (const UniverseReport &Report : Reports) {
    Errors += Report.Lint.count(Severity::Error);
    Warnings += Report.Lint.count(Severity::Warning);
  }
  std::printf("  ],\n  \"errors\": %zu,\n  \"warnings\": %zu\n}\n", Errors,
              Warnings);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0) {
      Json = true;
    } else if (std::strcmp(Argv[I], "--help") == 0 ||
               std::strcmp(Argv[I], "-h") == 0) {
      std::printf(
          "usage: jinn-speclint [--json]\n\n"
          "Statically analyzes the fourteen JNI machine specifications and\n"
          "the Python checker's machines: reachability, determinism,\n"
          "coverage (the per-function relevance matrix), and consistency\n"
          "with what Algorithm 1 synthesizes and compiles into the\n"
          "dispatch program. Exits non-zero on any ERROR-class finding.\n");
      return 0;
    } else {
      std::fprintf(stderr, "jinn-speclint: unknown option %s\n", Argv[I]);
      return 2;
    }
  }

  // Load the fourteen machines and run Algorithm 1 against a scratch
  // dispatcher — both the stats-consistency lint and the hook-table
  // cross-check compare static derivation against the real synthesis.
  agent::MachineSet Machines;
  NullReporter Reporter;
  synth::Synthesizer Synth(Machines.all(), Reporter);
  jvmti::InterposeDispatcher Scratch;
  synth::SynthesisStats Stats = Synth.installInto(Scratch);

  std::vector<UniverseReport> Reports(2);
  UniverseReport &Jni = Reports[0];
  Jni.Name = "JNI";
  for (spec::MachineBase *Machine : Machines.all())
    Jni.Models.push_back(buildModel(Machine->spec()));
  Jni.Matrix = buildRelevanceMatrix(Jni.Models);
  LintOptions JniOpts;
  JniOpts.Stats = &Stats;
  Jni.Lint = lintMachines(Jni.Models, JniOpts);
  checkDispatcherAgainstMatrix(Scratch, Jni.Matrix, Jni.Lint);

  UniverseReport &Py = Reports[1];
  Py.Name = "Python/C";
  Py.Models = buildPythonModels();
  Py.Matrix = buildRelevanceMatrix(Py.Models);
  Py.Lint = lintMachines(Py.Models);

  if (Json) {
    printJson(Reports, Stats);
  } else {
    std::printf("jinn-speclint: %zu JNI machines, %zu Python/C machines\n",
                Jni.Models.size(), Py.Models.size());
    std::printf("synthesis: %zu transitions -> %zu pre + %zu post JNI hooks, "
                "%zu native entry + %zu exit actions (%zu points)\n",
                Stats.StateTransitionCount, Stats.JniPreHooks,
                Stats.JniPostHooks, Stats.NativeEntryActions,
                Stats.NativeExitActions, Stats.instrumentationPoints());
    for (const UniverseReport &Report : Reports) {
      printMatrix(Report);
      std::printf("\nFindings (%s):\n", Report.Name.c_str());
      printFindings(Report.Lint);
    }
    printCensusJoin(Jni.Matrix);
  }

  bool Failed = false;
  for (const UniverseReport &Report : Reports)
    Failed |= Report.Lint.hasErrors();
  if (!Json)
    std::printf("\njinn-speclint: %s\n", Failed ? "FAIL" : "PASS");
  return Failed ? 1 : 0;
}
