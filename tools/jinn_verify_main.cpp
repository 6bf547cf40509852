//===- tools/jinn_verify_main.cpp - Static verification CLI --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jinn-verify: static abstract interpretation of client crossing programs
/// against the full machine set (analysis/verify). Sources:
///
///   jinn-verify --micros     every Table-1 microbenchmark: the static
///                            must-verdict must equal the dynamic report
///                            list byte-for-byte (buggy micros flagged,
///                            fixed variants and pitfall 8 clean)
///   jinn-verify --corpus     generator-derived fuzz sequences: one clean
///                            path per machine (no verdict allowed) plus
///                            every bug op's path (must == oracle)
///   jinn-verify --examples   branching/looping harness CFGs (may vs must
///                            classification, fixpoints, widening)
///   jinn-verify --trace <f>  lift a recorded binary trace file and print
///                            its static verdict
///   jinn-verify --json       machine-readable report on stdout
///
/// With no source flag, --micros and --examples run. Exit status is 0 iff
/// every checked contract holds.
///
//===----------------------------------------------------------------------===//

#include "analysis/verify/Examples.h"
#include "analysis/verify/Interp.h"
#include "analysis/verify/Lift.h"
#include "fuzz/Generator.h"
#include "scenarios/Scenarios.h"
#include "support/Format.h"
#include "trace/TraceFile.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::analysis::verify;

namespace {

struct Options {
  bool Micros = false;
  bool Corpus = false;
  bool Examples = false;
  bool Json = false;
  std::string TracePath;
};

/// One verified source program and its contract check.
struct SourceResult {
  std::string Kind;   ///< "micro" / "corpus" / "example" / "trace"
  std::string Source; ///< program name
  Verdict V;
  std::vector<agent::JinnReport> Oracle;
  std::vector<std::string> Failures;

  bool pass() const { return Failures.empty(); }
};

std::string describeReport(const agent::JinnReport &R) {
  return formatString("[%s] %s: %s%s", R.Machine.c_str(), R.Function.c_str(),
                      R.Message.c_str(), R.EndOfRun ? " (end of run)" : "");
}

bool sameReport(const agent::JinnReport &A, const agent::JinnReport &B) {
  return A.Machine == B.Machine && A.Function == B.Function &&
         A.Message == B.Message && A.EndOfRun == B.EndOfRun;
}

/// The straight-line contract shared by micros and corpus paths: the
/// must-verdict is byte-identical to the dynamic oracle and nothing is
/// classified may (one path, so may would contradict the oracle).
void checkAgainstOracle(SourceResult &R) {
  if (R.V.Must.size() != R.Oracle.size()) {
    R.Failures.push_back(formatString(
        "must-verdict count %zu != dynamic report count %zu",
        R.V.Must.size(), R.Oracle.size()));
  } else {
    for (size_t I = 0; I < R.Oracle.size(); ++I)
      if (!sameReport(R.V.Must[I], R.Oracle[I]))
        R.Failures.push_back(formatString(
            "must-verdict %zu diverges: static %s vs dynamic %s", I,
            describeReport(R.V.Must[I]).c_str(),
            describeReport(R.Oracle[I]).c_str()));
  }
  for (const agent::JinnReport &May : R.V.May)
    R.Failures.push_back(formatString(
        "straight-line program classified a report as may: %s",
        describeReport(May).c_str()));
}

std::vector<SourceResult> runMicros(const std::vector<analysis::MachineModel>
                                        &Models) {
  std::vector<SourceResult> Out;
  for (const scenarios::MicroInfo &Info : scenarios::allMicrobenchmarks()) {
    SourceResult R;
    R.Kind = "micro";
    R.Source = Info.ClassName;
    LiftedProgram P = liftMicro(Info.Id);
    R.V = verifyCfg(P.Cfg, Models);
    R.Oracle = P.Oracle;
    checkAgainstOracle(R);
    if (Info.DetectableAtBoundary && R.V.Must.empty())
      R.Failures.push_back("buggy micro not flagged as must-bug");
    if (!Info.DetectableAtBoundary && !R.V.Must.empty())
      R.Failures.push_back(formatString(
          "clean/undetectable micro flagged: %s",
          describeReport(R.V.Must.front()).c_str()));
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<SourceResult> runCorpus(const std::vector<analysis::MachineModel>
                                        &Models) {
  std::vector<SourceResult> Out;
  fuzz::Generator Gen(0x76657269667921ULL); // fixed seed: "verify!"

  for (const analysis::MachineModel &Model : Models) {
    SourceResult R;
    R.Kind = "corpus";
    R.Source = "clean:" + Model.Name;
    LiftedProgram P =
        liftJniSequence(Gen.cleanJniSequence(Model.Name, Out.size()));
    R.V = verifyCfg(P.Cfg, Models);
    R.Oracle = P.Oracle;
    checkAgainstOracle(R);
    if (!R.Oracle.empty())
      R.Failures.push_back("clean path produced dynamic reports");
    Out.push_back(std::move(R));
  }

  for (const fuzz::FuzzOp &Op : fuzz::jniOps()) {
    if (Op.Kind != fuzz::OpKind::Bug)
      continue;
    SourceResult R;
    R.Kind = "corpus";
    R.Source = std::string("bug:") + Op.Name;
    LiftedProgram P =
        liftJniSequence(Gen.bugJniSequence(Op.Name, Out.size()));
    R.V = verifyCfg(P.Cfg, Models);
    R.Oracle = P.Oracle;
    checkAgainstOracle(R);
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<SourceResult> runExamples(const std::vector<
                                      analysis::MachineModel> &Models) {
  std::vector<SourceResult> Out;
  for (const VerifyExample &E : verifyExamples()) {
    SourceResult R;
    R.Kind = "example";
    R.Source = E.Cfg.Name;
    R.V = verifyCfg(E.Cfg, Models);

    auto FromMachine = [&E](const std::vector<agent::JinnReport> &Reports) {
      for (const agent::JinnReport &Rep : Reports)
        if (Rep.Machine == E.Machine)
          return true;
      return false;
    };
    if (E.ExpectMust != FromMachine(R.V.Must))
      R.Failures.push_back(formatString(
          "expected must=%d from machine \"%s\", got %zu must report(s)",
          E.ExpectMust ? 1 : 0, E.Machine.c_str(), R.V.Must.size()));
    if (E.ExpectMay != FromMachine(R.V.May))
      R.Failures.push_back(formatString(
          "expected may=%d from machine \"%s\", got %zu may report(s)",
          E.ExpectMay ? 1 : 0, E.Machine.c_str(), R.V.May.size()));
    if (!E.ExpectMust && !E.ExpectMay && R.V.flagged())
      R.Failures.push_back("clean example produced a verdict");
    if (E.ExpectWidening && R.V.Stats.Widenings == 0)
      R.Failures.push_back("example expected interval widening; none ran");
    Out.push_back(std::move(R));
  }
  return Out;
}

SourceResult runTraceFile(const std::string &Path,
                          const std::vector<analysis::MachineModel> &Models) {
  SourceResult R;
  R.Kind = "trace";
  R.Source = Path;
  trace::Trace T;
  std::string Err;
  if (!trace::readTraceFile(T, Path, &Err)) {
    R.Failures.push_back("cannot read trace file: " + Err);
    return R;
  }
  // A foreign trace cannot be replayed (its entity words are another
  // process's addresses), so it lifts without witnessed hints and the
  // verdict covers the spec-decidable counter checks only.
  scenarios::WorldConfig Config;
  scenarios::ScenarioWorld World(Config);
  ClientCfg Cfg = liftTrace(T, World.Vm, Path, /*PinWitnessed=*/false, &Err);
  if (!Err.empty()) {
    R.Failures.push_back("cannot lift trace file: " + Err);
    return R;
  }
  R.V = verifyCfg(Cfg, Models);
  return R;
}

std::string jsonEscaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

void printReportListJson(const char *Key,
                         const std::vector<agent::JinnReport> &Reports,
                         const char *Trailer) {
  std::printf("      \"%s\": [", Key);
  for (size_t I = 0; I < Reports.size(); ++I)
    std::printf(
        "%s\n        {\"machine\": \"%s\", \"function\": \"%s\", "
        "\"message\": \"%s\", \"end_of_run\": %s}",
        I ? "," : "", jsonEscaped(Reports[I].Machine).c_str(),
        jsonEscaped(Reports[I].Function).c_str(),
        jsonEscaped(Reports[I].Message).c_str(),
        Reports[I].EndOfRun ? "true" : "false");
  std::printf("%s]%s\n", Reports.empty() ? "" : "\n      ", Trailer);
}

void printJson(const std::vector<SourceResult> &Results, bool Pass) {
  std::printf("{\n  \"pass\": %s,\n  \"sources\": [\n",
              Pass ? "true" : "false");
  for (size_t I = 0; I < Results.size(); ++I) {
    const SourceResult &R = Results[I];
    std::printf("    {\n      \"kind\": \"%s\",\n      \"source\": \"%s\",\n"
                "      \"pass\": %s,\n",
                R.Kind.c_str(), jsonEscaped(R.Source).c_str(),
                R.pass() ? "true" : "false");
    printReportListJson("must", R.V.Must, ",");
    printReportListJson("may", R.V.May, ",");
    printReportListJson("oracle", R.Oracle, ",");
    std::printf("      \"failures\": [");
    for (size_t F = 0; F < R.Failures.size(); ++F)
      std::printf("%s\"%s\"", F ? ", " : "",
                  jsonEscaped(R.Failures[F]).c_str());
    std::printf("],\n");
    std::printf("      \"stats\": {\"configs\": %llu, \"iterations\": %llu, "
                "\"widenings\": %llu, \"abstract_reports\": %llu, "
                "\"abstract_confirmed\": %llu}\n    }%s\n",
                static_cast<unsigned long long>(R.V.Stats.ConfigsExplored),
                static_cast<unsigned long long>(R.V.Stats.BlockIterations),
                static_cast<unsigned long long>(R.V.Stats.Widenings),
                static_cast<unsigned long long>(R.V.Stats.AbstractReports),
                static_cast<unsigned long long>(R.V.Stats.AbstractConfirmed),
                I + 1 < Results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

void printText(const std::vector<SourceResult> &Results, bool Pass) {
  size_t MustTotal = 0, MayTotal = 0;
  uint64_t Abstract = 0, Confirmed = 0;
  for (const SourceResult &R : Results) {
    const char *Tag = R.pass() ? "ok  " : "FAIL";
    std::printf("%s %-8s %-28s must=%zu may=%zu oracle=%zu\n", Tag,
                R.Kind.c_str(), R.Source.c_str(), R.V.Must.size(),
                R.V.May.size(), R.Oracle.size());
    for (const std::string &F : R.Failures)
      std::printf("       - %s\n", F.c_str());
    MustTotal += R.V.Must.size();
    MayTotal += R.V.May.size();
    Abstract += R.V.Stats.AbstractReports;
    Confirmed += R.V.Stats.AbstractConfirmed;
  }
  std::printf("\njinn-verify: %s (%zu source(s), %zu must, %zu may; "
              "%llu abstract counter-guard report(s), %llu confirmed "
              "dynamically)\n",
              Pass ? "PASS" : "FAIL", Results.size(), MustTotal, MayTotal,
              static_cast<unsigned long long>(Abstract),
              static_cast<unsigned long long>(Confirmed));
}

int usage() {
  std::fprintf(
      stderr,
      "usage: jinn-verify [--micros] [--corpus] [--examples]\n"
      "                   [--trace <file>] [--json]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--micros") == 0)
      Opts.Micros = true;
    else if (std::strcmp(Argv[I], "--corpus") == 0)
      Opts.Corpus = true;
    else if (std::strcmp(Argv[I], "--examples") == 0)
      Opts.Examples = true;
    else if (std::strcmp(Argv[I], "--json") == 0)
      Opts.Json = true;
    else if (std::strcmp(Argv[I], "--trace") == 0 && I + 1 < Argc)
      Opts.TracePath = Argv[++I];
    else
      return usage();
  }
  if (!Opts.Micros && !Opts.Corpus && !Opts.Examples &&
      Opts.TracePath.empty()) {
    Opts.Micros = true;
    Opts.Examples = true;
  }

  std::vector<analysis::MachineModel> Models = verifierModels();
  std::vector<SourceResult> Results;
  if (Opts.Micros)
    for (SourceResult &R : runMicros(Models))
      Results.push_back(std::move(R));
  if (Opts.Corpus)
    for (SourceResult &R : runCorpus(Models))
      Results.push_back(std::move(R));
  if (Opts.Examples)
    for (SourceResult &R : runExamples(Models))
      Results.push_back(std::move(R));
  if (!Opts.TracePath.empty())
    Results.push_back(runTraceFile(Opts.TracePath, Models));

  bool Pass = true;
  for (const SourceResult &R : Results)
    Pass &= R.pass();

  if (Opts.Json)
    printJson(Results, Pass);
  else
    printText(Results, Pass);
  return Pass ? 0 : 1;
}
