//===- tools/jinn_fuzz_main.cpp - Spec-guided differential fuzzer CLI ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the jinn-fuzz campaign:
///
///   jinn-fuzz                               smoke campaign, fixed seed
///   jinn-fuzz --seed 7 --iters 50           long run, 50 extra rounds
///   jinn-fuzz --machines "Monitor,Nullness" restrict JNI focus machines
///   jinn-fuzz --coverage-json cov.json      emit the gate's input document
///   jinn-fuzz --no-xcheck / --no-replay     drop an oracle
///   jinn-fuzz --no-python                   JNI domain only
///   jinn-fuzz --list-machines               print machine names and exit
///
/// Exit status is nonzero when the op table is inconsistent with the spec
/// models or any sequence produced an oracle disagreement; each finding is
/// printed as its minimized .jfz reproducer, ready to drop into
/// fuzz/corpus/.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Fuzzer.h"
#include "jinn/JinnAgent.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::fuzz;

namespace {

void printUsage() {
  std::printf(
      "usage: jinn-fuzz [options]\n"
      "  Generates spec-guided FFI call sequences (clean paths and one-\n"
      "  transition-to-error bug paths), executes them against the real\n"
      "  VM/JNI layer under three agreeing oracles (inline Jinn checking,\n"
      "  -Xcheck:jni, trace record+replay), shrinks any disagreement, and\n"
      "  reports spec transition coverage.\n"
      "\n"
      "  --seed <n>           campaign seed (default 1)\n"
      "  --iters <n>          extra rounds beyond the smoke budget\n"
      "  --machines <a,b>     restrict JNI focus machines\n"
      "  --coverage-json <p>  write the JNI coverage JSON for fuzz_gate.py\n"
      "  --py-coverage-json <p>  same for the Python domain\n"
      "  --no-xcheck          skip the -Xcheck:jni oracle\n"
      "  --no-replay          skip the record+replay oracle\n"
      "  --no-python          skip the Python/C domain\n"
      "  --list-machines      print the JNI machine names and exit\n");
}

std::vector<std::string> splitList(const std::string &Arg) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Arg.size()) {
    size_t Comma = Arg.find(',', Start);
    if (Comma == std::string::npos)
      Comma = Arg.size();
    if (Comma > Start)
      Out.push_back(Arg.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return Out.good();
}

} // namespace

int main(int Argc, char **Argv) {
  CampaignOptions Opts;
  std::string CoverageJson, PyCoverageJson;
  bool ListMachines = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto nextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "jinn-fuzz: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--seed")
      Opts.Seed = std::strtoull(nextValue("--seed"), nullptr, 0);
    else if (Arg == "--iters")
      Opts.Iterations = std::strtoull(nextValue("--iters"), nullptr, 0);
    else if (Arg == "--machines")
      Opts.Machines = splitList(nextValue("--machines"));
    else if (Arg == "--coverage-json")
      CoverageJson = nextValue("--coverage-json");
    else if (Arg == "--py-coverage-json")
      PyCoverageJson = nextValue("--py-coverage-json");
    else if (Arg == "--no-xcheck")
      Opts.RunXcheck = false;
    else if (Arg == "--no-replay")
      Opts.RunReplay = false;
    else if (Arg == "--no-python")
      Opts.RunPython = false;
    else if (Arg == "--list-machines")
      ListMachines = true;
    else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "jinn-fuzz: unknown option %s\n", Arg.c_str());
      printUsage();
      return 2;
    }
  }

  std::string MachineError = agent::checkMachineNames(Opts.Machines);
  if (!MachineError.empty()) {
    std::fprintf(stderr, "jinn-fuzz: %s\n", MachineError.c_str());
    return 2;
  }

  if (ListMachines) {
    for (const analysis::MachineModel &Model : jniMachineModels())
      std::printf("%s\n", Model.Name.c_str());
    return 0;
  }

  CampaignResult Result = runCampaign(Opts);

  if (!Result.TableIssues.empty()) {
    std::fprintf(stderr,
                 "jinn-fuzz: op table inconsistent with the spec models:\n");
    for (const std::string &Issue : Result.TableIssues)
      std::fprintf(stderr, "  %s\n", Issue.c_str());
    return 1;
  }

  std::printf("jinn-fuzz: seed %llu, %zu sequence(s), %zu finding(s)\n",
              static_cast<unsigned long long>(Opts.Seed), Result.SequencesRun,
              Result.Findings.size());
  std::printf("\nJNI transition coverage:\n%s",
              Result.JniCov.toTable().c_str());
  if (Opts.RunPython)
    std::printf("\nPython transition coverage:\n%s",
                Result.PyCov.toTable().c_str());

  if (!CoverageJson.empty() &&
      !writeFile(CoverageJson, Result.JniCov.toJson(Opts.Seed, "jni"))) {
    std::fprintf(stderr, "jinn-fuzz: cannot write %s\n", CoverageJson.c_str());
    return 2;
  }
  if (!PyCoverageJson.empty() && Opts.RunPython &&
      !writeFile(PyCoverageJson, Result.PyCov.toJson(Opts.Seed, "py"))) {
    std::fprintf(stderr, "jinn-fuzz: cannot write %s\n",
                 PyCoverageJson.c_str());
    return 2;
  }

  for (size_t I = 0; I < Result.Findings.size(); ++I) {
    const CampaignFinding &F = Result.Findings[I];
    std::printf("\nfinding %zu (%zu -> %zu op(s), %zu minimizer test(s)):\n",
                I + 1, F.Original.OpNames.size(), F.Minimized.OpNames.size(),
                F.MinimizerTests);
    for (const std::string &Failure : F.Failures)
      std::printf("  %s\n", Failure.c_str());
    std::printf("minimized reproducer (.jfz):\n%s",
                serializeSequence(F.Minimized).c_str());
  }

  return Result.Pass ? 0 : 1;
}
