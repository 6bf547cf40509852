//===- tools/jinn_mutate_main.cpp - Mutation-testing campaign driver -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jinn-mutate: runs the mutation-testing campaign of DESIGN.md §16.
///
///   jinn-mutate --list [--json]        print the mutant registry
///   jinn-mutate --fingerprint          print the unmutated oracle
///                                      fingerprint (the "same behaviour"
///                                      reference: diff it across changes)
///   jinn-mutate --apply <id|name>      activate one mutant and print its
///                                      oracle fingerprint (for diffing)
///   jinn-mutate --run [--only a,b,..]  judge mutants: one worker process
///               [--json <path>]        per mutant, verdicts to stdout and
///               [--check-expectations] optionally to a JSON report
///
/// The campaign isolates each mutant in a child process (re-executing this
/// binary via /proc/self/exe --worker) so that a mutant which crashes the
/// substrate is scored killed-by-crash instead of taking the campaign
/// down. The parent computes the unmutated baseline fingerprint exactly
/// once and hands it to every worker through a temp file; a worker flips
/// its mutant on, recomputes the fingerprint, and reports the diff over a
/// line protocol:
///
///   MUTATE-PHASE mutant-start          (mutant active from here on; a
///                                       crash after this marker kills)
///   MUTATE-DETAIL <oracle>: <line>     one per disagreeing oracle
///   MUTATE-VERDICT id=.. name=.. status=killed|survived oracles=a,b
///
/// --check-expectations makes --run exit nonzero when any verdict differs
/// from the registry's annotation (a surviving mutant that is neither
/// equivalent nor a filed blind spot, or a stale annotation on a mutant
/// the oracles now kill). tools/mutate_gate.py layers the kill-rate floor
/// on top of the JSON report.
///
//===----------------------------------------------------------------------===//

#include "mutate/Harness.h"
#include "mutate/Mutation.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace jinn;
using namespace jinn::mutate;

namespace {

struct CampaignRow {
  const MutantInfo *Info = nullptr;
  std::string Status; ///< "killed" | "survived" | "error" | "build-failed"
  std::vector<std::string> Oracles;
  std::vector<std::string> Details;
};

std::string jsonEscaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

void printList(bool Json) {
  const std::vector<MutantInfo> &Mutants = allMutants();
  if (!Json) {
    std::printf("%-3s %-38s %-22s %-6s %s\n", "id", "name", "class", "target",
                "expectation");
    for (const MutantInfo &Info : Mutants)
      std::printf("%-3d %-38s %-22s %-6s %s\n", Info.Id, Info.Name,
                  Info.OpClass, Info.Target, expectName(Info.Expected));
    std::printf("%zu mutant(s)\n", Mutants.size());
    return;
  }
  std::printf("{\n  \"schema\": \"jinn-mutate-corpus-v1\",\n"
              "  \"mutants\": [\n");
  for (size_t I = 0; I < Mutants.size(); ++I) {
    const MutantInfo &Info = Mutants[I];
    std::printf(
        "    {\"id\": %d, \"name\": \"%s\", \"op_class\": \"%s\",\n"
        "     \"target\": \"%s\", \"site\": \"%s\",\n"
        "     \"expect\": \"%s\",\n"
        "     \"original\": \"%s\",\n"
        "     \"mutated\": \"%s\",\n"
        "     \"rationale\": \"%s\"}%s\n",
        Info.Id, jsonEscaped(Info.Name).c_str(),
        jsonEscaped(Info.OpClass).c_str(), jsonEscaped(Info.Target).c_str(),
        jsonEscaped(Info.Site).c_str(), expectName(Info.Expected),
        jsonEscaped(Info.Original).c_str(), jsonEscaped(Info.Mutated).c_str(),
        jsonEscaped(Info.Rationale).c_str(),
        I + 1 < Mutants.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int printFingerprint() {
  for (const std::string &Line : computeFingerprint())
    std::printf("%s\n", Line.c_str());
  return 0;
}

int runApply(const std::string &Selector) {
  const MutantInfo *Info = findMutant(Selector);
  if (!Info) {
    std::fprintf(stderr, "jinn-mutate: unknown mutant \"%s\"\n",
                 Selector.c_str());
    return 2;
  }
  std::fprintf(stderr, "# mutant %d (%s) active: %s\n", Info->Id, Info->Name,
               Info->Mutated);
  setActiveMutant(Info->Id);
  return printFingerprint();
}

/// Worker side: judge exactly one mutant against the baseline fingerprint
/// the parent computed. All output is line-buffered protocol so the parent
/// still sees the phase marker if the mutated run crashes the process.
int runWorker(int Id, const std::string &BaselinePath) {
  const MutantInfo *Info = findMutant(Id);
  if (!Info) {
    std::fprintf(stderr, "jinn-mutate: unknown worker mutant %d\n", Id);
    return 2;
  }
  std::vector<std::string> Base;
  std::ifstream In(BaselinePath);
  if (!In) {
    std::fprintf(stderr, "jinn-mutate: cannot read baseline %s\n",
                 BaselinePath.c_str());
    return 2;
  }
  for (std::string Line; std::getline(In, Line);)
    Base.push_back(Line);

  std::printf("MUTATE-PHASE mutant-start\n");
  std::fflush(stdout);
  setActiveMutant(Id);
  std::vector<std::string> Mutated = computeFingerprint();
  setActiveMutant(0);

  std::vector<OracleKill> Kills = diffFingerprints(Base, Mutated);
  std::string Oracles;
  for (const OracleKill &K : Kills) {
    std::printf("MUTATE-DETAIL %s: %s\n", K.Oracle.c_str(), K.Detail.c_str());
    if (!Oracles.empty())
      Oracles += ',';
    Oracles += K.Oracle;
  }
  std::printf("MUTATE-VERDICT id=%d name=%s status=%s oracles=%s\n", Info->Id,
              Info->Name, Kills.empty() ? "survived" : "killed",
              Oracles.c_str());
  std::fflush(stdout);
  return 0;
}

/// Parent side: spawn one worker for \p Info and parse its protocol lines.
CampaignRow judgeInWorker(const MutantInfo &Info,
                          const std::string &BaselinePath) {
  CampaignRow Row;
  Row.Info = &Info;

  // /proc/self/exe must be resolved here: inside popen's shell it would
  // name the shell binary, not this driver.
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0) {
    Row.Status = "error";
    Row.Details.push_back("cannot resolve /proc/self/exe");
    return Row;
  }
  Self[Len] = '\0';
  std::string Cmd = formatString("'%s' --worker %d --baseline '%s' 2>&1",
                                 Self, Info.Id, BaselinePath.c_str());
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    Row.Status = "error";
    Row.Details.push_back("popen failed");
    return Row;
  }

  bool SawStart = false, SawVerdict = false;
  std::vector<std::string> Tail; // last few non-protocol lines, for errors
  char Buf[4096];
  while (std::fgets(Buf, sizeof(Buf), Pipe)) {
    std::string Line(Buf);
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    if (Line.rfind("MUTATE-PHASE ", 0) == 0) {
      SawStart = true;
    } else if (Line.rfind("MUTATE-DETAIL ", 0) == 0) {
      Row.Details.push_back(Line.substr(std::strlen("MUTATE-DETAIL ")));
    } else if (Line.rfind("MUTATE-VERDICT ", 0) == 0) {
      SawVerdict = true;
      Row.Status =
          Line.find("status=killed") != std::string::npos ? "killed"
                                                          : "survived";
      size_t At = Line.find("oracles=");
      if (At != std::string::npos) {
        std::string List = Line.substr(At + std::strlen("oracles="));
        size_t Pos = 0;
        while (Pos < List.size()) {
          size_t Comma = List.find(',', Pos);
          if (Comma == std::string::npos)
            Comma = List.size();
          if (Comma > Pos)
            Row.Oracles.push_back(List.substr(Pos, Comma - Pos));
          Pos = Comma + 1;
        }
      }
    } else if (!Line.empty()) {
      Tail.push_back(Line);
      if (Tail.size() > 5)
        Tail.erase(Tail.begin());
    }
  }
  int Rc = pclose(Pipe);

  if (!SawVerdict) {
    if (SawStart) {
      // The mutated fingerprint run took the process down — that is a
      // kill (the oracle battery cannot even complete under the mutant).
      Row.Status = "killed";
      Row.Oracles.push_back("crash");
      Row.Details.push_back(formatString(
          "worker died (status %d) after activating the mutant%s%s", Rc,
          Tail.empty() ? "" : ": ", Tail.empty() ? "" : Tail.back().c_str()));
    } else {
      Row.Status = "error";
      Row.Details.push_back(formatString(
          "worker produced no verdict (status %d)%s%s", Rc,
          Tail.empty() ? "" : ": ", Tail.empty() ? "" : Tail.back().c_str()));
    }
  }
  return Row;
}

void writeJsonReport(const std::string &Path,
                     const std::vector<CampaignRow> &Rows) {
  std::ofstream Out(Path);
  int Killed = 0, Survived = 0, Errors = 0;
  int NonEquivalent = 0, NonEquivalentKilled = 0;
  for (const CampaignRow &Row : Rows) {
    if (Row.Status == "killed")
      ++Killed;
    else if (Row.Status == "survived")
      ++Survived;
    else
      ++Errors;
    if (Row.Info->Expected != Expect::SurvivesEquivalent) {
      ++NonEquivalent;
      if (Row.Status == "killed")
        ++NonEquivalentKilled;
    }
  }
  double KillRate = NonEquivalent
                        ? static_cast<double>(NonEquivalentKilled) /
                              static_cast<double>(NonEquivalent)
                        : 1.0;
  Out << formatString(
      "{\n  \"schema\": \"jinn-mutate-v1\",\n  \"total\": %zu,\n"
      "  \"killed\": %d,\n  \"survived\": %d,\n  \"errors\": %d,\n"
      "  \"non_equivalent\": %d,\n"
      "  \"kill_rate_non_equivalent\": %.4f,\n  \"mutants\": [\n",
      Rows.size(), Killed, Survived, Errors, NonEquivalent, KillRate);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const CampaignRow &Row = Rows[I];
    const MutantInfo &Info = *Row.Info;
    Out << formatString(
        "    {\"id\": %d, \"name\": \"%s\", \"op_class\": \"%s\",\n"
        "     \"target\": \"%s\", \"site\": \"%s\",\n"
        "     \"expect\": \"%s\", \"status\": \"%s\",\n     \"killed_by\": [",
        Info.Id, jsonEscaped(Info.Name).c_str(),
        jsonEscaped(Info.OpClass).c_str(), jsonEscaped(Info.Target).c_str(),
        jsonEscaped(Info.Site).c_str(), expectName(Info.Expected),
        Row.Status.c_str());
    for (size_t O = 0; O < Row.Oracles.size(); ++O)
      Out << formatString("%s\"%s\"", O ? ", " : "",
                          jsonEscaped(Row.Oracles[O]).c_str());
    Out << "],\n     \"details\": [";
    for (size_t D = 0; D < Row.Details.size(); ++D)
      Out << formatString("%s\"%s\"", D ? ", " : "",
                          jsonEscaped(Row.Details[D]).c_str());
    Out << formatString("]}%s\n", I + 1 < Rows.size() ? "," : "");
  }
  Out << "  ]\n}\n";
}

int runCampaign(const std::string &Only, const std::string &JsonPath,
                bool CheckExpectations) {
  // Select the corpus subset.
  std::vector<const MutantInfo *> Selected;
  if (Only.empty()) {
    for (const MutantInfo &Info : allMutants())
      Selected.push_back(&Info);
  } else {
    size_t Pos = 0;
    while (Pos < Only.size()) {
      size_t Comma = Only.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = Only.size();
      std::string Token = Only.substr(Pos, Comma - Pos);
      Pos = Comma + 1;
      if (Token.empty())
        continue;
      const MutantInfo *Info = findMutant(Token);
      if (!Info) {
        std::fprintf(stderr, "jinn-mutate: unknown mutant \"%s\" in --only\n",
                     Token.c_str());
        return 2;
      }
      Selected.push_back(Info);
    }
  }

  // One baseline for the whole campaign: the oracles are deterministic,
  // so every worker diffs against the same unmutated fingerprint.
  std::fprintf(stderr, "jinn-mutate: computing baseline fingerprint...\n");
  std::vector<std::string> Base = computeFingerprint();

  std::string BaselinePath =
      formatString("/tmp/jinn-mutate-baseline.%ld", static_cast<long>(getpid()));
  {
    std::ofstream Out(BaselinePath);
    if (!Out) {
      std::fprintf(stderr, "jinn-mutate: cannot write %s\n",
                   BaselinePath.c_str());
      return 2;
    }
    for (const std::string &Line : Base)
      Out << Line << '\n';
  }
  std::fprintf(stderr, "jinn-mutate: baseline has %zu oracle line(s)\n",
               Base.size());

  std::vector<CampaignRow> Rows;
  for (const MutantInfo *Info : Selected) {
    CampaignRow Row = judgeInWorker(*Info, BaselinePath);
    std::string Oracles;
    for (const std::string &O : Row.Oracles) {
      if (!Oracles.empty())
        Oracles += ',';
      Oracles += O;
    }
    std::printf("%-8s %2d %-38s expect=%-18s %s%s\n", Row.Status.c_str(),
                Info->Id, Info->Name, expectName(Info->Expected),
                Oracles.empty() ? "" : "killed-by=", Oracles.c_str());
    for (const std::string &D : Row.Details)
      std::printf("         - %s\n", D.c_str());
    Rows.push_back(std::move(Row));
  }
  std::remove(BaselinePath.c_str());

  int Killed = 0, Survived = 0, Errors = 0, Mismatches = 0;
  for (const CampaignRow &Row : Rows) {
    if (Row.Status == "killed")
      ++Killed;
    else if (Row.Status == "survived")
      ++Survived;
    else
      ++Errors;
    const char *Expected =
        Row.Info->Expected == Expect::Killed ? "killed" : "survived";
    if (Row.Status != "error" && Row.Status != Expected) {
      ++Mismatches;
      std::printf("MISMATCH mutant %d (%s): annotated %s but %s\n",
                  Row.Info->Id, Row.Info->Name, expectName(Row.Info->Expected),
                  Row.Status.c_str());
    }
  }
  std::printf("jinn-mutate: %d killed, %d survived, %d error(s) of %zu\n",
              Killed, Survived, Errors, Rows.size());

  if (!JsonPath.empty())
    writeJsonReport(JsonPath, Rows);

  if (Errors)
    return 1;
  if (CheckExpectations && Mismatches)
    return 1;
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: jinn-mutate --list [--json]\n"
               "       jinn-mutate --fingerprint\n"
               "       jinn-mutate --apply <id|name>\n"
               "       jinn-mutate --run [--only id,id,...] [--json <path>]\n"
               "                   [--check-expectations]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  bool List = false, Run = false, Json = false, CheckExpectations = false,
       Fingerprint = false;
  std::string Apply, Only, JsonPath, BaselinePath;
  int WorkerId = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--list") == 0)
      List = true;
    else if (std::strcmp(Argv[I], "--run") == 0)
      Run = true;
    else if (std::strcmp(Argv[I], "--fingerprint") == 0)
      Fingerprint = true;
    else if (std::strcmp(Argv[I], "--json") == 0 && Run && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(Argv[I], "--apply") == 0 && I + 1 < Argc)
      Apply = Argv[++I];
    else if (std::strcmp(Argv[I], "--only") == 0 && I + 1 < Argc)
      Only = Argv[++I];
    else if (std::strcmp(Argv[I], "--check-expectations") == 0)
      CheckExpectations = true;
    else if (std::strcmp(Argv[I], "--worker") == 0 && I + 1 < Argc)
      WorkerId = std::atoi(Argv[++I]);
    else if (std::strcmp(Argv[I], "--baseline") == 0 && I + 1 < Argc)
      BaselinePath = Argv[++I];
    else
      return usage();
  }

  if (WorkerId)
    return runWorker(WorkerId, BaselinePath);
  if (List) {
    printList(Json);
    return 0;
  }
  if (Fingerprint)
    return printFingerprint();
  if (!Apply.empty())
    return runApply(Apply);
  if (Run)
    return runCampaign(Only, JsonPath, CheckExpectations);
  return usage();
}
