//===- mutate/Harness.cpp - Kill-rate harness ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mutate/Harness.h"

#include "analysis/SpecLint.h"
#include "analysis/verify/Interp.h"
#include "analysis/verify/Lift.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Ops.h"
#include "jinn/JinnAgent.h"
#include "jinn/Report.h"
#include "pyc/PyRuntime.h"
#include "pyjinn/PyChecker.h"
#include "scenarios/PythonScenarios.h"
#include "scenarios/Scenarios.h"
#include "support/Format.h"

#include <algorithm>
#include <thread>
#include <map>
#include <set>

using namespace jinn;
using namespace jinn::mutate;
using namespace jinn::scenarios;

namespace {

/// Campaign seed: fixed so the fuzz section of the fingerprint is
/// deterministic and mutant-vs-baseline diffs are attributable.
constexpr uint64_t FuzzSeed = 0x6d757461; // "muta"

std::string reportLine(const agent::JinnReport &R) {
  return R.Machine + "|" + R.Function + "|" + R.Message;
}

std::string clip(const std::string &S, size_t Max = 160) {
  return S.size() <= Max ? S : S.substr(0, Max) + "...";
}

std::vector<std::string> sortedReports(const agent::JinnReporter &Rep) {
  std::vector<std::string> Lines;
  for (const agent::JinnReport &R : Rep.reports())
    Lines.push_back(reportLine(R));
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

//===----------------------------------------------------------------------===
// Section 1: Table-1 micro matrix under three worlds
//===----------------------------------------------------------------------===

void microLines(std::vector<std::string> &Out) {
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    {
      WorldConfig Cfg;
      Cfg.Checker = CheckerKind::Jinn;
      ScenarioWorld W(Cfg);
      runMicrobenchmark(Info.Id, W);
      W.shutdown();
      Out.push_back(formatString("micro:%s:jinn=%s", Info.ClassName,
                                 outcomeName(classify(W))));
      for (const std::string &R : sortedReports(W.Jinn->reporter()))
        Out.push_back(formatString("micro:%s:jinn-report=%s", Info.ClassName,
                                   R.c_str()));
    }
    {
      WorldConfig Cfg; // bare production VM
      Out.push_back(formatString("micro:%s:bare=%s", Info.ClassName,
                                 outcomeName(runMicroToOutcome(Info.Id, Cfg))));
    }
    {
      WorldConfig Cfg;
      Cfg.Checker = CheckerKind::Xcheck;
      Out.push_back(
          formatString("micro:%s:xcheck=%s", Info.ClassName,
                       outcomeName(runMicroToOutcome(Info.Id, Cfg))));
    }
  }
}

//===----------------------------------------------------------------------===
// Section 2: direct API-contract probes
//===----------------------------------------------------------------------===

void probeLines(std::vector<std::string> &Out) {
  // Bare-world return-code contracts: EnsureLocalCapacity must reject a
  // negative request, and a MonitorExit on a monitor this thread does not
  // own must fail with a pending IllegalMonitorStateException while the
  // genuine matching exit still succeeds.
  {
    ScenarioWorld W((WorldConfig()));
    int NegRc = 999, EnterA = 999, ForeignB = 999, MatchingA = 999;
    bool Pending = false;
    W.runAsNative("MutateProbeContracts", [&](JNIEnv *Env) {
      NegRc = Env->functions->EnsureLocalCapacity(Env, -1);
      jclass Object = Env->functions->FindClass(Env, "java/lang/Object");
      jobject A = Env->functions->AllocObject(Env, Object);
      jobject B = Env->functions->AllocObject(Env, Object);
      EnterA = Env->functions->MonitorEnter(Env, A);
      ForeignB = Env->functions->MonitorExit(Env, B);
      Pending = Env->functions->ExceptionCheck(Env) == JNI_TRUE;
      Env->functions->ExceptionClear(Env);
      MatchingA = Env->functions->MonitorExit(Env, A);
    });
    Out.push_back(formatString("probe:ensure-negative=%d", NegRc));
    Out.push_back(formatString(
        "probe:monitor-exit-foreign=enter:%d,foreign:%d,pending:%d,"
        "matching:%d",
        EnterA, ForeignB, Pending ? 1 : 0, MatchingA));
  }

  // EnsureLocalCapacity must actually grow the frame: 21 locals under an
  // ensured capacity of 24 must neither fail nor overflow the substrate.
  {
    ScenarioWorld W((WorldConfig()));
    int Rc = 999, Live = 0;
    W.runAsNative("MutateProbeEnsureGrows", [&](JNIEnv *Env) {
      Rc = Env->functions->EnsureLocalCapacity(Env, 24);
      jclass Object = Env->functions->FindClass(Env, "java/lang/Object");
      for (int I = 0; I < 20; ++I)
        Live += Env->functions->AllocObject(Env, Object) != nullptr;
    });
    W.shutdown();
    Out.push_back(formatString("probe:ensure-grows=rc:%d,live:%d,outcome:%s",
                               Rc, Live, outcomeName(classify(W))));
  }

  // Attach-frame capacity boundary: a thread attached through the
  // invocation API gets one implicit frame of exactly
  // VmOptions::NativeFrameCapacity (16) locals, so FindClass plus 16
  // allocations is one over and must trip the substrate overflow flag
  // (classified Leak). Every native method invocation pushes its own
  // fresh frame, so only this embedding path observes the attach frame's
  // exact limit — the gap that let a +1-slack substrate mutant survive
  // the original battery.
  {
    ScenarioWorld W((WorldConfig()));
    int AttachRc = 999, Live = 0;
    std::thread Attached([&] {
      JavaVM *Jvm = W.Rt.javaVm();
      JNIEnv *Env = nullptr;
      AttachRc = Jvm->functions->AttachCurrentThread(
          Jvm, &Env, const_cast<char *>("mutate-probe"));
      if (AttachRc != JNI_OK || !Env)
        return;
      jclass Object = Env->functions->FindClass(Env, "java/lang/Object");
      for (int I = 0; I < 16; ++I)
        Live += Env->functions->AllocObject(Env, Object) != nullptr;
      Jvm->functions->DetachCurrentThread(Jvm);
    });
    Attached.join();
    W.shutdown();
    Out.push_back(formatString(
        "probe:frame-boundary=attach:%d,live:%d,outcome:%s", AttachRc, Live,
        outcomeName(classify(W))));
  }

  // Jinn-world probes: run Body as a native method under the full machine
  // set and record every report.
  auto jinnProbe = [&Out](const char *Name, auto Body) {
    WorldConfig Cfg;
    Cfg.Checker = CheckerKind::Jinn;
    ScenarioWorld W(Cfg);
    W.runAsNative("MutateProbe", Body);
    W.shutdown();
    std::vector<std::string> Reports = sortedReports(W.Jinn->reporter());
    std::string Joined;
    for (const std::string &R : Reports)
      Joined += (Joined.empty() ? "" : ";") + R;
    Out.push_back(formatString("probe:%s=reports:%zu[%s]", Name,
                               Reports.size(), Joined.c_str()));
  };

  // False-positive contract: a held monitor plus one rejected foreign exit
  // must stay report-free — the shadow tally must only pop for exits the
  // VM accepted. (The spec-monitorbalance-exit-gate-dropped blind spot:
  // before this probe no oracle sequence exercised a failing MonitorExit
  // at depth > 0.)
  jinnProbe("jinn-foreign-exit", [](JNIEnv *Env) {
    jclass Object = Env->functions->FindClass(Env, "java/lang/Object");
    jobject A = Env->functions->AllocObject(Env, Object);
    jobject B = Env->functions->AllocObject(Env, Object);
    Env->functions->MonitorEnter(Env, A);
    Env->functions->MonitorExit(Env, B); // rejected: B is not owned
    Env->functions->ExceptionClear(Env);
    Env->functions->MonitorExit(Env, A); // the legitimate matching exit
  });

  // A deleted global whose slot the VM reissued under a new generation is
  // still dangling: the use check must compare the whole handle word.
  // (Before this probe every dangling global in the battery was used while
  // its slot stood empty.)
  jinnProbe("jinn-global-reissued", [](JNIEnv *Env) {
    const JNINativeInterface_ *Fns = Env->functions;
    jclass Object = Fns->FindClass(Env, "java/lang/Object");
    jobject Obj = Fns->AllocObject(Env, Object);
    jobject Old = Fns->NewGlobalRef(Env, Obj);
    Fns->DeleteGlobalRef(Env, Old);
    jobject Reissued = Fns->NewGlobalRef(Env, Obj); // same slot, next gen
    Fns->GetObjectClass(Env, Old);
    Fns->ExceptionClear(Env);
    Fns->DeleteGlobalRef(Env, Reissued);
  });

  // A critical release must drop the thread's held count: afterwards,
  // releasing a critical section through another live buffer of the same
  // array is a release of a resource this thread does not hold. (Before
  // this probe no sequence released a critical resource twice.)
  jinnProbe("jinn-critical-stale-held", [](JNIEnv *Env) {
    const JNINativeInterface_ *Fns = Env->functions;
    jintArray A = Fns->NewIntArray(Env, 4);
    jintArray B = Fns->NewIntArray(Env, 4);
    void *CritA = Fns->GetPrimitiveArrayCritical(Env, A, nullptr);
    Fns->ReleasePrimitiveArrayCritical(Env, A, CritA, 0);
    jint *ElemsA = Fns->GetIntArrayElements(Env, A, nullptr);
    void *CritB = Fns->GetPrimitiveArrayCritical(Env, B, nullptr);
    Fns->ReleasePrimitiveArrayCritical(Env, B, ElemsA, 0); // names A
    Fns->ReleasePrimitiveArrayCritical(Env, B, CritB, 0);
    Fns->ExceptionClear(Env);
    Fns->ReleaseIntArrayElements(Env, A, ElemsA, 0);
  });
}

//===----------------------------------------------------------------------===
// Section 3: Python/C domain (§7)
//===----------------------------------------------------------------------===

void pyUncheckedLines(std::vector<std::string> &Out, const char *Tag,
                      pyc::PyInterp &Interp) {
  for (const Incident &I : Interp.diags().incidents())
    Out.push_back(formatString("py:%s:bare=%s:%s:%s", Tag,
                               incidentKindName(I.Kind), I.Channel.c_str(),
                               clip(I.Message).c_str()));
}

void pyCheckedLines(std::vector<std::string> &Out, const char *Tag,
                    const pyjinn::PyChecker &Checker) {
  for (const pyjinn::PyViolation &V : Checker.violations())
    Out.push_back(formatString("py:%s:checked=%s:%s:%s", Tag,
                               V.Machine.c_str(), V.Function.c_str(),
                               clip(V.Message).c_str()));
}

void pyLines(std::vector<std::string> &Out) {
  // Unchecked: the interpreter's own incidents are the oracle (the
  // substrate mutants must not be maskable by the checker's suppression).
  {
    pyc::PyInterp I;
    runPyDangleBug(I);
    pyUncheckedLines(Out, "dangle", I);
  }
  {
    pyc::PyInterp I;
    pyc::PyObject *O = I.alloc(pyc::PyKind::Int);
    I.decref(O); // dies
    I.decref(O); // double free: the interpreter must simulate the crash
    pyUncheckedLines(Out, "double-decref", I);
  }
  // Checked: the §7 checker's violations are the oracle.
  struct {
    const char *Tag;
    void (*Run)(pyc::PyInterp &);
  } Checked[] = {
      {"gil", runPyGilBug},
      {"exception", runPyExceptionBug},
      {"clean", runPyCleanExtension},
  };
  for (const auto &S : Checked) {
    pyc::PyInterp I;
    pyjinn::PyChecker C(I);
    S.Run(I);
    pyCheckedLines(Out, S.Tag, C);
  }
  {
    pyc::PyInterp I;
    pyjinn::PyChecker C(I);
    runPyDangleBug(I);
    pyCheckedLines(Out, "dangle", C);
  }
  // The first handout of a fresh checker grows its handout table; once
  // that object's slot recycles behind the checker, the stale pointer
  // dangles. (Before this oracle every dangling use in the battery reached
  // a freed object or a slot recorded by a later handout.)
  {
    pyc::PyInterp I;
    pyjinn::PyChecker C(I);
    const pyc::PyApi *Api = pyc::activePyApi(I);
    pyc::PyObject *First = Api->PyInt_FromLong(&I, 1);
    I.decref(First);
    I.alloc(pyc::PyKind::Int); // reuses First's slot
    Api->PyInt_AsLong(&I, First);
    pyCheckedLines(Out, "recycled-first-handout", C);
  }
}

//===----------------------------------------------------------------------===
// Sections 4+5: spec-structural oracles (op table, speclint)
//===----------------------------------------------------------------------===

void structuralLines(std::vector<std::string> &Out) {
  std::vector<analysis::MachineModel> Models = fuzz::jniMachineModels();
  for (const std::string &Issue : fuzz::validateJniOps(Models))
    Out.push_back("table:" + clip(Issue));
  analysis::LintOptions Opts;
  Opts.IncludeInfo = false;
  analysis::LintReport Lint = analysis::lintMachines(Models, Opts);
  for (const analysis::Finding &F : Lint.Findings)
    Out.push_back(formatString("lint:%s:%s:%s:%s",
                               analysis::severityName(F.S), F.Check.c_str(),
                               F.Machine.c_str(), clip(F.Detail).c_str()));
}

//===----------------------------------------------------------------------===
// Section 6: static-vs-dynamic agreement (jinn-verify)
//===----------------------------------------------------------------------===

void verifyLines(std::vector<std::string> &Out) {
  namespace av = analysis::verify;
  static const MicroId Subjects[] = {
      MicroId::PendingException,    MicroId::EnvMismatch,
      MicroId::LocalOverflow,       MicroId::GlobalRefDangling,
      MicroId::PopWithoutPush,      MicroId::MonitorExitUnmatched,
      MicroId::MonitorExitUnmatchedFixed, MicroId::CriticalNested,
  };
  std::vector<analysis::MachineModel> Models = av::verifierModels();
  auto Describe = [](const std::vector<agent::JinnReport> &Reports) {
    std::string S;
    for (const agent::JinnReport &R : Reports)
      S += (S.empty() ? "" : ";") + reportLine(R);
    return S;
  };
  for (MicroId Id : Subjects) {
    const MicroInfo &Info = microInfo(Id);
    av::LiftedProgram P = av::liftMicro(Id);
    av::Verdict V = av::verifyCfg(P.Cfg, Models);
    Out.push_back(formatString(
        "verify:%s=must[%s];may[%s];oracle[%s]", Info.ClassName,
        Describe(V.Must).c_str(), Describe(V.May).c_str(),
        Describe(P.Oracle).c_str()));
  }
}

//===----------------------------------------------------------------------===
// Section 7: the PR 5 differential fuzz campaign
//===----------------------------------------------------------------------===

void fuzzLines(std::vector<std::string> &Out) {
  fuzz::CampaignOptions Opts;
  Opts.Seed = FuzzSeed;
  Opts.CleanPerFocus = 1;
  Opts.Iterations = 0;
  Opts.RunXcheck = true;
  Opts.RunReplay = true;
  Opts.RunPython = true;
  fuzz::CampaignResult R = fuzz::runCampaign(Opts);
  Out.push_back(formatString("fuzz:pass=%d", R.Pass ? 1 : 0));
  for (const std::string &Issue : R.TableIssues)
    Out.push_back("fuzz:table-issue:" + clip(Issue));
  for (const fuzz::CampaignFinding &F : R.Findings)
    for (const std::string &Failure : F.Failures)
      Out.push_back(formatString("fuzz:finding:%s:%s",
                                 fuzz::failureClass(Failure).c_str(),
                                 clip(Failure).c_str()));
}

/// Maps a fingerprint line to the oracle it belongs to.
std::string oracleOf(const std::string &Line) {
  if (Line.rfind("micro:", 0) == 0) {
    if (Line.find(":jinn") != std::string::npos)
      return "micros-jinn";
    if (Line.find(":bare=") != std::string::npos)
      return "micros-bare";
    return "micros-xcheck";
  }
  if (Line.rfind("probe:", 0) == 0)
    return "probes";
  if (Line.rfind("py:", 0) == 0)
    return "python";
  if (Line.rfind("table:", 0) == 0 || Line.rfind("fuzz:table-issue", 0) == 0)
    return "table";
  if (Line.rfind("lint:", 0) == 0)
    return "speclint";
  if (Line.rfind("verify:", 0) == 0)
    return "verify";
  if (Line.rfind("fuzz:", 0) == 0)
    return "fuzz";
  return "unknown";
}

} // namespace

std::vector<std::string> jinn::mutate::runContractProbes() {
  std::vector<std::string> Lines;
  probeLines(Lines);
  return Lines;
}

std::vector<std::string> jinn::mutate::computeFingerprint() {
  std::vector<std::string> Lines;
  microLines(Lines);
  probeLines(Lines);
  pyLines(Lines);
  structuralLines(Lines);
  verifyLines(Lines);
  fuzzLines(Lines);
  return Lines;
}

std::vector<OracleKill>
jinn::mutate::diffFingerprints(const std::vector<std::string> &Base,
                               const std::vector<std::string> &Mutated) {
  // Multiset symmetric difference: a line appearing a different number of
  // times on the two sides is a disagreement charged to its oracle.
  std::map<std::string, int> Delta;
  for (const std::string &L : Base)
    ++Delta[L];
  for (const std::string &L : Mutated)
    --Delta[L];
  std::map<std::string, std::vector<std::string>> PerOracle;
  for (const auto &[Line, Count] : Delta) {
    if (Count == 0)
      continue;
    PerOracle[oracleOf(Line)].push_back((Count > 0 ? "-" : "+") + Line);
  }
  std::vector<OracleKill> Kills;
  for (auto &[Oracle, Lines] : PerOracle) {
    std::string Detail = Lines.front();
    if (Lines.size() > 1)
      Detail += formatString(" (+%zu more)", Lines.size() - 1);
    Kills.push_back({Oracle, Detail});
  }
  return Kills;
}

Verdict jinn::mutate::judgeMutant(int Id) {
  int Restore = activeMutant();
  setActiveMutant(0);
  std::vector<std::string> Base = computeFingerprint();
  setActiveMutant(Id);
  std::vector<std::string> Mutated = computeFingerprint();
  setActiveMutant(Restore);

  Verdict V;
  V.Id = Id;
  if (const MutantInfo *Info = findMutant(Id))
    V.Name = Info->Name;
  V.KilledBy = diffFingerprints(Base, Mutated);
  V.Status = V.KilledBy.empty() ? "survived" : "killed";
  return V;
}
