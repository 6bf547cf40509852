//===- scenarios/Scenarios.cpp - World, runner, classification -----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "scenarios/Scenarios.h"

#include "support/Compiler.h"

using namespace jinn;
using namespace jinn::scenarios;

const std::vector<MicroInfo> &jinn::scenarios::allMicrobenchmarks() {
  static const std::vector<MicroInfo> Micros = {
      {MicroId::EnvMismatch, "JNIEnvMismatch", "JNIEnv* state", 14,
       "uses another thread's JNIEnv", true},
      {MicroId::PendingException, "ExceptionState", "Exception state", 1,
       "ignores a pending exception and keeps calling JNI", true},
      {MicroId::CriticalViolation, "CriticalRegion",
       "Critical-section state", 16, "calls JNI inside a critical region",
       true},
      {MicroId::FixedTypeMismatch, "ClassConfusion", "Fixed typing", 3,
       "passes a plain object where a jclass is expected", true},
      {MicroId::EntityTypeMismatch, "EntityType", "Entity-specific typing",
       2, "static call through a class that only inherits the method",
       true},
      {MicroId::FinalFieldWrite, "FinalField", "Access control", 9,
       "writes a final field through SetStaticIntField", true},
      {MicroId::NullArgument, "NullArg", "Nullness", 2,
       "passes null where JNI requires non-null", true},
      {MicroId::PinLeak, "PinLeak", "Pinned or copied string or array", 11,
       "never releases Get<T>ArrayElements", true},
      {MicroId::PinDoubleFree, "PinDoubleFree",
       "Pinned or copied string or array", 11,
       "releases an array buffer twice", true},
      {MicroId::MonitorLeak, "MonitorLeak", "Monitor", 11,
       "MonitorEnter without MonitorExit", true},
      {MicroId::GlobalRefLeak, "GlobalLeak",
       "Global or weak global reference", 11,
       "NewGlobalRef never deleted", true},
      {MicroId::GlobalRefDangling, "GlobalDangling",
       "Global or weak global reference", 13,
       "uses a deleted global reference", true},
      {MicroId::LocalOverflow, "LocalOverflow", "Local reference", 12,
       "creates more than 16 local references", true},
      {MicroId::LocalFrameLeak, "LocalFrameLeak", "Local reference", 12,
       "PushLocalFrame without PopLocalFrame", true},
      {MicroId::LocalDangling, "LocalDangling", "Local reference", 13,
       "uses a local reference after its frame was popped (GNOME bug)",
       true},
      {MicroId::LocalDoubleFree, "LocalDoubleFree", "Local reference", 13,
       "DeleteLocalRef twice on the same reference", true},
      {MicroId::IdRefConfusion, "IdConfusion", "Local reference", 6,
       "passes a jmethodID where a reference is expected", true},
      {MicroId::CrossThreadLocalUse, "CrossThreadLocal", "Local reference",
       13, "uses one thread's local reference from another thread", true},
      {MicroId::UnterminatedString, "UnterminatedString", "(none)", 8,
       "reads past a non-NUL-terminated Unicode buffer", false},
      {MicroId::PopWithoutPush, "PopWithoutPush", "Local-frame nesting", 12,
       "PopLocalFrame with no frame left to pop", true},
      {MicroId::PopWithoutPushFixed, "PopWithoutPushFixed", "(none)", 0,
       "fixed variant: every PopLocalFrame matches a PushLocalFrame",
       false},
      {MicroId::MonitorExitUnmatched, "MonitorExitUnmatched",
       "Monitor balance", 11,
       "MonitorExit with no outstanding JNI MonitorEnter", true},
      {MicroId::MonitorExitUnmatchedFixed, "MonitorExitUnmatchedFixed",
       "(none)", 0, "fixed variant: reentrant enter/exit kept balanced",
       false},
      {MicroId::CriticalNested, "CriticalNested", "Critical-section nesting",
       16, "opens a critical section inside an open critical section", true},
      {MicroId::CriticalNestedFixed, "CriticalNestedFixed", "(none)", 0,
       "fixed variant: the two critical sections run sequentially", false},
  };
  return Micros;
}

const MicroInfo &jinn::scenarios::microInfo(MicroId Id) {
  return allMicrobenchmarks()[static_cast<size_t>(Id)];
}

namespace {

/// The interpose-only observer: reached through a real slot, does nothing.
void observeNothing(const void *, jvmti::CapturedCall &) {}

} // namespace

ScenarioWorld::ScenarioWorld(WorldConfig Config)
    : Config(Config),
      Vm([&Config] {
        jvm::VmOptions Options;
        Options.Flavor = Config.Flavor;
        Options.EchoDiagnostics = Config.EchoDiagnostics;
        return Options;
      }()),
      Rt(Vm), Host(Rt) {
  switch (Config.Checker) {
  case CheckerKind::None:
    break;
  case CheckerKind::InterposeOnly: {
    jvmti::SlotBatch Batch;
    Batch.PreAll.push_back({&observeNothing, nullptr});
    Batch.PostAll.push_back({&observeNothing, nullptr});
    jvmti::dispatcherFor(Rt).install(std::move(Batch));
    break;
  }
  case CheckerKind::Jinn: {
    agent::JinnOptions Options;
    Options.Mode = Config.JinnMode;
    Options.Recorder = Config.JinnRecorder;
    Options.EnabledMachines = Config.JinnEnabledMachines;
    Options.SampleRate = Config.JinnSampleRate;
    Options.SampleSeed = Config.JinnSampleSeed;
    Jinn = static_cast<agent::JinnAgent *>(
        &Host.load(std::make_unique<agent::JinnAgent>(std::move(Options))));
    break;
  }
  case CheckerKind::Xcheck:
    Xcheck = static_cast<checkjni::XcheckAgent *>(
        &Host.load(std::make_unique<checkjni::XcheckAgent>(
            Config.Flavor == jvm::VmFlavor::HotSpotLike
                ? checkjni::Vendor::HotSpot
                : checkjni::Vendor::J9)));
    break;
  }
}

void ScenarioWorld::runAsNative(const std::string &ClassName,
                                std::function<void(JNIEnv *)> Body) {
  if (!Vm.findClass(ClassName)) {
    jvm::ClassDef Def;
    Def.Name = ClassName;
    Def.nativeMethod("call", "()V", /*IsStatic=*/true);
    std::string Name = ClassName;
    Def.method(
        "main", "()V",
        [Name](jvm::Vm &V, jvm::JThread &T, const jvm::Value &,
               const std::vector<jvm::Value> &) {
          V.invokeByName(T, Name.c_str(), "call", "()V",
                         jvm::Value::makeNull(), {});
          return jvm::Value::makeVoid();
        },
        /*IsStatic=*/true, ClassName + ".java:5");
    Vm.defineClass(Def);
  }
  Rt.registerNative(Vm.findClass(ClassName), "call", "()V",
                    [Body = std::move(Body)](JNIEnv *Env, jobject,
                                             const jvalue *) -> jvalue {
                      Body(Env);
                      jvalue R;
                      R.j = 0;
                      return R;
                    });
  Vm.invokeByName(Vm.mainThread(), ClassName.c_str(), "main", "()V",
                  jvm::Value::makeNull(), {});
}

void ScenarioWorld::defineRefSupplier(const std::string &ClassName,
                                      std::function<jobject(JNIEnv *)> Body) {
  if (!Vm.findClass(ClassName)) {
    jvm::ClassDef Def;
    Def.Name = ClassName;
    Def.nativeMethod("get", "()Ljava/lang/Object;", /*IsStatic=*/true);
    Vm.defineClass(Def);
  }
  Rt.registerNative(Vm.findClass(ClassName), "get", "()Ljava/lang/Object;",
                    [Body = std::move(Body)](JNIEnv *Env, jobject,
                                             const jvalue *) -> jvalue {
                      jvalue R;
                      R.l = Body(Env);
                      return R;
                    });
}

const char *jinn::scenarios::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Running:
    return "running";
  case Outcome::Crash:
    return "crash";
  case Outcome::Warning:
    return "warning";
  case Outcome::Error:
    return "error";
  case Outcome::Npe:
    return "NPE";
  case Outcome::Leak:
    return "leak";
  case Outcome::Deadlock:
    return "deadlock";
  case Outcome::JinnException:
    return "exception";
  }
  JINN_UNREACHABLE("invalid Outcome");
}

bool jinn::scenarios::isValidBugReport(Outcome O) {
  return O == Outcome::Warning || O == Outcome::Error ||
         O == Outcome::JinnException;
}

Outcome jinn::scenarios::classify(ScenarioWorld &World) {
  // Jinn's exception takes precedence: it is the run's visible failure.
  if (World.Jinn && !World.Jinn->reporter().reports().empty())
    return Outcome::JinnException;

  if (World.Xcheck) {
    bool SawError = false, SawWarning = false;
    for (const checkjni::XcheckDetection &Detection :
         World.Xcheck->reporter().detections()) {
      SawError |= Detection.Behavior == checkjni::CheckerBehavior::Error;
      SawWarning |= Detection.Behavior == checkjni::CheckerBehavior::Warning;
    }
    if (SawError)
      return Outcome::Error;
    if (SawWarning)
      return Outcome::Warning;
  }

  const DiagnosticSink &Diags = World.Vm.diags();
  if (Diags.has(IncidentKind::SimulatedCrash))
    return Outcome::Crash;
  if (Diags.has(IncidentKind::PotentialDeadlock))
    return Outcome::Deadlock;

  for (const auto &Thread : World.Vm.threads()) {
    if (Thread->Pending.isNull())
      continue;
    jvm::Klass *Kl = World.Vm.klassOf(Thread->Pending);
    if (Kl && Kl->name() == "java/lang/NullPointerException")
      return Outcome::Npe;
  }

  // Retained resources at termination.
  bool Leaked = !World.Vm.pins().empty() ||
                World.Vm.heldMonitorCount() > 0 ||
                World.Vm.liveGlobalCount(false) > 0 ||
                World.Vm.liveGlobalCount(true) > 0;
  for (const auto &Thread : World.Vm.threads())
    Leaked |= Thread->everOverflowedCapacity();
  if (Leaked)
    return Outcome::Leak;

  return Outcome::Running;
}

Outcome jinn::scenarios::runMicroToOutcome(MicroId Id,
                                           const WorldConfig &Config) {
  ScenarioWorld World(Config);
  runMicrobenchmark(Id, World);
  World.shutdown();
  return classify(World);
}
