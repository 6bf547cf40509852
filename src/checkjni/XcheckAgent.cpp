//===- checkjni/XcheckAgent.cpp - -Xcheck:jni baseline emulations ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checkjni/XcheckAgent.h"

#include "support/Format.h"

using namespace jinn;
using namespace jinn::checkjni;

const char *jinn::checkjni::vendorName(Vendor V) {
  return V == Vendor::HotSpot ? "hotspot" : "j9";
}

namespace {

bool contains(const std::string &Haystack, const char *Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

} // namespace

/// The encoded Table 1 columns 6-7, extended to every machine. Where the
/// table says "running"/"crash"/"NPE" the checker misses and the production
/// policy produces the listed outcome on its own.
CheckerBehavior jinn::checkjni::behaviorFor(Vendor V,
                                            const std::string &MachineName,
                                            const std::string &Message,
                                            bool EndOfRun) {
  bool HotSpot = V == Vendor::HotSpot;
  if (MachineName == "JNIEnv* state") // row 14: error / crash
    return HotSpot ? CheckerBehavior::Error : CheckerBehavior::Miss;
  if (MachineName == "Exception state") // row 1: warning / error
    return HotSpot ? CheckerBehavior::Warning : CheckerBehavior::Error;
  if (MachineName == "Critical-section state") // row 16: warning / error
    return HotSpot ? CheckerBehavior::Warning : CheckerBehavior::Error;
  if (MachineName == "Fixed typing") // row 3: error / error
    return CheckerBehavior::Error;
  if (MachineName == "Entity-specific typing") // row 2: running / crash
    return CheckerBehavior::Miss;
  if (MachineName == "Access control") // row 9: NPE / NPE
    return CheckerBehavior::Miss;
  if (MachineName == "Nullness") // row 2: running / crash
    return CheckerBehavior::Miss;
  if (MachineName == "Pinned or copied string or array") {
    if (EndOfRun) // row 11 leaks: running / warning
      return HotSpot ? CheckerBehavior::Miss : CheckerBehavior::Warning;
    return CheckerBehavior::Miss; // double free: row 2
  }
  if (MachineName == "Monitor") // row 11: running / warning
    return HotSpot ? CheckerBehavior::Miss : CheckerBehavior::Warning;
  if (MachineName == "Global or weak global reference") {
    if (EndOfRun) // leak: row 11
      return HotSpot ? CheckerBehavior::Miss : CheckerBehavior::Warning;
    return CheckerBehavior::Error; // dangling: row 13 / row 6
  }
  if (MachineName == "Local reference") {
    if (EndOfRun || contains(Message, "overflow") ||
        contains(Message, "never popped")) // rows 11/12: running / warning
      return HotSpot ? CheckerBehavior::Miss : CheckerBehavior::Warning;
    return CheckerBehavior::Error; // dangling/double free/IDs: rows 6, 13
  }
  return CheckerBehavior::Miss;
}

namespace {

/// Vendor-styled console text (Figure 9a / 9b).
std::string formatDetection(Vendor V, jvm::Vm &Vm, jvm::JThread *Thread,
                            const std::string &Site,
                            const std::string &Message,
                            CheckerBehavior Behavior) {
  if (V == Vendor::HotSpot) {
    std::string Out = formatString("WARNING in native method: JNI %s\n",
                                   Message.c_str());
    if (Thread)
      Out += Thread->renderStack();
    return Out;
  }
  std::string Out = formatString(
      "JVMJNCK028E JNI error in %s: %s\n", Site.c_str(), Message.c_str());
  if (Thread && !Thread->Stack.empty())
    Out += formatString("JVMJNCK077E Error detected in %s\n",
                        Thread->Stack.back().Display.c_str());
  if (Behavior == CheckerBehavior::Error) {
    Out += "JVMJNCK024E JNI error detected. Aborting.\n";
    Out += "JVMJNCK025I Use -Xcheck:jni:nonfatal to continue running when "
           "errors are detected.\n";
    Out += "Fatal error: JNI error\n";
  }
  (void)Vm;
  return Out;
}

} // namespace

void XcheckReporter::violation(spec::TransitionContext &Ctx,
                               const spec::StateMachineSpec &Machine,
                               const std::string &Message) {
  // A real J9 -Xcheck:jni aborts the VM at the first error; nothing further
  // is reported (Figure 9b shows only the first illegal call).
  if (Ctx.thread().Poisoned) {
    Ctx.abortCall();
    return;
  }
  CheckerBehavior Behavior =
      behaviorFor(V, Machine.Name, Message, /*EndOfRun=*/false);
  if (Behavior == CheckerBehavior::Miss)
    return; // the production policy will produce Table 1's default outcome

  // Vendor phrasing for the Figure 9 comparison.
  std::string VendorMessage = Message;
  if (Machine.Name == "Exception state")
    VendorMessage = V == Vendor::HotSpot
                        ? "call made with exception pending"
                        : "This function cannot be called when an "
                          "exception is pending";
  std::string Text = formatDetection(V, Vm, &Ctx.thread(), Ctx.siteName(),
                                     VendorMessage, Behavior);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Detections.push_back({Machine.Name, Behavior, Text});
  }

  std::string Channel = formatString("xcheck:%s", vendorName(V));
  if (Behavior == CheckerBehavior::Warning) {
    Vm.diags().report(IncidentKind::Warning, Channel, Text);
    return; // print and continue: the call still executes
  }
  // Error: print, abort the VM (simulated), and suppress the call —
  // unless running in nonfatal mode, which diagnoses and continues.
  if (NonFatal) {
    Vm.diags().report(IncidentKind::Warning, Channel, Text);
    return;
  }
  Vm.diags().report(IncidentKind::FatalError, Channel, Text);
  Ctx.thread().Poisoned = true;
  Ctx.abortCall();
}

void XcheckReporter::endOfRun(const spec::StateMachineSpec &Machine,
                              const std::string &Message) {
  CheckerBehavior Behavior =
      behaviorFor(V, Machine.Name, Message, /*EndOfRun=*/true);
  if (Behavior == CheckerBehavior::Miss)
    return;
  std::string Text = formatDetection(V, Vm, nullptr, "<program termination>",
                                     Message, CheckerBehavior::Warning);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Detections.push_back({Machine.Name, Behavior, Text});
  }
  Vm.diags().report(IncidentKind::Warning,
                    formatString("xcheck:%s", vendorName(V)), Text);
}

XcheckAgent::XcheckAgent(Vendor V, bool NonFatal) : V(V) {
  Name = formatString("xcheck:%s%s", vendorName(V),
                      NonFatal ? ":nonfatal" : "");
  NonFatalMode = NonFatal;
  EnvSpec.Name = "JNIEnv* state";
  ExcSpec.Name = "Exception state";
  CritSpec.Name = "Critical-section state";
  FixedSpec.Name = "Fixed typing";
  PinSpec.Name = "Pinned or copied string or array";
  MonSpec.Name = "Monitor";
  GlobalSpec.Name = "Global or weak global reference";
  LocalSpec.Name = "Local reference";
}

XcheckAgent::~XcheckAgent() = default;

const char *XcheckAgent::name() const { return Name.c_str(); }

void XcheckAgent::preCheck(jvmti::CapturedCall &Call) {
  jvm::JThread &Thread = Call.thread();
  jvm::Vm &Vm = Call.vm();
  const jni::FnTraits &Traits = Call.traits();
  spec::TransitionContext Ctx(Call, *Reporter);

  // JNIEnv/thread mismatch (pitfall 14).
  if (jvm::JThread *Current = Call.runtime().currentThread();
      Current && Current != &Thread) {
    Reporter->violation(Ctx, EnvSpec,
                        "JNIEnv does not belong to the current thread");
    if (Ctx.aborted())
      return;
  }
  // Pending exception (pitfall 1).
  if (!Thread.Pending.isNull() && !Traits.ExceptionOblivious) {
    Reporter->violation(Ctx, ExcSpec, "An exception is pending");
    if (Ctx.aborted())
      return;
  }
  // Critical section (pitfall 16) — read straight from the VM thread.
  if (Thread.CriticalDepth > 0 && !Traits.CriticalAllowed) {
    Reporter->violation(Ctx, CritSpec,
                        "JNI call made inside a critical region");
    if (Ctx.aborted())
      return;
  }
  // Reference-handle validity and jclass checks (pitfalls 3, 6, 13).
  for (int I = 0; I < Traits.NumParams; ++I) {
    if (Traits.Params[I].Cls != jni::ArgClass::Ref)
      continue;
    uint64_t Word = Call.refWord(I);
    if (!Word)
      continue; // nullness is NOT checked (Table 1 row 2: running/crash)
    jvm::Vm::PeekResult Peek = Vm.peekHandle(Word, &Thread);
    switch (Peek.S) {
    case jvm::Vm::PeekResult::Status::NotARef:
      Reporter->violation(Ctx, LocalSpec,
                          formatString("argument %d is not a JNI reference",
                                       I + 1));
      return;
    case jvm::Vm::PeekResult::Status::Stale:
      Reporter->violation(
          Ctx,
          Peek.Kind == jvm::RefKind::Local ? LocalSpec : GlobalSpec,
          formatString("argument %d is a dangling reference", I + 1));
      return;
    case jvm::Vm::PeekResult::Status::WrongThreadLive:
      Reporter->violation(Ctx, LocalSpec,
                          formatString("argument %d is a local reference "
                                       "of another thread",
                                       I + 1));
      return;
    case jvm::Vm::PeekResult::Status::Live:
      if (Traits.Params[I].Constraint == jni::RefConstraint::Class &&
          !Vm.klassFromMirror(Peek.Target)) {
        Reporter->violation(
            Ctx, FixedSpec,
            formatString("argument %d is not a java.lang.Class", I + 1));
        return;
      }
      break;
    case jvm::Vm::PeekResult::Status::Null:
    case jvm::Vm::PeekResult::Status::ClearedWeak:
      break;
    }
    if (Ctx.aborted())
      return;
  }
}

void XcheckAgent::deathChecks(jvm::Vm &Vm) {
  if (!Vm.pins().empty())
    Reporter->endOfRun(PinSpec,
                       formatString("%zu pinned string/array resource(s) "
                                    "were never released (leak)",
                                    Vm.pins().size()));
  if (Vm.heldMonitorCount() > 0)
    Reporter->endOfRun(MonSpec,
                       formatString("%zu monitor(s) still held at exit",
                                    Vm.heldMonitorCount()));
  size_t Globals = Vm.liveGlobalCount(false) + Vm.liveGlobalCount(true);
  if (Globals > 0)
    Reporter->endOfRun(GlobalSpec,
                       formatString("%zu global reference(s) were never "
                                    "deleted (leak)",
                                    Globals));
  for (const auto &Thread : Vm.threads()) {
    if (Thread->everOverflowedCapacity())
      Reporter->endOfRun(LocalSpec,
                         formatString("thread %u exceeded the local "
                                      "reference capacity (overflow)",
                                      Thread->id()));
    if (Thread->LeakedExplicitFrames > 0)
      Reporter->endOfRun(LocalSpec,
                         formatString("%u local reference frame(s) were "
                                      "never popped",
                                      Thread->LeakedExplicitFrames));
  }
}

void XcheckAgent::onLoad(JavaVM *JavaVm, jvmti::JvmtiEnv &Jvmti) {
  jvm::Vm &Vm = *JavaVm->vm;
  Reporter = std::make_unique<XcheckReporter>(Vm, V, NonFatalMode);
  jvmti::SlotBatch Batch;
  Batch.PreAll.push_back({[](const void *Self, jvmti::CapturedCall &Call) {
                            const_cast<XcheckAgent *>(
                                static_cast<const XcheckAgent *>(Self))
                                ->preCheck(Call);
                          },
                          this});
  Jvmti.dispatcher().install(std::move(Batch));

  jvmti::EventCallbacks Callbacks;
  Callbacks.VmDeath = [this, &Vm] { deathChecks(Vm); };
  Jvmti.setEventCallbacks(std::move(Callbacks));
}
