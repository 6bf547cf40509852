//===- trace/Replay.cpp - Offline replay of boundary-crossing traces -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Replay.h"

#include "jinn/Machines.h"
#include "support/Format.h"
#include "synth/Synthesizer.h"

using namespace jinn;
using namespace jinn::trace;

std::map<std::string, uint64_t> ReplayResult::violationsPerMachine() const {
  std::map<std::string, uint64_t> Out;
  for (const agent::JinnReport &Report : Reports)
    if (!Report.EndOfRun)
      ++Out[Report.Machine];
  return Out;
}

void CollectingReporter::violation(spec::TransitionContext &Ctx,
                                   const spec::StateMachineSpec &Machine,
                                   const std::string &Message) {
  // JinnReporter::violation minus the VM mutation (the throwable and its
  // effects are already baked into the trace snapshots): the same record,
  // the same faulting-call suppression.
  Reports.push_back(agent::violationReport(Ctx, Machine, Message));
  Ctx.abortCall();
}

void CollectingReporter::endOfRun(const spec::StateMachineSpec &Machine,
                                  const std::string &Message) {
  Reports.push_back(agent::endOfRunReport(Machine, Message));
}

namespace {

jvm::MethodInfo *methodOf(const TraceEvent &Ev) {
  return reinterpret_cast<jvm::MethodInfo *>(
      static_cast<uintptr_t>(Ev.MethodWord));
}

/// The validation pass wellFormed cannot make without a VM: every native
/// entry and exit names a method \p Vm issued, and keeps no more actuals
/// than that method declares.
bool nativeMethodsResolve(const Trace &T, const jvm::Vm &Vm,
                          std::string &Err) {
  for (size_t I = 0; I < T.Events.size(); ++I) {
    const TraceEvent &Ev = T.Events[I];
    if (Ev.Kind != EventKind::NativeEntry && Ev.Kind != EventKind::NativeExit)
      continue;
    const char *Bad = nullptr;
    if (!Vm.isMethodId(methodOf(Ev)))
      Bad = "method word is not a method of this VM";
    else if (Ev.NumNativeArgs > methodOf(Ev)->Sig.Params.size())
      Bad = "more native arguments than the method declares";
    if (Bad) {
      Err = formatString("malformed trace event %zu (%s): %s", I,
                         eventKindName(Ev.Kind), Bad);
      return false;
    }
  }
  return true;
}

} // namespace

ReplayResult jinn::trace::replayTrace(const Trace &T, jvm::Vm &Vm,
                                      const ReplayOptions &Opts) {
  ReplayResult Result;

  // A fresh machine set, filtered exactly as JinnAgent filters.
  agent::MachineSet Machines;
  std::vector<spec::MachineBase *> Active;
  for (spec::MachineBase *Machine : Machines.all()) {
    bool Enabled = Opts.EnabledMachines.empty();
    for (const std::string &Name : Opts.EnabledMachines)
      Enabled |= Machine->spec().Name == Name;
    if (Enabled)
      Active.push_back(Machine);
  }

  // Foreign traces can carry any bytes: refuse one whose fields would
  // index the check program or the captured-argument array out of range,
  // or whose native events name no method of this VM.
  if (!T.wellFormed(&Result.Error) ||
      !nativeMethodsResolve(T, Vm, Result.Error))
    return Result;

  // The same compiled check program the live wrappers run, driven
  // directly (no dispatcher) through its counting entry point.
  CollectingReporter Reporter;
  synth::Synthesizer Synth(Active, Reporter);
  Synth.synthesize();
  const synth::JniCheckProgram &Checks = Synth.jniChecks();
  std::vector<uint64_t> PerMachine(Active.size(), 0);

  jvmti::ReplayEnvironment Renv;
  Renv.Vm = &Vm;
  Renv.NativeFrameCapacity = T.Head.NativeFrameCapacity;
  Renv.ThreadNameOf = [&T](uint32_t Id) { return T.threadName(Id); };

  size_t Reported = 0;
  for (size_t EvIndex = 0; EvIndex < T.Events.size(); ++EvIndex) {
    const TraceEvent &Ev = T.Events[EvIndex];
    ++Result.EventsReplayed;
    // A crossing whose snapshot overflowed its peek capacity answers the
    // missing peeks from the live VM, which may have moved on since; one
    // that kept only the first MaxNativeArgs actuals never sees the rest.
    if (Ev.Snap.PeeksTruncated || Ev.NativeArgsTruncated)
      ++Result.InexactCrossings;
    switch (Ev.Kind) {
    case EventKind::ThreadAttach: {
      spec::ThreadStartInfo Info;
      Info.Id = Ev.ThreadId;
      Info.Name = Ev.Name;
      Info.EnvWord = Ev.Snap.EnvWord;
      Info.FrameCapacity = T.Head.NativeFrameCapacity;
      for (spec::MachineBase *Machine : Active)
        Machine->onThreadStart(Info);
      break;
    }

    case EventKind::JniPre:
    case EventKind::JniPost: {
      jvmti::CapturedCall Call(static_cast<jni::FnId>(Ev.Fn), &Ev.Snap,
                               &Renv);
      for (size_t I = 0; I < Ev.NumArgs; ++I)
        Call.restoreArg(static_cast<jni::ArgClass>(Ev.Args[I].Cls),
                        Ev.Args[I].Word, Ev.Args[I].PtrWord);
      bool IsPost = Ev.Kind == EventKind::JniPost;
      if (IsPost)
        Call.restoreReturn(Ev.HasReturn, Ev.RetIsRef, Ev.RetWord,
                           Ev.RetPtrWord);
      Checks.runCounted(IsPost, Call, PerMachine.data());
      break;
    }

    case EventKind::NativeEntry:
    case EventKind::NativeExit: {
      jvmti::CapturedCall Call(*methodOf(Ev), jni::wordToRef(Ev.SelfWord),
                               {Ev.NativeArgs, Ev.NumNativeArgs}, nullptr,
                               &Ev.Snap, &Renv);
      bool IsExit = Ev.Kind == EventKind::NativeExit;
      if (IsExit && Ev.Aborted)
        Call.abortCall();
      if (IsExit && Ev.HasReturn)
        Call.setNativeReturn(Ev.NativeRet);
      Checks.runCounted(IsExit, Call, PerMachine.data());
      break;
    }

    case EventKind::VmDeath:
      for (spec::MachineBase *Machine : Active)
        Machine->onVmDeath(Reporter, Vm);
      break;

    case EventKind::NativeBind:
    case EventKind::ThreadDetach:
    case EventKind::GcEpoch:
      break; // bookkeeping events; nothing for the machines to check
    }
    if (Opts.OnReport)
      for (; Reported < Reporter.Reports.size(); ++Reported)
        Opts.OnReport(EvIndex, Reporter.Reports[Reported]);
  }

  for (size_t M = 0; M < Active.size(); ++M)
    if (PerMachine[M])
      Result.MachineTransitions[Active[M]->spec().Name] += PerMachine[M];
  Result.Reports = std::move(Reporter.Reports);
  return Result;
}
