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
  // Mirrors JinnReporter::violation exactly, minus the VM mutation (the
  // throwable and its effects are already baked into the trace snapshots):
  // same message text, same report record, same faulting-call suppression.
  std::string Full =
      formatString("%s in %s.", Message.c_str(), Ctx.siteName().c_str());
  Reports.push_back({Machine.Name, Ctx.siteName(), Full, false});
  Ctx.abortCall();
}

void CollectingReporter::endOfRun(const spec::StateMachineSpec &Machine,
                                  const std::string &Message) {
  Reports.push_back({Machine.Name, "<program termination>", Message, true});
}

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
  // index the check program or the captured-argument array out of range.
  if (!T.wellFormed(&Result.Error))
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
    // missing peeks from the live VM, which may have moved on since.
    if (Ev.Snap.PeeksTruncated)
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
      Checks.runCounted(static_cast<jni::FnId>(Ev.Fn), IsPost, Call,
                        PerMachine.data());
      break;
    }

    case EventKind::NativeEntry: {
      auto *Method = reinterpret_cast<jvm::MethodInfo *>(
          static_cast<uintptr_t>(Ev.MethodWord));
      if (!Method)
        break;
      spec::TransitionContext Ctx = spec::TransitionContext::nativeReplaySite(
          spec::TransitionContext::Site::NativeEntry, *Method, Ev.Snap, Renv,
          jni::wordToRef(Ev.SelfWord), Ev.NativeArgs, nullptr, Reporter);
      for (const synth::Synthesizer::MachineAction &Action :
           Synth.entryActions()) {
        ++Result.MachineTransitions[Action.first->Name];
        Action.second(Ctx);
        if (Ctx.aborted())
          break;
      }
      break;
    }

    case EventKind::NativeExit: {
      auto *Method = reinterpret_cast<jvm::MethodInfo *>(
          static_cast<uintptr_t>(Ev.MethodWord));
      if (!Method)
        break;
      jvalue Ret = Ev.NativeRet;
      spec::TransitionContext Ctx = spec::TransitionContext::nativeReplaySite(
          spec::TransitionContext::Site::NativeExit, *Method, Ev.Snap, Renv,
          jni::wordToRef(Ev.SelfWord), Ev.NativeArgs,
          Ev.HasReturn ? &Ret : nullptr, Reporter);
      for (const synth::Synthesizer::MachineAction &Action :
           Synth.exitActions()) {
        ++Result.MachineTransitions[Action.first->Name];
        Action.second(Ctx);
      }
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
