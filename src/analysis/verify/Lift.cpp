//===- analysis/verify/Lift.cpp - Lifting crossings into the CFG IR ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/verify/Lift.h"

#include "fuzz/Executor.h"
#include "jni/JniTraits.h"
#include "trace/Replay.h"

#include <map>
#include <utility>

using namespace jinn;
using namespace jinn::analysis::verify;

namespace {

/// Whether a recorded call's post hooks ran their resource moves — the
/// exact gating the dynamic counter actions apply to the return value.
/// Calls with no post event (checker-suppressed) never reach here.
bool callSucceeded(jni::FnId Fn, const trace::TraceEvent &Post) {
  switch (Fn) {
  case jni::FnId::PushLocalFrame:
  case jni::FnId::MonitorEnter:
  case jni::FnId::MonitorExit:
    // Status-returning balance functions: JNI_OK gates the counter move.
    return static_cast<int32_t>(Post.RetWord) == 0;
  default:
    break;
  }
  const jni::FnTraits &Traits = jni::fnTraits(Fn);
  if (Traits.Resource == jni::ResourceRole::PinAcquire)
    return Post.RetWord != 0 || Post.RetPtrWord != 0; // null = failed pin
  return true;
}

} // namespace

ClientCfg jinn::analysis::verify::liftTrace(const trace::Trace &T,
                                            jvm::Vm &Vm,
                                            const std::string &Name,
                                            bool PinWitnessed,
                                            std::string *Err) {
  ClientCfg Cfg;
  Cfg.Name = Name;
  if (!T.wellFormed(Err))
    return Cfg;

  // Pass 1: replay the trace so every report the dynamic machines derive
  // is pinned to the trace event that fired it. Foreign traces skip this
  // (their entity words are another process's addresses).
  std::vector<std::pair<size_t, agent::JinnReport>> Pinned;
  if (PinWitnessed) {
    trace::ReplayOptions Opts;
    Opts.OnReport = [&Pinned](size_t EvIndex, const agent::JinnReport &R) {
      Pinned.emplace_back(EvIndex, R);
    };
    trace::replayTrace(T, Vm, Opts);
  }

  // Pass 2: fold the event stream into one straight-line block. A JniPost
  // closes the innermost open call of its thread with the same function
  // (calls nest strictly; opens skipped on the way down were suppressed
  // and correctly keep Success = false).
  Cfg.Blocks.emplace_back();
  std::vector<CrossEvent> &Events = Cfg.Blocks[0].Events;

  constexpr size_t None = static_cast<size_t>(-1);
  std::vector<size_t> EvMap(T.Events.size(), None);
  std::map<uint32_t, std::vector<size_t>> OpenCalls; // per-thread stacks

  for (size_t I = 0; I < T.Events.size(); ++I) {
    const trace::TraceEvent &Ev = T.Events[I];
    switch (Ev.Kind) {
    case trace::EventKind::JniPre: {
      CrossEvent C;
      C.K = CrossEvent::Kind::Call;
      C.Fn = static_cast<jni::FnId>(Ev.Fn);
      C.Success = false; // until a post event closes it
      EvMap[I] = Events.size();
      OpenCalls[Ev.ThreadId].push_back(Events.size());
      Events.push_back(std::move(C));
      break;
    }
    case trace::EventKind::JniPost: {
      std::vector<size_t> &Stack = OpenCalls[Ev.ThreadId];
      size_t Idx = None;
      while (!Stack.empty()) {
        size_t Top = Stack.back();
        Stack.pop_back();
        if (Events[Top].Fn == static_cast<jni::FnId>(Ev.Fn)) {
          Idx = Top;
          break;
        }
      }
      if (Idx != None) {
        Events[Idx].Success =
            callSucceeded(static_cast<jni::FnId>(Ev.Fn), Ev);
        EvMap[I] = Idx;
      }
      break;
    }
    case trace::EventKind::NativeEntry:
    case trace::EventKind::NativeExit: {
      CrossEvent C;
      C.K = Ev.Kind == trace::EventKind::NativeEntry
                ? CrossEvent::Kind::NativeEntry
                : CrossEvent::Kind::NativeExit;
      EvMap[I] = Events.size();
      Events.push_back(std::move(C));
      break;
    }
    case trace::EventKind::VmDeath: {
      CrossEvent C;
      C.K = CrossEvent::Kind::End;
      EvMap[I] = Events.size();
      Events.push_back(std::move(C));
      break;
    }
    case trace::EventKind::NativeBind:
    case trace::EventKind::ThreadAttach:
    case trace::EventKind::ThreadDetach:
    case trace::EventKind::GcEpoch:
      EvMap[I] = Events.empty() ? None : Events.size() - 1;
      break;
    }
  }

  // Pass 3: attach the pinned reports as Witnessed hints.
  for (std::pair<size_t, agent::JinnReport> &P : Pinned) {
    size_t Idx = P.first < EvMap.size() ? EvMap[P.first] : None;
    if (Idx == None)
      Idx = Events.empty() ? None : Events.size() - 1;
    if (Idx != None)
      Events[Idx].Witnessed.push_back(std::move(P.second));
  }
  return Cfg;
}

LiftedProgram jinn::analysis::verify::liftMicro(scenarios::MicroId Id) {
  scenarios::WorldConfig Config;
  Config.Checker = scenarios::CheckerKind::Jinn;
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  scenarios::ScenarioWorld World(Config);
  scenarios::runMicrobenchmark(Id, World);
  World.shutdown();

  LiftedProgram Out;
  trace::Trace Recorded = World.Jinn->recorder()->collect();
  Out.Cfg = liftTrace(Recorded, World.Vm, scenarios::microInfo(Id).ClassName);
  Out.Oracle = World.Jinn->reporter().reports();
  return Out;
}

LiftedProgram
jinn::analysis::verify::liftJniSequence(const fuzz::Sequence &Seq) {
  LiftedProgram Out;
  const fuzz::FuzzOp *Bug = Seq.bugOp();
  std::string Name =
      std::string("fuzz:") + (Bug ? Bug->Name : "clean");
  fuzz::runJniSequenceRecorded(
      Seq, [&Out, &Name](const trace::Trace &T, jvm::Vm &Vm,
                         const std::vector<agent::JinnReport> &Inline) {
        Out.Cfg = liftTrace(T, Vm, Name);
        Out.Oracle = Inline;
      });
  return Out;
}
