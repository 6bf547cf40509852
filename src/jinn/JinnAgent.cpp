//===- jinn/JinnAgent.cpp - The Jinn dynamic bug detector -----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/JinnAgent.h"

#include "jvm/JThread.h"
#include "support/Rng.h"

using namespace jinn;
using namespace jinn::agent;

namespace {

/// FNV-1a over the thread name: the sampling stream key. Name-keyed so the
/// sampled set is identical across runs even when attach order (and thus
/// id assignment) races; a server that names request threads
/// deterministically gets a deterministic sampled set.
uint64_t threadStreamKey(uint32_t Id, const std::string &Name) {
  if (Name.empty())
    return 0x811c9dc5ULL ^ Id;
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

} // namespace

bool JinnAgent::sampledThread(uint32_t Id, const std::string &Name) const {
  if (Options.SampleRate <= 1)
    return true;
  SplitMix64 Stream =
      SplitMix64(Options.SampleSeed).split(threadStreamKey(Id, Name));
  return Stream.chance(1, Options.SampleRate);
}

std::string
jinn::agent::checkMachineNames(const std::vector<std::string> &Names) {
  MachineSet Set;
  for (const std::string &Name : Names) {
    if (!Set.select({Name}).empty())
      continue;
    std::string Msg = "unknown machine '" + Name + "'; valid names:";
    for (spec::MachineBase *M : Set.all())
      Msg += "\n  " + M->spec().Name;
    return Msg;
  }
  return "";
}

const char *jinn::agent::traceModeName(TraceMode Mode) {
  switch (Mode) {
  case TraceMode::InlineCheck:
    return "inline-check";
  case TraceMode::RecordOnly:
    return "record-only";
  case TraceMode::RecordAndReplay:
    return "record+replay";
  }
  return "unknown";
}

JinnAgent::JinnAgent() = default;
JinnAgent::JinnAgent(JinnOptions Options) : Options(std::move(Options)) {}
JinnAgent::~JinnAgent() = default;

void JinnAgent::onLoad(JavaVM *JavaVm, jvmti::JvmtiEnv &Jvmti) {
  jvm::Vm &Vm = *JavaVm->vm;
  // Sampling without a trace would leave unsampled crossings uncheckable
  // forever; promote to record+replay so every crossing stays replayable
  // and any sampled report can be reproduced offline from the trace.
  if (Options.SampleRate > 1 && Options.Mode == TraceMode::InlineCheck)
    Options.Mode = TraceMode::RecordAndReplay;
  const bool Checking = Options.Mode != TraceMode::RecordOnly;
  const bool Recording = Options.Mode != TraceMode::InlineCheck;

  // The custom exception the synthesizer is parameterized with (Figure 5).
  if (!Vm.findClass(JinnExceptionClass)) {
    jvm::ClassDef Def;
    Def.Name = JinnExceptionClass;
    Def.Super = "java/lang/RuntimeException";
    Vm.defineClass(Def);
  }

  Reporter = std::make_unique<JinnReporter>(Vm);
  Machines = std::make_unique<MachineSet>();
  Active = Machines->select(Options.EnabledMachines);
  Synth = std::make_unique<synth::Synthesizer>(Active, *Reporter);

  // Sampled mode, set first so no slot installed below ever runs on an
  // unsampled thread: the JNI and native-method wrappers read the thread's
  // JThread::Sampled flag before running ANY boundary slot — recorder and
  // machines alike. Each thread's flag is decided once, when it starts
  // (the ThreadStart callback below), or here for the threads attached
  // before the agent loaded. An unsampled thread costs one flag load per
  // crossing and nothing else; a sampled thread is fully recorded and
  // fully checked, so each of its inline reports is byte-replayable from
  // the retained trace.
  auto Decide = [this](jvm::JThread &Thread) {
    bool Sampled = sampledThread(Thread.id(), Thread.name());
    Thread.Sampled.store(Sampled, std::memory_order_relaxed);
    return Sampled;
  };
  for (const auto &Thread : Vm.threads())
    Decide(*Thread);
  if (Options.SampleRate > 1)
    Jvmti.dispatcher().setSampling(true);

  // Each installer below publishes once. The recorder's slots precede the
  // machine slots in every phase of both directions (all-function JNI
  // slots lead per-function ones; native slots run in install order), so
  // each event freezes the state the machines were about to observe.
  if (Recording) {
    Recorder = std::make_unique<trace::TraceRecorder>(Vm, Options.Recorder);
    Recorder->installInto(Jvmti.dispatcher());
  }

  // Algorithm 1: compile the machine checks into the dispatch program.
  // Under record-only no machine slot is installed — the boundary carries
  // only the recorder, and checking happens offline via replay.
  Stats = Checking ? Synth->installInto(Jvmti.dispatcher())
                   : synth::SynthesisStats{};
  Published = true;

  const uint32_t FrameCapacity = Vm.options().NativeFrameCapacity;
  auto InfoFor = [FrameCapacity](const jvm::JThread &Thread) {
    spec::ThreadStartInfo Info;
    Info.Id = Thread.id();
    Info.Name = Thread.name();
    Info.EnvWord =
        static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Thread.EnvPtr));
    Info.FrameCapacity = FrameCapacity;
    return Info;
  };

  jvmti::EventCallbacks Callbacks;
  Callbacks.NativeMethodBind = [this](jvm::MethodInfo &Method,
                                      jni::JniNativeStdFn &Bound) {
    if (Recorder)
      Recorder->recordNativeBind(Method);
    jvmti::wrapNativeMethod(Method, Bound);
  };
  Callbacks.ThreadStart = [this, Checking, InfoFor,
                           Decide](jvm::JThread &Thread) {
    // Unsampled threads never reach a boundary hook, so skip their trace
    // lifecycle events and shadow setup too — under heavy attach/detach
    // churn that is most of the per-thread cost an agent would otherwise
    // pay, and it keeps the trace the exact event set of sampled threads.
    const bool Sampled = Decide(Thread);
    if (Recorder && Sampled)
      Recorder->recordThreadAttach(Thread);
    if (Checking && Sampled)
      for (spec::MachineBase *Machine : Active)
        Machine->onThreadStart(InfoFor(Thread));
  };
  if (Recorder)
    Callbacks.ThreadEnd = [this](jvm::JThread &Thread) {
      if (Thread.Sampled.load(std::memory_order_relaxed))
        Recorder->recordThreadDetach(Thread);
      // ThreadEnd runs on the detaching thread: seal its partial ring into
      // the recorder-level queue and recycle the buffer, so short-lived
      // request threads leave no per-thread state behind. A no-op for
      // unsampled threads, which never allocate a buffer.
      Recorder->retireLocalBuffer();
    };
  Callbacks.GcFinish = [this] {
    if (Recorder)
      Recorder->recordGcEpoch();
  };
  Callbacks.VmDeath = [this, Checking, &Vm] {
    if (Recorder)
      Recorder->recordVmDeath();
    if (Checking)
      for (spec::MachineBase *Machine : Active)
        Machine->onVmDeath(*Reporter, Vm);
    // Publish the contention proxy: acquisitions of the pin stripes.
    Vm.diags().setCounter("jinn.lock_acquires.pinned-resource",
                          Machines->lockAcquires());
  };
  Jvmti.setEventCallbacks(std::move(Callbacks));

  // Threads attached before the agent loaded (at least "main"), with the
  // sampling decision taken above.
  for (const auto &Thread : Vm.threads()) {
    const bool Sampled = Thread->Sampled.load(std::memory_order_relaxed);
    if (Recorder && Sampled)
      Recorder->recordThreadAttach(*Thread);
    if (Checking && Sampled)
      for (spec::MachineBase *Machine : Active)
        Machine->onThreadStart(InfoFor(*Thread));
  }
}
