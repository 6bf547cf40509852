//===- jinn/JinnAgent.h - The Jinn dynamic bug detector -------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Jinn: the synthesized JNI bug detector (paper §4, Figure 5). At load it
/// defines the custom exception class, instantiates the fourteen machine
/// specifications, runs the synthesizer (Algorithm 1) to install the
/// context-specific checks, and registers the JVMTI callbacks — native
/// method wrapping via NativeMethodBind, per-thread machine setup, and the
/// end-of-run leak checks at VM death.
///
/// Usage (the "-agentlib:jinn" analogue):
/// \code
///   jvm::Vm Vm;
///   jni::JniRuntime Rt(Vm);
///   jvmti::AgentHost Host(Rt);
///   auto &Jinn = static_cast<agent::JinnAgent &>(
///       Host.load(std::make_unique<agent::JinnAgent>()));
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_JINNAGENT_H
#define JINN_JINN_JINNAGENT_H

#include "jinn/Machines.h"
#include "jinn/Report.h"
#include "jvmti/Jvmti.h"
#include "synth/Synthesizer.h"
#include "trace/Recorder.h"

#include <memory>

namespace jinn::agent {

/// How the agent treats each boundary crossing.
enum class TraceMode : uint8_t {
  /// Machines check at the boundary; nothing is recorded (the paper's
  /// deployment, and the default).
  InlineCheck,
  /// Only the trace recorder runs at the boundary; no machine is
  /// installed. Checking happens later, offline, via trace::replayTrace.
  RecordOnly,
  /// Machines check inline *and* every crossing is recorded. Replaying
  /// such a trace reproduces the inline report list byte-for-byte.
  RecordAndReplay,
};

const char *traceModeName(TraceMode Mode);

/// Agent options (the "-agentlib:jinn=..." string of a real deployment).
struct JinnOptions {
  /// When non-empty, only machines whose names appear here are synthesized
  /// — the ablation knob behind the per-machine rows of
  /// bench_crossing_latency.
  std::vector<std::string> EnabledMachines;
  TraceMode Mode = TraceMode::InlineCheck;
  /// Recorder tuning; only consulted when Mode records.
  trace::TraceRecorderOptions Recorder;
  /// Deterministic sampled checking (production monitoring mode): 1 checks
  /// every crossing; N > 1 records and checks roughly 1-in-N crossings by
  /// giving each *thread* (request) a seeded SplitMix64 stream keyed on
  /// its identity and running boundary hooks — recorder and machines
  /// alike — only on threads whose stream draws 1/N. The whole-thread
  /// granularity is what keeps stateful machines sound: a sampled
  /// thread's machines observe every one of its transitions, and its
  /// complete event stream is in the trace, so each of its reports is
  /// byte-replayable from the retained segments. Unsampled threads cost
  /// one cached predicate lookup per crossing. Sampling forces a
  /// recording mode (InlineCheck is promoted to RecordAndReplay). The
  /// predicate is a flag of the compiled dispatch program, checked once
  /// per crossing in the wrapper prologue.
  uint32_t SampleRate = 1;
  /// Root seed of the per-thread sampling streams.
  uint64_t SampleSeed = 0x6a696e6e5eedULL;
};

/// Checks a machine filter given on a command line: "" when every name in
/// \p Names is some machine's spec name, else a message naming the first
/// unknown one and listing the valid names. (EnabledMachines itself checks
/// nothing: a name that matches no machine selects none.)
std::string checkMachineNames(const std::vector<std::string> &Names);

class JinnAgent : public jvmti::Agent {
public:
  JinnAgent();
  explicit JinnAgent(JinnOptions Options);
  ~JinnAgent() override;

  const char *name() const override { return "jinn"; }
  void onLoad(JavaVM *Vm, jvmti::JvmtiEnv &Jvmti) override;

  /// The machines that were actually synthesized (after filtering).
  const std::vector<spec::MachineBase *> &activeMachines() const {
    return Active;
  }

  JinnReporter &reporter() { return *Reporter; }
  MachineSet &machines() { return *Machines; }
  const synth::SynthesisStats &stats() const { return Stats; }
  synth::Synthesizer &synthesizer() { return *Synth; }

  TraceMode mode() const { return Options.Mode; }
  /// The recorder, when mode() records (nullptr under InlineCheck).
  trace::TraceRecorder *recorder() { return Recorder.get(); }

  /// Whether the agent has published its compiled dispatch program (its
  /// machine checks and, when recording, the recorder's slots) — true once
  /// onLoad returns. Later installs republish; nothing ever demotes.
  bool fusedInstalled() const { return Published; }

  uint32_t sampleRate() const { return Options.SampleRate; }
  /// The pure per-thread sampling decision: a seeded SplitMix64 stream
  /// keyed on the thread name (stable across runs regardless of attach
  /// order; falls back to the id for unnamed threads) draws 1-in-N.
  /// Deterministic, so harnesses can re-derive which requests were
  /// checked.
  bool sampledThread(uint32_t Id, const std::string &Name) const;

private:
  JinnOptions Options;
  std::unique_ptr<JinnReporter> Reporter;
  std::unique_ptr<MachineSet> Machines;
  std::unique_ptr<synth::Synthesizer> Synth;
  std::unique_ptr<trace::TraceRecorder> Recorder;
  std::vector<spec::MachineBase *> Active;
  synth::SynthesisStats Stats;
  bool Published = false;
};

} // namespace jinn::agent

#endif // JINN_JINN_JINNAGENT_H
