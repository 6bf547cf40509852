//===- perfbench/Attribution.cpp - Per-layer attribution (traced run) ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers. Layers are separated by
/// differential worlds that the end-to-end configurations do not run:
///
///   jni_dense batches, per op class, in bare, interpose-only, xcheck,
///   record-only, fused-all and one fused world per registry machine
///   (via JinnEnabledMachines), plus a "fused floor" world with no
///   machine, timed round-robin so drift cancels in the per-round
///   differences. Differences against the fused floor give each machine's
///   and each class's cost per JNI call; the full machine x class matrix
///   is printed.
///
///   a short table3 pairing for -Xcheck:jni, sampled soak slices for the
///   recorder, sink, monitor, trace file and replay, an inline soak slice
///   for memory growth, and the Python/C classes production vs PyChecker.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Dense.h"
#include "Pyc.h"
#include "Soak.h"
#include "Worlds.h"

#include "jvmti/Interpose.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>

using namespace jinn;
using namespace jinn::scenarios;

namespace perfbench {

namespace {

/// Batches per timed (world, class) sample in the dense matrix.
constexpr size_t MatrixBatches = 4;

/// Registry machine names and their source stems (src/jinn/machines).
struct MachineStem {
  const char *Name;
  const char *Stem;
};
const MachineStem Stems[] = {
    {"Access control", "AccessControl"},
    {"Critical-section nesting", "CriticalNesting"},
    {"Critical-section state", "CriticalState"},
    {"Entity-specific typing", "EntityTyping"},
    {"JNIEnv* state", "EnvState"},
    {"Exception state", "ExceptionState"},
    {"Fixed typing", "FixedTyping"},
    {"Global or weak global reference", "GlobalRef"},
    {"Local-frame nesting", "LocalFrameNesting"},
    {"Local reference", "LocalRef"},
    {"Monitor", "Monitor"},
    {"Monitor balance", "MonitorBalance"},
    {"Nullness", "Nullness"},
    {"Pinned or copied string or array", "PinnedResource"},
};

const char *stemOf(const std::string &Name) {
  for (const MachineStem &S : Stems)
    if (Name == S.Name)
      return S.Stem;
  return nullptr;
}

/// Column index of the mixed batch in the per-class sample table.
constexpr int MixColumn = NumDenseClasses;

struct DenseWorld {
  std::string Label;
  std::unique_ptr<ScenarioWorld> World;
  /// Samples[class or MixColumn][round]: ns per JNI call.
  std::vector<std::vector<double>> Samples;
  std::vector<double> EmptyNs; ///< ns per empty-native invocation
};

DenseWorld makeDenseWorld(std::string Label, const WorldConfig &Config) {
  DenseWorld W;
  W.Label = std::move(Label);
  W.World = buildWorld(Config);
  prepareDenseWorld(*W.World);
  W.Samples.resize(NumDenseClasses + 1);
  return W;
}

/// Median over rounds of (A - B), element-wise.
double medianDiff(const std::vector<double> &A, const std::vector<double> &B) {
  std::vector<double> D;
  for (size_t I = 0; I < std::min(A.size(), B.size()); ++I)
    D.push_back(A[I] - B[I]);
  return median(D);
}

void denseMatrix(const RunOptions &Opts, double Seconds, WorkloadResult &Out) {
  // World construction cost of the synthesizer: a Jinn world minus a bare
  // one, paired build by build.
  std::vector<double> LoadMs;
  for (int Rep = 0; Rep < 5; ++Rep) {
    WorldConfig Bare, Full;
    Full.Checker = CheckerKind::Jinn;
    std::unique_ptr<ScenarioWorld> WBare, WFull;
    double TBare = timeIt([&] { WBare = buildWorld(Bare); });
    double TFull = timeIt([&] { WFull = buildWorld(Full); });
    LoadMs.push_back((TFull - TBare) * 1e3);
  }
  Out.layer("synth.load_ms", median(LoadMs), "ms");

  std::vector<DenseWorld> Worlds;
  auto config = [](CheckerKind Checker) {
    WorldConfig C;
    C.Checker = Checker;
    return C;
  };
  Worlds.push_back(makeDenseWorld("bare", config(CheckerKind::None)));
  Worlds.push_back(
      makeDenseWorld("interpose", config(CheckerKind::InterposeOnly)));
  Worlds.push_back(makeDenseWorld("xcheck", config(CheckerKind::Xcheck)));
  WorldConfig Record = config(CheckerKind::Jinn);
  Record.JinnMode = agent::TraceMode::RecordOnly;
  Record.JinnRecorder.StreamChunks = true;
  Record.JinnRecorder.MaxQueuedChunks = 4096;
  Worlds.push_back(makeDenseWorld("record", Record));
  Worlds.push_back(makeDenseWorld("jinn", config(CheckerKind::Jinn)));
  // The fused tier with no machine at all: the floor each machine's cost
  // is measured over. (Interpose-only captures every call's arguments,
  // which the fused tier skips where no check observes them, so machines
  // measured over interpose-only can come out negative.)
  WorldConfig Floor = config(CheckerKind::Jinn);
  Floor.JinnEnabledMachines = {"(no machine)"};
  Worlds.push_back(makeDenseWorld("fused floor", Floor));
  enum { Bare, Interpose, Xcheck, Recorded, All, Fused, FirstSingle };

  const synth::SynthesisStats &Stats = Worlds[All].World->Jinn->stats();
  Out.layer("synth.instrumentation_points",
            static_cast<double>(Stats.instrumentationPoints()), "count");
  Out.layer("synth.transitions",
            static_cast<double>(Stats.StateTransitionCount), "count");
  Out.layer("jvmti.fused_installed",
            Worlds[All].World->Jinn->fusedInstalled() ? 1 : 0, "count");

  // One fused world per machine of the registry.
  std::vector<std::string> Machines;
  for (const spec::MachineBase *M : Worlds[All].World->Jinn->activeMachines())
    Machines.push_back(M->spec().Name);
  for (const std::string &Name : Machines) {
    WorldConfig Single = config(CheckerKind::Jinn);
    Single.JinnEnabledMachines = {Name};
    Worlds.push_back(makeDenseWorld(Name, Single));
  }
  for (const MachineStem &S : Stems)
    Out.Check.check(std::find(Machines.begin(), Machines.end(), S.Name) !=
                        Machines.end(),
                    0,
                    formatString("attribution: machine '%s' not in the "
                                 "registry",
                                 S.Name));

  SplitMix64 Rng(Opts.Seed ^ 0x6d6174726978ULL);
  std::vector<int32_t> Seeds(MatrixBatches);
  drawSeeds(Rng, Seeds);
  for (DenseWorld &W : Worlds)
    runDenseBatches(*W.World, Seeds);

  const jvm::HeapStats &Heap = Worlds[Bare].World->Vm.heap().stats();
  uint64_t AllocBefore = Heap.TotalAllocated.load();
  uint64_t BareOps = 0, JinnOps = 0;
  std::vector<double> GcMs;
  Budget Loop(Opts, Seconds, 5);
  uint64_t Round = 0;
  for (; Loop.more(Round); ++Round) {
    drawSeeds(Rng, Seeds);
    size_t Rotate = Rng.next() % Worlds.size();
    uint64_t Reference[NumDenseClasses + 1] = {};
    for (size_t K = 0; K < Worlds.size(); ++K) {
      size_t Index = (K + Rotate) % Worlds.size();
      DenseWorld &W = Worlds[Index];
      for (int C = -1; C < NumDenseClasses; ++C) {
        DenseRun Run;
        double T;
        {
          Span S("jvm.invoke_batch");
          T = timeIt([&] { Run = runDenseBatches(*W.World, Seeds, C); });
        }
        int Column = C < 0 ? MixColumn : C;
        W.Samples[Column].push_back(T * 1e9 /
                                    static_cast<double>(Run.JniCalls));
        // Every world must compute the same thing.
        if (K == 0)
          Reference[Column] = Run.Checksum;
        Out.Check.check(Run.Checksum == Reference[Column], Run.Ops,
                        "attribution: dense checksum differs under " +
                            W.Label);
        if (Index == Bare)
          BareOps += Run.Ops;
        if (Index == All)
          JinnOps += Run.Ops;
      }
      constexpr uint64_t Empties = 512;
      double T = timeIt([&] { runEmptyNatives(*W.World, Empties); });
      W.EmptyNs.push_back(T * 1e9 / Empties);
    }
    for (DenseWorld &W : Worlds) {
      double Ms = timeIt([&] { W.World->Vm.gc(); }) * 1e3;
      if (&W == &Worlds[Bare])
        GcMs.push_back(Ms);
    }
    Worlds[Recorded].World->Jinn->recorder()->drainSealed();
  }
  Out.layer("jvm.gc_ms", median(GcMs), "ms");
  Out.layer("jvm.alloc_per_op",
            static_cast<double>(Heap.TotalAllocated.load() - AllocBefore) /
                static_cast<double>(BareOps),
            "count");

  const auto &B = Worlds[Bare].Samples;
  const auto &I = Worlds[Interpose].Samples;
  const auto &F = Worlds[Fused].Samples;
  const auto &J = Worlds[All].Samples;
  for (int C = 0; C < NumDenseClasses; ++C) {
    Out.layer(std::string("jni.") + denseClassName(C) + ".ns", median(B[C]),
              "ns");
    Out.layer(std::string("jinn.") + denseClassName(C) + ".ns",
              medianDiff(J[C], F[C]), "ns");
  }
  Out.layer("jvmti.interpose_ns", medianDiff(I[MixColumn], B[MixColumn]),
            "ns");
  Out.layer("jvmti.fused_floor_ns", medianDiff(F[MixColumn], B[MixColumn]),
            "ns");
  Out.layer("checkjni.ns",
            medianDiff(Worlds[Xcheck].Samples[MixColumn], I[MixColumn]), "ns");
  Out.layer("trace.record_ns",
            medianDiff(Worlds[Recorded].Samples[MixColumn], I[MixColumn]),
            "ns");
  Out.layer("jvm.transition_ns", median(Worlds[Bare].EmptyNs), "ns");
  Out.layer("jvmti.native_wrap_ns",
            medianDiff(Worlds[All].EmptyNs, Worlds[Bare].EmptyNs), "ns");

  // The machine x class matrix: single-machine world minus the fused
  // floor.
  std::printf("jni_dense machine x class cost matrix (ns per JNI call over "
              "the fused floor, median of %llu rounds; fused floor %s):\n",
              static_cast<unsigned long long>(Round),
              Worlds[Fused].World->Jinn->fusedInstalled() ? "installed"
                                                          : "REFUSED");
  std::printf("  %-34s", "machine");
  for (int C = 0; C <= NumDenseClasses; ++C)
    std::printf(" %12s", denseClassName(C < NumDenseClasses ? C : -1));
  std::printf("\n");
  auto printRow = [&](const char *Label,
                      const std::vector<std::vector<double>> &Row,
                      const std::vector<std::vector<double>> &Base) {
    std::printf("  %-34s", Label);
    for (int C = 0; C <= NumDenseClasses; ++C)
      std::printf(" %12.1f", medianDiff(Row[C], Base[C]));
    std::printf("\n");
  };
  double SumSingles = 0;
  for (size_t M = FirstSingle; M < Worlds.size(); ++M) {
    const DenseWorld &W = Worlds[M];
    printRow(W.Label.c_str(), W.Samples, F);
    double Mix = medianDiff(W.Samples[MixColumn], F[MixColumn]);
    SumSingles += Mix;
    if (const char *Stem = stemOf(W.Label))
      Out.layer(std::string("jinn.") + Stem + ".ns", Mix, "ns");
  }
  printRow("all machines", J, F);
  printRow("(fused floor over bare)", F, B);
  printRow("(interpose-only over bare)", I, B);
  Out.layer("jinn.shared_ns",
            medianDiff(J[MixColumn], F[MixColumn]) - SumSingles, "ns");

  // Shut down: dense state released so the leak checks stay quiet; VM
  // death publishes the per-machine lock-acquire counters.
  uint64_t Demotions = 0, Reports = 0;
  for (size_t Index = 0; Index < Worlds.size(); ++Index) {
    DenseWorld &W = Worlds[Index];
    releaseDenseWorld(*W.World);
    W.World->shutdown();
    if (W.World->Jinn)
      Demotions += jvmti::dispatcherFor(W.World->Rt).demotionCount();
    Reports += quietnessViolations(*W.World);
  }
  Out.Check.check(Reports == 0, 0,
                  formatString("attribution: %llu reports/incidents in the "
                               "dense worlds",
                               static_cast<unsigned long long>(Reports)));
  Out.layer("jvmti.demotions", static_cast<double>(Demotions), "count");
  uint64_t Locks = 0;
  for (const auto &[Name, Value] : Worlds[All].World->Vm.diags().counters())
    if (Name.rfind("jinn.lock_acquires.", 0) == 0)
      Locks += Value;
  Out.layer("jinn.lock_acquires",
            static_cast<double>(Locks) / static_cast<double>(JinnOps),
            "count/op");
}

void soakLayers(const RunOptions &Opts, double Seconds, WorkloadResult &Out) {
  // Inline slice: memory growth and JNI calls per request.
  SoakSlice Inline = runSoakSlice(SoakConfig::Inline,
                                  soakOptions(Opts, 3000, 0), Opts, Out.Check);
  const double Requests = static_cast<double>(Inline.Stats.Requests);
  double Growth = static_cast<double>(Inline.Stats.PeakRssBytes) -
                  static_cast<double>(Inline.RssBeforeBytes);
  Out.layer("soak.rss_kb_per_request", Growth / 1024.0 / Requests, "KB");
  Out.layer("soak.peak_rss_mb",
            static_cast<double>(Inline.Stats.PeakRssBytes) / (1024.0 * 1024.0),
            "MB");
  Out.layer("soak.jni_calls_per_request",
            static_cast<double>(Inline.Stats.JniCalls) / Requests, "count");

  // Sampled slices: recorder, sink, monitor, trace file and replay.
  std::vector<double> Ticks, FinishMs, Rps, RetainedMb, EventsPerReq,
      BytesPerEvent, WriteMbs, ReadMbs, ReplayNs;
  uint64_t Drops = 0, SinkDrops = 0;
  Budget Loop(Opts, Seconds, 2);
  for (uint64_t Round = 0; Loop.more(Round); ++Round) {
    SoakSlice S = runSoakSlice(SoakConfig::Sampled,
                               soakOptions(Opts, 4000, Round + 1), Opts,
                               Out.Check);
    Ticks.insert(Ticks.end(), S.TickMs.begin(), S.TickMs.end());
    FinishMs.push_back(S.FinishMs);
    Rps.push_back(static_cast<double>(S.Stats.Requests) / S.Seconds);
    RetainedMb.push_back(static_cast<double>(S.SinkRetainedBytes) / 1e6);
    const double Events = static_cast<double>(S.TraceEvents);
    EventsPerReq.push_back(Events / static_cast<double>(
                                        std::max<uint64_t>(1, S.RecordedThreads)));
    BytesPerEvent.push_back(static_cast<double>(S.FileBytes) / Events);
    WriteMbs.push_back(static_cast<double>(S.FileBytes) / 1e6 /
                       S.WriteSeconds);
    ReadMbs.push_back(static_cast<double>(S.FileBytes) / 1e6 / S.ReadSeconds);
    ReplayNs.push_back(S.ReplaySeconds * 1e9 /
                       static_cast<double>(S.ReplayedEvents));
    Drops += S.RecorderDrops;
    SinkDrops += S.SinkDroppedEvents;
  }
  Out.layer("soak.sampled_requests_per_s", median(Rps), "req/s");
  Out.layer("trace.events_per_request", median(EventsPerReq), "count");
  Out.layer("trace.bytes_per_event", median(BytesPerEvent), "B");
  Out.layer("trace.dropped_events", static_cast<double>(Drops), "count");
  Out.layer("trace.write_mb_per_s", median(WriteMbs), "MB/s");
  Out.layer("trace.read_mb_per_s", median(ReadMbs), "MB/s");
  Out.layer("replay.ns_per_event", median(ReplayNs), "ns");
  Out.layer("monitor.tick_ms.p50", percentile(Ticks, 50), "ms");
  Out.layer("monitor.tick_ms.p99", percentile(Ticks, 99), "ms");
  Out.layer("monitor.finish_ms", median(FinishMs), "ms");
  Out.layer("monitor.sink_retained_mb", median(RetainedMb), "MB");
  Out.layer("monitor.sink_dropped_events", static_cast<double>(SinkDrops),
            "count");
}

void pycLayers(const RunOptions &Opts, double Seconds, WorkloadResult &Out) {
  PyWorld Production(PyMode::Production), Checked(PyMode::Checked);
  SplitMix64 Rng(Opts.Seed ^ 0x7079636c61ULL);
  std::vector<int32_t> Seeds(16);
  std::vector<double> Prod[NumPyClasses], Diff[NumPyClasses];
  Budget Loop(Opts, Seconds, 5);
  for (uint64_t Round = 0; Loop.more(Round); ++Round) {
    drawSeeds(Rng, Seeds);
    for (int C = 0; C < NumPyClasses; ++C) {
      PyRun P, K;
      double TP, TK;
      {
        Span S("pyc.api_batch");
        TP = timeIt([&] { P = runPyBatches(Production, Seeds, C); });
      }
      {
        Span S("pyjinn.api_batch");
        TK = timeIt([&] { K = runPyBatches(Checked, Seeds, C); });
      }
      Out.Check.check(P.Checksum == K.Checksum, K.Ops,
                      std::string("attribution: pyc checksum differs in ") +
                          pyClassName(C));
      const double Calls = static_cast<double>(P.Calls);
      Prod[C].push_back(TP * 1e9 / Calls);
      Diff[C].push_back((TK - TP) * 1e9 / Calls);
    }
  }
  Out.Check.check(Checked.Checker->violations().empty(), 0,
                  "attribution: PyChecker reported on clean traffic");
  for (int C = 0; C < NumPyClasses; ++C) {
    Out.layer(std::string("pyc.") + pyClassName(C) + ".ns", median(Prod[C]),
              "ns");
    Out.layer(std::string("pyjinn.") + pyClassName(C) + ".ns",
              median(Diff[C]), "ns");
  }
}

} // namespace

void runAttribution(const RunOptions &Opts, double Seconds,
                    WorkloadResult &Out) {
  denseMatrix(Opts, Seconds * 0.45, Out);

  WorkloadResult Table3 = runTable3(Opts, Seconds * 0.1);
  Out.layer("checkjni.table3_slowdown",
            median(Table3.EndToEnd["xcheck_slowdown"].Samples), "x");
  Out.Check.merge(Table3.Check);

  soakLayers(Opts, Seconds * 0.3, Out);
  pycLayers(Opts, Seconds * 0.15, Out);
}

} // namespace perfbench
