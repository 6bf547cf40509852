//===- bench/bench_crossing_latency.cpp - Per-crossing dispatch cost -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the per-crossing cost of each boundary treatment on four
/// representative JNI call classes:
///
///   get_version       check-free query (pre-only machine coverage)
///   string_utf_length reference use (nullness, typing, local-ref use)
///   new_delete_local  allocation + free (local-ref lifecycle)
///   frame_push_pop    pushdown counters (frame nesting, capacity)
///
/// plus two JNI classes kept out of the four-class geomean and the
/// headline ratios, each with its own paired ratio:
///
///   global_use        GetArrayLength on a global int[] (the global-
///                     reference use check); ratio/global/jinn_vs_interpose
///   global_use_mt     three attached threads each running GetArrayLength
///                     and MonitorEnter/MonitorExit on one shared global
///                     int[] (contended global-handle resolution);
///                     ratio/global_mt/jinn_vs_interpose
///
/// and on two native-method calls made from Java, one native entry and
/// exit per iteration (the local-reference frame push and pop):
///
///   native_empty      a static ()V native
///   native_ref_args   an instance native taking two references and
///                     returning one
///
/// across four boundary treatments, all on the one compiled dispatch
/// table: bare (no dispatcher), interpose-only (a no-op observer slot on
/// every function), record-only (the trace recorder's slots) and Jinn
/// inline checking (the machine slots). The headline results are
/// ns/crossing per (op, treatment) and the intra-run ratios of Jinn and of
/// recording over interpose-only: ratio/* over the four JNI call classes,
/// and ratio/native/* over the two native-method calls from paired
/// samples. ratio/interpose_vs_bare isolates the interposition layer and
/// ratio/jinn_vs_bare prices the whole checker: interpose-only and Jinn
/// over bare on the four JNI call classes, paired. Interpose-only has no
/// agent, so its native calls run unwrapped.
///
/// The per-machine mode then builds one Jinn world per machine of the
/// registry (JinnEnabledMachines = {that machine}) and a floor world with
/// no machine, and emits ratio/machine/<Stem>/<op>: that machine's
/// ns/crossing over the floor's, per op class.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "jinn/Machines.h"
#include "scenarios/Scenarios.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace jinn;
using namespace jinn::scenarios;

namespace {

struct TierSpec {
  const char *Name;
  CheckerKind Checker;
  agent::TraceMode Mode;
};

enum { Bare, Interpose, Record, Jinn };
const TierSpec Tiers[] = {
    {"bare", CheckerKind::None, agent::TraceMode::InlineCheck},
    {"interpose", CheckerKind::InterposeOnly, agent::TraceMode::InlineCheck},
    {"record", CheckerKind::Jinn, agent::TraceMode::RecordOnly},
    {"jinn", CheckerKind::Jinn, agent::TraceMode::InlineCheck},
};

/// One op class. A JNI call class runs C-side (Run, inside a native
/// frame); a native-method call runs Java-side (Invoke, from the main
/// thread). Exactly one of the two is set. Headline classes make up the
/// per-tier geomean and the ratio/* entries. A class with a RatioKey stands
/// outside the headline and emits its own paired
/// ratio/<RatioKey>/jinn_vs_interpose; with Invoke set, it drives its own
/// attached threads rather than native methods.
struct OpClass {
  const char *Name;
  uint64_t CrossingsPerIter;
  void (*Run)(JNIEnv *, uint64_t Iters);
  void (*Invoke)(ScenarioWorld &, uint64_t Iters);
  bool Headline = false;
  const char *RatioKey = nullptr;
};

void runGetVersion(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->GetVersion(Env);
}

void runStringUtfLength(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  jstring S = Fns->NewStringUTF(Env, "crossing");
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->GetStringUTFLength(Env, S);
  Fns->DeleteLocalRef(Env, S);
}

void runNewDeleteLocal(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I) {
    jstring S = Fns->NewStringUTF(Env, "crossing");
    Fns->DeleteLocalRef(Env, S);
  }
}

void runFramePushPop(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I) {
    Fns->PushLocalFrame(Env, 8);
    Fns->PopLocalFrame(Env, nullptr);
  }
}

void runGlobalUse(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  jintArray Local = Fns->NewIntArray(Env, 4);
  auto Global = static_cast<jintArray>(Fns->NewGlobalRef(Env, Local));
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->GetArrayLength(Env, Global);
  Fns->DeleteGlobalRef(Env, Global);
  Fns->DeleteLocalRef(Env, Local);
}

/// Threads of global_use_mt: as many as the monitor soak's request workers.
constexpr unsigned SharedGlobalThreads = 3;

/// global_use_mt: SharedGlobalThreads attached threads share one global
/// int[]; each runs its share of \p Iters iterations of GetArrayLength,
/// MonitorEnter and MonitorExit on it. The first thread creates and deletes
/// the global; the others start once it is published. A contended
/// MonitorEnter returns JNI_ERR in this VM (it cannot block), so the exit
/// runs only after a successful enter.
void runGlobalUseMt(ScenarioWorld &World, uint64_t Iters) {
  JavaVM *Jvm = World.Rt.javaVm();
  std::atomic<jobject> Shared{nullptr};
  std::atomic<unsigned> Done{0};
  auto Worker = [&](bool Owner) {
    JNIEnv *Env = nullptr;
    if (Jvm->functions->AttachCurrentThread(Jvm, &Env, nullptr) != JNI_OK)
      std::abort();
    const JNINativeInterface_ *Fns = Env->functions;
    if (Owner) {
      jintArray Local = Fns->NewIntArray(Env, 4);
      Shared.store(Fns->NewGlobalRef(Env, Local), std::memory_order_release);
      Fns->DeleteLocalRef(Env, Local);
    }
    jobject Global;
    while (!(Global = Shared.load(std::memory_order_acquire)))
      std::this_thread::yield();
    for (uint64_t I = 0; I < Iters / SharedGlobalThreads; ++I) {
      Fns->GetArrayLength(Env, static_cast<jarray>(Global));
      if (Fns->MonitorEnter(Env, Global) == JNI_OK)
        Fns->MonitorExit(Env, Global);
    }
    Done.fetch_add(1, std::memory_order_acq_rel);
    if (Owner) {
      while (Done.load(std::memory_order_acquire) < SharedGlobalThreads)
        std::this_thread::yield();
      Fns->DeleteGlobalRef(Env, Global);
    }
    Jvm->functions->DetachCurrentThread(Jvm);
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < SharedGlobalThreads; ++T)
    Threads.emplace_back(Worker, T == 0);
  for (std::thread &Th : Threads)
    Th.join();
}

constexpr const char *NativesClass = "BenchNatives";
constexpr const char *RefArgsDesc =
    "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;";

/// The class whose natives the Java-side ops call, defined on first use.
jvm::Klass *nativesClass(ScenarioWorld &World) {
  if (jvm::Klass *Kl = World.Vm.findClass(NativesClass))
    return Kl;
  jvm::ClassDef Def;
  Def.Name = NativesClass;
  Def.nativeMethod("empty", "()V", /*IsStatic=*/true);
  Def.nativeMethod("refArgs", RefArgsDesc);
  jvm::Klass *Kl = World.Vm.defineClass(Def);
  World.Rt.registerNative(
      Kl, "empty", "()V",
      [](JNIEnv *, jobject, const jvalue *) -> jvalue { return jvalue{}; });
  World.Rt.registerNative(Kl, "refArgs", RefArgsDesc,
                          [](JNIEnv *, jobject, const jvalue *Args) {
                            jvalue R;
                            R.l = Args[0].l;
                            return R;
                          });
  return Kl;
}

void runNativeEmpty(ScenarioWorld &World, uint64_t Iters) {
  jvm::MethodInfo *Empty =
      nativesClass(World)->findMethod("empty", "()V", /*WantStatic=*/true);
  jvm::JThread &Main = World.Vm.mainThread();
  const std::vector<jvm::Value> NoArgs;
  for (uint64_t I = 0; I < Iters; ++I)
    World.Vm.invoke(Main, Empty, jvm::Value::makeNull(), NoArgs,
                    /*VirtualDispatch=*/false);
}

void runNativeRefArgs(ScenarioWorld &World, uint64_t Iters) {
  jvm::Vm &Vm = World.Vm;
  jvm::Klass *Kl = nativesClass(World);
  jvm::MethodInfo *RefArgs =
      Kl->findMethod("refArgs", RefArgsDesc, /*WantStatic=*/false);
  // Receiver and arguments, each rooted by a global reference as soon as
  // it exists.
  std::vector<uint64_t> Roots;
  auto rooted = [&](jvm::ObjectId Obj) {
    Roots.push_back(Vm.newGlobalRef(Obj, /*Weak=*/false));
    return jvm::Value::makeRef(Obj);
  };
  const jvm::Value Self = rooted(Vm.newObject(Kl));
  const std::vector<jvm::Value> Args = {rooted(Vm.newString("a")),
                                        rooted(Vm.newString("b"))};
  jvm::JThread &Main = Vm.mainThread();
  for (uint64_t I = 0; I < Iters; ++I)
    Vm.invoke(Main, RefArgs, Self, Args, /*VirtualDispatch=*/false);
  for (uint64_t Root : Roots)
    Vm.deleteGlobalRef(*jvm::decodeHandle(Root));
}

const OpClass Ops[] = {
    {"get_version", 1, runGetVersion, nullptr, true},
    {"string_utf_length", 1, runStringUtfLength, nullptr, true},
    {"new_delete_local", 2, runNewDeleteLocal, nullptr, true},
    {"frame_push_pop", 2, runFramePushPop, nullptr, true},
    {"native_empty", 1, nullptr, runNativeEmpty},
    {"native_ref_args", 1, nullptr, runNativeRefArgs},
    {"global_use", 1, runGlobalUse, nullptr, false, "global"},
    {"global_use_mt", 3, nullptr, runGlobalUseMt, false, "global_mt"},
};

/// Calls \p Body with a runner for \p Op in \p World: a JNI call class
/// runs inside a native frame, so every call crosses the interposed
/// boundary the way client code does; a native-method call runs from the
/// main thread.
template <typename Fn>
void withRunner(ScenarioWorld &World, const OpClass &Op, Fn Body) {
  if (Op.Invoke) {
    Body([&](uint64_t Iters) { Op.Invoke(World, Iters); });
    return;
  }
  World.runAsNative("BenchCrossing", [&](JNIEnv *Env) {
    Body([&](uint64_t Iters) { Op.Run(Env, Iters); });
  });
}

WorldConfig tierConfig(const TierSpec &Tier) {
  WorldConfig Config;
  Config.Checker = Tier.Checker;
  Config.JinnMode = Tier.Mode;
  // Bounded recording: the ring cost per event is what we measure, so the
  // oldest chunks may drop instead of holding every event in memory.
  Config.JinnRecorder.MaxChunksPerThread = 8;
  return Config;
}

/// Median-of-5 ns/crossing for one (world, op) pair.
double measureNs(ScenarioWorld &World, const OpClass &Op, uint64_t Iters) {
  double Seconds = 0;
  withRunner(World, Op, [&](auto Run) {
    Run(Iters / 4 + 1); // warm-up: ID caches, TLS, allocator
    Seconds = bench::medianSeconds([&] { Run(Iters); }, 5);
  });
  return Seconds * 1e9 / static_cast<double>(Iters * Op.CrossingsPerIter);
}

/// The short key a machine's results are emitted under: the stem of its
/// source file (src/jinn/machines/<Stem>.cpp), by spec name.
const char *machineStem(const std::string &SpecName) {
  static const std::pair<const char *, const char *> Stems[] = {
      {"JNIEnv* state", "EnvState"},
      {"Exception state", "ExceptionState"},
      {"Critical-section state", "CriticalState"},
      {"Fixed typing", "FixedTyping"},
      {"Entity-specific typing", "EntityTyping"},
      {"Access control", "AccessControl"},
      {"Nullness", "Nullness"},
      {"Pinned or copied string or array", "PinnedResource"},
      {"Monitor", "Monitor"},
      {"Global or weak global reference", "GlobalRef"},
      {"Local reference", "LocalRef"},
      {"Local-frame nesting", "LocalFrameNesting"},
      {"Monitor balance", "MonitorBalance"},
      {"Critical-section nesting", "CriticalNesting"},
  };
  for (const auto &[Name, Stem] : Stems)
    if (SpecName == Name)
      return Stem;
  std::fprintf(stderr, "bench_crossing_latency: no stem for machine \"%s\"\n",
               SpecName.c_str());
  std::abort();
}

/// \p World's ns/crossing over \p Floor's for one op: the median of 9
/// ratios, each from a floor sample and a world sample taken back to back
/// so host drift lands on both sides of every ratio. Nine, not five: an
/// allocating op's samples occasionally swing 20%, and one machine's share
/// of a crossing is small.
double pairedRatio(ScenarioWorld &World, ScenarioWorld &Floor,
                   const OpClass &Op, uint64_t Iters) {
  auto sample = [&](ScenarioWorld &W) {
    W.Vm.gc();
    double Seconds = 0;
    withRunner(W, Op, [&](auto Run) {
      Seconds = bench::timeSeconds([&] { Run(Iters); });
    });
    return Seconds;
  };
  sample(Floor); // warm-up: ID caches, TLS, allocator
  sample(World);
  std::vector<double> Ratios;
  for (int Rep = 0; Rep < 9; ++Rep) {
    double FloorSeconds = sample(Floor);
    Ratios.push_back(sample(World) / FloorSeconds);
  }
  std::sort(Ratios.begin(), Ratios.end());
  return Ratios[Ratios.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  (void)Argc;
  (void)Argv;
  uint64_t Scale = 2048;
  if (const char *Env = std::getenv("JINN_BENCH_SCALE"))
    Scale = std::strtoull(Env, nullptr, 10);
  if (!Scale)
    Scale = 2048;
  uint64_t Iters = 64ull * 1024 * 1024 / Scale;
  if (Iters < 512)
    Iters = 512;

  bench::JsonResults Json("crossing_latency");
  bench::printHeader("Per-crossing dispatch latency (ns/crossing, "
                     "median of 5; " +
                     std::to_string(Iters) + " iterations per sample)");
  std::printf("%-18s", "op class");
  for (const TierSpec &Tier : Tiers)
    std::printf(" %12s", Tier.Name);
  std::printf("\n");
  bench::printRule();

  // Ns[op][tier]
  double Ns[sizeof(Ops) / sizeof(Ops[0])][sizeof(Tiers) / sizeof(Tiers[0])];
  for (size_t T = 0; T < sizeof(Tiers) / sizeof(Tiers[0]); ++T) {
    ScenarioWorld World(tierConfig(Tiers[T]));
    for (size_t O = 0; O < sizeof(Ops) / sizeof(Ops[0]); ++O)
      Ns[O][T] = measureNs(World, Ops[O], Iters);
    World.shutdown();
  }

  for (size_t O = 0; O < sizeof(Ops) / sizeof(Ops[0]); ++O) {
    std::printf("%-18s", Ops[O].Name);
    for (size_t T = 0; T < sizeof(Tiers) / sizeof(Tiers[0]); ++T) {
      std::printf(" %9.1f ns", Ns[O][T]);
      // Absolute ns entries are informational only: single-tier wall
      // times swing several-fold with host load on small runners, so the
      // regression gate works on the intra-run ratio entries below, where
      // the host-speed factor cancels.
      Json.add(std::string(Ops[O].Name) + "/" + Tiers[T].Name + "/ns",
               Ns[O][T], "ns");
    }
    std::printf("\n");
  }
  bench::printRule();

  // Geomean per tier over the headline JNI call classes, plus the headline
  // ratios. The native-method and global-use rows stand on their own
  // above.
  double Gm[sizeof(Tiers) / sizeof(Tiers[0])];
  for (size_t T = 0; T < sizeof(Tiers) / sizeof(Tiers[0]); ++T) {
    double Acc = 0;
    size_t N = 0;
    for (size_t O = 0; O < sizeof(Ops) / sizeof(Ops[0]); ++O)
      if (Ops[O].Headline) {
        Acc += std::log(Ns[O][T]);
        ++N;
      }
    Gm[T] = std::exp(Acc / static_cast<double>(N));
    Json.add(std::string("geomean/") + Tiers[T].Name + "/ns", Gm[T], "ns");
  }
  std::printf("%-18s", "geomean");
  for (size_t T = 0; T < sizeof(Tiers) / sizeof(Tiers[0]); ++T)
    std::printf(" %9.1f ns", Gm[T]);
  std::printf("\n");

  double JinnVsInterpose = Gm[Jinn] / Gm[Interpose];
  double RecordVsInterpose = Gm[Record] / Gm[Interpose];
  Json.add("ratio/jinn_vs_interpose", JinnVsInterpose, "x");
  Json.add("ratio/record_vs_interpose", RecordVsInterpose, "x");
  std::printf("\njinn/interpose = %.3fx, record/interpose = %.3fx "
              "(lower is better)\n",
              JinnVsInterpose, RecordVsInterpose);

  // The native-call ratios, geomean over the native ops: each op's ratio
  // pairs the tier's samples with interpose-only's back to back (see
  // pairedRatio), since the tier table times its worlds too far apart for
  // a gate.
  constexpr size_t NumOps = sizeof(Ops) / sizeof(Ops[0]);
  const uint64_t MachineIters = Iters * 8;
  {
    ScenarioWorld Floor(tierConfig(Tiers[Interpose]));
    for (size_t T : {Jinn, Record}) {
      ScenarioWorld World(tierConfig(Tiers[T]));
      double Acc = 0;
      size_t N = 0;
      for (const OpClass &Op : Ops)
        if (Op.Invoke && !Op.RatioKey) {
          Acc += std::log(pairedRatio(World, Floor, Op, MachineIters));
          ++N;
        }
      double Ratio = std::exp(Acc / static_cast<double>(N));
      Json.add(std::string("ratio/native/") + Tiers[T].Name +
                   "_vs_interpose",
               Ratio, "x");
      std::printf("native calls: %s/interpose = %.3fx\n", Tiers[T].Name,
                  Ratio);
      World.shutdown();
    }
    // The JNI classes outside the headline (global_use, global_use_mt),
    // paired the same way.
    ScenarioWorld World(tierConfig(Tiers[Jinn]));
    for (const OpClass &Op : Ops)
      if (Op.RatioKey) {
        double Ratio = pairedRatio(World, Floor, Op, MachineIters);
        Json.add(std::string("ratio/") + Op.RatioKey + "/jinn_vs_interpose",
                 Ratio, "x");
        std::printf("%s: jinn/interpose = %.3fx\n", Op.Name, Ratio);
      }
    World.shutdown();
    Floor.shutdown();
  }

  // Interpose-only over bare is the interposition layer alone (wrapper,
  // argument capture, one no-op slot each way); Jinn over bare is the
  // whole checker, so unlike jinn_vs_interpose it falls when either the
  // shared wrapper or the machines get cheaper. Geomean over the headline
  // JNI classes, each op paired as above.
  {
    ScenarioWorld BareWorld(tierConfig(Tiers[Bare]));
    for (size_t T : {Interpose, Jinn}) {
      ScenarioWorld World(tierConfig(Tiers[T]));
      double Acc = 0;
      size_t N = 0;
      for (const OpClass &Op : Ops)
        if (Op.Headline) {
          Acc += std::log(pairedRatio(World, BareWorld, Op, MachineIters));
          ++N;
        }
      double Ratio = std::exp(Acc / static_cast<double>(N));
      Json.add(std::string("ratio/") + Tiers[T].Name + "_vs_bare", Ratio,
               "x");
      std::printf("JNI calls: %s/bare = %.3fx\n", Tiers[T].Name, Ratio);
      World.shutdown();
    }
    BareWorld.shutdown();
  }

  // Per-machine mode: each registry machine alone over the no-machine
  // floor, at 8x the iterations of the tier table. Every machine gets a
  // fresh floor world, so each pair starts from the same VM state.
  auto machineWorld = [](std::vector<std::string> Enabled) {
    WorldConfig Config = tierConfig(Tiers[Jinn]);
    Config.JinnEnabledMachines = std::move(Enabled);
    return std::make_unique<ScenarioWorld>(Config);
  };

  std::printf("\n");
  bench::printHeader("Per-machine cost (ns/crossing of the machine alone "
                     "over the no-machine floor)");
  std::printf("%-18s", "machine");
  for (const OpClass &Op : Ops)
    std::printf(" %17s", Op.Name);
  std::printf("\n");
  bench::printRule();
  agent::MachineSet Registry;
  for (spec::MachineBase *Machine : Registry.all()) {
    const std::string &Name = Machine->spec().Name;
    const char *Stem = machineStem(Name);
    std::unique_ptr<ScenarioWorld> Floor = machineWorld({"(no machine)"});
    std::unique_ptr<ScenarioWorld> World = machineWorld({Name});
    std::printf("%-18s", Stem);
    for (size_t O = 0; O < NumOps; ++O) {
      double Ratio = pairedRatio(*World, *Floor, Ops[O], MachineIters);
      std::printf(" %16.2fx", Ratio);
      Json.add(std::string("ratio/machine/") + Stem + "/" + Ops[O].Name,
               Ratio, "x");
    }
    std::printf("\n");
    World->shutdown();
    Floor->shutdown();
  }

  Json.writeFile();
  return 0;
}
