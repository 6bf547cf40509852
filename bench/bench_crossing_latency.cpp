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
/// across four boundary treatments, all on the one compiled dispatch
/// table: bare (no dispatcher), interpose-only (a no-op observer slot on
/// every function), record-only (the trace recorder's slots) and Jinn
/// inline checking (the machine slots). The headline results are
/// ns/crossing per (op, treatment) and the intra-run ratios of Jinn and of
/// recording over interpose-only.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "scenarios/Scenarios.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
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

struct OpClass {
  const char *Name;
  uint64_t CrossingsPerIter;
  void (*Run)(JNIEnv *, uint64_t Iters);
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

const OpClass Ops[] = {
    {"get_version", 1, runGetVersion},
    {"string_utf_length", 1, runStringUtfLength},
    {"new_delete_local", 2, runNewDeleteLocal},
    {"frame_push_pop", 2, runFramePushPop},
};

WorldConfig tierConfig(const TierSpec &Tier) {
  WorldConfig Config;
  Config.Checker = Tier.Checker;
  Config.JinnMode = Tier.Mode;
  // Bounded recording: the ring cost per event is what we measure, so the
  // oldest chunks may drop instead of holding every event in memory.
  Config.JinnRecorder.MaxChunksPerThread = 8;
  return Config;
}

/// Median-of-5 ns/crossing for one (tier, op) pair, measured inside a
/// native frame so every call crosses the interposed boundary exactly the
/// way client code does.
double measureNs(ScenarioWorld &World, const OpClass &Op, uint64_t Iters) {
  double Seconds = 0;
  World.runAsNative("BenchCrossing", [&](JNIEnv *Env) {
    Op.Run(Env, Iters / 4 + 1); // warm-up: ID caches, TLS, allocator
    Seconds = bench::medianSeconds([&] { Op.Run(Env, Iters); }, 5);
  });
  return Seconds * 1e9 / static_cast<double>(Iters * Op.CrossingsPerIter);
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

  // Geomean per tier over the op classes, plus the headline ratios.
  double Gm[sizeof(Tiers) / sizeof(Tiers[0])];
  for (size_t T = 0; T < sizeof(Tiers) / sizeof(Tiers[0]); ++T) {
    double Acc = 0;
    for (size_t O = 0; O < sizeof(Ops) / sizeof(Ops[0]); ++O)
      Acc += std::log(Ns[O][T]);
    Gm[T] = std::exp(Acc / (sizeof(Ops) / sizeof(Ops[0])));
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

  Json.writeFile();
  return 0;
}
