//===- perfbench/Bench.cpp - Statistics, oracles and spans ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace perfbench {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Values.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

int tailPercentile(size_t Samples) {
  if (Samples < 11)
    return -1;
  // p such that Samples * (1 - p/100) >= 10.
  return static_cast<int>(std::floor(
      100.0 * static_cast<double>(Samples - 10) /
      static_cast<double>(Samples)));
}

void Oracle::check(bool Ok, uint64_t Ops, const std::string &What) {
  Attempted += Ops;
  if (Ok)
    return;
  Failed += Ops ? Ops : 1;
  if (Messages.size() < 8)
    Messages.push_back(What);
}

void Oracle::merge(const Oracle &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  for (const std::string &M : Other.Messages)
    if (Messages.size() < 8)
      Messages.push_back(M);
}

void WorkloadResult::sample(const std::string &Name, const char *Unit,
                            double Value, bool HigherIsBetter) {
  Series &S = EndToEnd[Name];
  S.Unit = Unit;
  S.HigherIsBetter = HigherIsBetter;
  S.Samples.push_back(Value);
}

//===----------------------------------------------------------------------===
// Paired slices
//===----------------------------------------------------------------------===

void drawSeeds(jinn::SplitMix64 &Rng, std::vector<int32_t> &Seeds) {
  for (int32_t &Seed : Seeds)
    Seed = static_cast<int32_t>(Rng.next() & 0x7fffffff);
}

void runPairedSlices(const PairedSlices &P, const RunOptions &Opts,
                     double Seconds, WorkloadResult &Result) {
  const unsigned NumConfigs = static_cast<unsigned>(P.Configs.size());
  jinn::SplitMix64 Rng(Opts.Seed ^ 0x706169726564ULL);
  // Warm-up outside the timed region (lazy statics, ID caches, allocator,
  // TLABs).
  P.Setup();
  P.NextRound(Rng);
  for (size_t Item = 0; Item < P.Items; ++Item)
    for (unsigned C = 0; C < NumConfigs; ++C)
      P.RunSlice(C, Item);

  std::vector<size_t> Order(P.Items);
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Budget Loop(Opts, Seconds);
  Every SetupSample(0.05);
  uint64_t Round = 0;
  for (; Loop.more(Round); ++Round) {
    if (SetupSample.due())
      Result.sample("setup_s", "s", P.Setup());
    P.NextRound(Rng);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.next() % I]);
    std::vector<double> LogRatio(NumConfigs);
    double CheckedSeconds = 0;
    uint64_t CheckedOps = 0;
    for (size_t Item : Order) {
      std::vector<double> Time(NumConfigs);
      std::vector<SliceOutput> Out(NumConfigs);
      unsigned Rotate = static_cast<unsigned>(Rng.next() % NumConfigs);
      for (unsigned K = 0; K < NumConfigs; ++K) {
        unsigned C = (K + Rotate) % NumConfigs;
        Time[C] = timeIt([&] { Out[C] = P.RunSlice(C, Item); });
      }
      for (unsigned C = 0; C < NumConfigs; ++C) {
        Result.Check.check(
            Out[C] == Out[0], Out[C].Ops,
            jinn::formatString("%s: round %llu item %zu differs under %s",
                               P.Workload,
                               static_cast<unsigned long long>(Round), Item,
                               P.Configs[C]));
        LogRatio[C] += std::log(Time[C] / Time[0]);
      }
      CheckedSeconds += Time[P.Checked];
      CheckedOps += Out[P.Checked].Ops;
      Result.Counts["checksum"] += Out[0].Checksum;
    }
    const double N = static_cast<double>(P.Items);
    Result.sample("check_slowdown", "x", std::exp(LogRatio[P.Checked] / N));
    Result.sample("interpose_slowdown", "x",
                  std::exp(LogRatio[P.Interpose] / N));
    if (P.Xcheck >= 0)
      Result.sample("xcheck_slowdown", "x", std::exp(LogRatio[P.Xcheck] / N));
    Result.sample("ops_per_s", "1/s",
                  static_cast<double>(CheckedOps) / CheckedSeconds,
                  /*HigherIsBetter=*/true);
    Result.Counts["ops"] += CheckedOps;
    P.AfterRound(Round);
  }
  Result.Counts["rounds"] = Round;
}

//===----------------------------------------------------------------------===
// Tracer
//===----------------------------------------------------------------------===

namespace {

std::atomic<bool> TracingOn{false};
std::atomic<uint32_t> NextSpanId{1};
uint32_t CurrentWorkload = 0;
std::chrono::steady_clock::time_point TraceEpoch;
std::mutex SpansMu;
std::vector<SpanRecord> &spanStore() {
  static std::vector<SpanRecord> Store;
  return Store;
}
thread_local uint32_t OpenSpan = 0;

uint64_t sinceEpochNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch)
          .count());
}

} // namespace

void Tracer::enable(uint32_t WorkloadId) {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  TraceEpoch = Epoch;
  CurrentWorkload = WorkloadId;
  TracingOn.store(true, std::memory_order_release);
}

void Tracer::disable() { TracingOn.store(false, std::memory_order_release); }

bool Tracer::enabled() { return TracingOn.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::spans() {
  std::lock_guard<std::mutex> Lock(SpansMu);
  return spanStore();
}

std::map<std::string, std::pair<uint64_t, uint64_t>> Tracer::selfTimes() {
  std::vector<SpanRecord> All = spans();
  std::map<uint32_t, uint64_t> ChildNs;
  for (const SpanRecord &S : All)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, std::pair<uint64_t, uint64_t>> Out;
  for (const SpanRecord &S : All) {
    uint64_t Total = S.EndNs - S.StartNs;
    uint64_t Children = ChildNs.count(S.Id) ? ChildNs[S.Id] : 0;
    auto &Slot = Out[S.Name];
    Slot.first += Total > Children ? Total - Children : 0;
    Slot.second += 1;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  for (const SpanRecord &S : spans())
    std::fprintf(File,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"workload\":%u,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 S.Name, S.Id, S.Parent, S.Workload,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs));
  return std::fclose(File) == 0;
}

Span::Span(const char *Name) : Name(Name) {
  if (!Tracer::enabled())
    return;
  Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  Parent = OpenSpan;
  OpenSpan = Id;
  StartNs = sinceEpochNs();
}

Span::~Span() {
  if (!Id)
    return;
  uint64_t EndNs = sinceEpochNs();
  OpenSpan = Parent;
  std::lock_guard<std::mutex> Lock(SpansMu);
  spanStore().push_back({Name, Id, Parent, CurrentWorkload, StartNs, EndNs});
}

} // namespace perfbench
