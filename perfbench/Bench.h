//===- perfbench/Bench.h - Shared pieces of the repository benchmark -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// options, the result it hands back (end-to-end samples, per-layer
/// values, oracle tallies), sample statistics, and the span tracer of the
/// traced run. See README.md beside this file for the workloads and the
/// metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PERFBENCH_BENCH_H
#define JINN_PERFBENCH_BENCH_H

#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// When nonzero, run exactly this many rounds instead of a time budget,
  /// so the self-test can compare deterministic counts across runs.
  uint64_t Rounds = 0;
  /// Soak request workers (the self-test pins 1 for determinism).
  unsigned SoakWorkers = 3;
  /// Directory for trace files and the span dump (inside the checkout).
  std::string WorkDir = ".";
};

/// Monotonic seconds since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds taken by one call of \p Fn.
template <typename F> double timeIt(F &&Fn) {
  double Start = nowSeconds();
  Fn();
  return nowSeconds() - Start;
}

/// Stops a measurement loop: after \p Rounds rounds when pinned, else once
/// \p Seconds have elapsed (at least \p MinRounds rounds run either way).
class Budget {
public:
  Budget(const RunOptions &Opts, double Seconds, uint64_t MinRounds = 3)
      : Rounds(Opts.Rounds), MinRounds(MinRounds),
        Deadline(nowSeconds() + Seconds) {}
  bool more(uint64_t Done) const {
    if (Rounds)
      return Done < Rounds;
    return Done < MinRounds || nowSeconds() < Deadline;
  }

private:
  uint64_t Rounds;
  uint64_t MinRounds;
  double Deadline;
};

/// Fires at most once per \p Period seconds, starting with the first call:
/// spreads occasional samples (world builds) over a whole run.
class Every {
public:
  explicit Every(double Period) : Period(Period) {}
  bool due() {
    double Now = nowSeconds();
    if (Now < Next)
      return false;
    Next = Now + Period;
    return true;
  }

private:
  double Period;
  double Next = 0;
};

double median(std::vector<double> Values);

/// The percentile \p P (0..100) of \p Values, nearest-rank.
double percentile(std::vector<double> Values, double P);

/// The highest whole percentile with at least ten samples beyond it, or
/// -1 when there are too few samples for one.
int tailPercentile(size_t Samples);

/// Oracle tallies: operations attempted and how many of them failed a
/// check, plus the first failure messages.
struct Oracle {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  /// Counts \p Ops operations as attempted; when \p Ok is false, counts
  /// them as failed too and keeps \p What.
  void check(bool Ok, uint64_t Ops, const std::string &What);
  /// Adds \p Other's tallies and messages to this one.
  void merge(const Oracle &Other);
};

/// One end-to-end metric: per-slice samples, reported as their median.
struct Series {
  const char *Unit = ""; ///< a string literal
  bool HigherIsBetter = false;
  std::vector<double> Samples;
};

/// What a workload hands back to main().
struct WorkloadResult {
  std::map<std::string, Series> EndToEnd;
  /// Per-layer values (traced run only), with units.
  std::map<std::string, std::pair<double, std::string>> Layer;
  Oracle Check;
  /// Deterministic counts the self-test compares across runs.
  std::map<std::string, uint64_t> Counts;

  void sample(const std::string &Name, const char *Unit, double Value,
              bool HigherIsBetter = false);
  void layer(const std::string &Name, double Value, const char *Unit) {
    Layer[Name] = {Value, Unit};
  }
};

//===----------------------------------------------------------------------===
// Tracing: spans around every call the benchmark makes into a layer
//===----------------------------------------------------------------------===

/// One finished span. Times are nanoseconds since the tracer started.
struct SpanRecord {
  const char *Name; ///< "<layer>.<function>"
  uint32_t Id;
  uint32_t Parent; ///< 0 for a root span
  uint32_t Workload;
  uint64_t StartNs;
  uint64_t EndNs;
};

/// Process-wide span store. Off unless enable() was called; a disabled
/// Span costs one relaxed load. Span times count from the first enable().
class Tracer {
public:
  static void enable(uint32_t WorkloadId);
  static void disable();
  static bool enabled();
  /// Every span recorded so far (call once worker threads have joined).
  static std::vector<SpanRecord> spans();
  /// Self time per span name: duration minus the time its children cover.
  static std::map<std::string, std::pair<uint64_t, uint64_t>>
  selfTimes(); ///< name -> (self ns, calls)
  /// Writes one JSON object per span to \p Path. Returns false on error.
  static bool write(const std::string &Path);
};

/// RAII span. Nesting on one thread sets the parent.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint32_t Id = 0;
  uint32_t Parent = 0;
  uint64_t StartNs = 0;
};

//===----------------------------------------------------------------------===
// Paired slices
//===----------------------------------------------------------------------===

/// Fills \p Seeds with fresh non-negative 31-bit batch seeds.
void drawSeeds(jinn::SplitMix64 &Rng, std::vector<int32_t> &Seeds);

/// What one configuration's slice computed. Every configuration must
/// compute exactly what the reference configuration computed.
struct SliceOutput {
  uint64_t Ops = 0;   ///< counted by ops_per_s and as attempted
  uint64_t Calls = 0; ///< a second count that must match too
  uint64_t Checksum = 0;
  bool operator==(const SliceOutput &) const = default;
};

/// A workload that builds its configurations once and times them in
/// alternating slices over the same inputs, so host drift cancels in the
/// per-slice ratios. Configuration 0 is the unchecked reference.
struct PairedSlices {
  const char *Workload;
  std::vector<const char *> Configs;
  unsigned Checked;   ///< check_slowdown numerator; ops_per_s
  unsigned Interpose; ///< interpose_slowdown numerator
  int Xcheck = -1;    ///< xcheck_slowdown numerator, when there is one
  /// Paired slices per round, in a seeded order; a round's ratio samples
  /// are geomeans over them.
  size_t Items = 1;
  /// Builds one more set of the configurations and returns the seconds
  /// the build took (setup_s); dropping the set is not timed. Builds are
  /// sampled throughout the run, so they see the host the slices see.
  std::function<double()> Setup;
  /// Draws a round's inputs.
  std::function<void(jinn::SplitMix64 &)> NextRound =
      [](jinn::SplitMix64 &) {};
  /// Runs configuration \p Config's slice of item \p Item.
  std::function<SliceOutput(unsigned Config, size_t Item)> RunSlice;
  /// Untimed work after each round (collection, extra output checks).
  std::function<void(uint64_t Round)> AfterRound = [](uint64_t) {};
};

/// Runs \p P for \p Seconds (or Opts.Rounds rounds) after one untimed
/// warm-up round, checks every slice against the reference, and samples
/// setup_s, check_slowdown, interpose_slowdown, xcheck_slowdown (when
/// there is an Xcheck configuration) and ops_per_s into \p Result.
void runPairedSlices(const PairedSlices &P, const RunOptions &Opts,
                     double Seconds, WorkloadResult &Result);

//===----------------------------------------------------------------------===
// Workloads
//===----------------------------------------------------------------------===

WorkloadResult runTable3(const RunOptions &Opts, double Seconds);
WorkloadResult runJniDense(const RunOptions &Opts, double Seconds);
WorkloadResult runSoak(const RunOptions &Opts, double Seconds);
WorkloadResult runPyc(const RunOptions &Opts, double Seconds);

/// The traced run's differential attribution: every per-layer metric,
/// plus the jni_dense machine x op-class cost matrix printed to stdout.
void runAttribution(const RunOptions &Opts, double Seconds,
                    WorkloadResult &Out);

} // namespace perfbench

#endif // JINN_PERFBENCH_BENCH_H
