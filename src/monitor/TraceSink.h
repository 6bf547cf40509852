//===- monitor/TraceSink.h - Bounded-memory trace destinations -----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pluggable destinations for streamed trace segments (production
/// monitoring mode). The recorder's drainSealed() produces epoch-ordered
/// segments; a TraceSink retains a bounded window of them — newest first
/// out, oldest dropped and counted — and can hand back the merged retained
/// trace, which is what a sampled report is replayed from.
///
/// Two implementations:
///
///  - RingSink keeps the last N segments in memory (bounded by segment
///    count and total bytes) — the default for tests and short soaks.
///  - RotatingFileSink spools segments into numbered .jinntrace files in a
///    directory, rotating a new file once the pending bytes exceed
///    RotateBytes and unlinking the oldest past MaxSegments (or older than
///    MaxAgeMs) — the "flight recorder" shape a production deployment
///    would use.
///
/// Both are thread-safe: the monitor thread appends while harness threads
/// read stats() or retained().
///
//===----------------------------------------------------------------------===//

#ifndef JINN_MONITOR_TRACESINK_H
#define JINN_MONITOR_TRACESINK_H

#include "trace/TraceEvent.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace jinn::monitor {

/// Counters a sink maintains; all monotonically non-decreasing except the
/// Retained* gauges.
struct SinkStats {
  uint64_t AppendedSegments = 0; ///< segments ever appended
  uint64_t AppendedEvents = 0;   ///< events ever appended
  uint64_t RetainedSegments = 0; ///< segments currently retained
  uint64_t RetainedEvents = 0;   ///< events currently retained
  uint64_t RetainedBytes = 0;    ///< approximate bytes currently retained
  uint64_t DroppedSegments = 0;  ///< segments rotated out of retention
  uint64_t DroppedEvents = 0;    ///< events inside those segments
};

/// A bounded-memory destination for trace segments.
class TraceSink {
public:
  virtual ~TraceSink() = default;

  /// Appends one merged segment (from TraceRecorder::drainSealed or the
  /// final collect). Thread-safe; may drop the oldest retained segment to
  /// stay within bounds.
  virtual void append(trace::Trace Segment) = 0;

  /// The merged view of everything currently retained, re-sorted into one
  /// (TimeNs, ThreadId, Seq) order with fresh epochs — the trace a sampled
  /// report is replayed from. Empty, with lastError() saying why, when
  /// mergeSegments refuses the retained segments.
  virtual trace::Trace retained() = 0;

  virtual SinkStats stats() const = 0;

  /// Last write or merge error, if any ("" when healthy).
  virtual std::string lastError() const = 0;
};

/// Merges \p Segments into \p Out: concatenates events, restores the
/// global (TimeNs, ThreadId, Seq) order, reassigns epochs, rebuilds the
/// thread-name table, and sums header drop counts. Valid because every
/// segment of one recording shares the recorder's cached tick calibration.
/// Refuses (returns false, naming the reason in \p Err) segments whose
/// Version or NativeFrameCapacity differ — they come from different
/// recordings — and a merged trace that is not Trace::wellFormed.
bool mergeSegments(std::vector<trace::Trace> Segments, trace::Trace &Out,
                   std::string *Err = nullptr);

/// In-memory sink: a deque of the most recent segments.
class RingSink : public TraceSink {
public:
  struct Options {
    size_t MaxSegments = 64;        ///< retained segment count bound
    size_t MaxBytes = 64ull << 20;  ///< retained byte bound (approximate)
  };

  RingSink() : RingSink(Options()) {}
  explicit RingSink(Options Opts);

  void append(trace::Trace Segment) override;
  trace::Trace retained() override;
  SinkStats stats() const override;
  std::string lastError() const override;

private:
  void pruneLocked();

  mutable std::mutex Mu;
  Options Opts;
  std::deque<trace::Trace> Segments;
  SinkStats Stats;
  std::string MergeError;
};

/// On-disk sink: numbered segment files in a directory, rotated by size
/// and pruned by count and age. Appended segments accumulate in a pending
/// in-memory buffer until RotateBytes worth of events arrive, then the
/// buffer is merged and written as seg-<n>.jinntrace.
class RotatingFileSink : public TraceSink {
public:
  struct Options {
    std::string Directory;         ///< created if missing
    size_t RotateBytes = 4u << 20; ///< pending bytes before a file rotates
    size_t MaxSegments = 8;        ///< segment files kept
    uint64_t MaxAgeMs = 0;         ///< prune files older than this; 0 = never
  };

  explicit RotatingFileSink(Options Opts);

  void append(trace::Trace Segment) override;
  trace::Trace retained() override;
  SinkStats stats() const override;

  /// Forces the pending buffer into a segment file (e.g. at shutdown so
  /// retained() covers the whole run from disk).
  void rotate();

  /// Paths of the currently retained segment files, oldest first.
  std::vector<std::string> segmentFiles() const;

  std::string lastError() const override;

private:
  struct SegmentFile {
    std::string Path;
    uint64_t Events = 0;
    uint64_t Bytes = 0;
    std::chrono::steady_clock::time_point Born;
  };

  void rotateLocked();
  void pruneLocked();

  mutable std::mutex Mu;
  Options Opts;
  std::vector<trace::Trace> Pending;
  size_t PendingBytes = 0;
  uint64_t PendingEvents = 0;
  std::vector<SegmentFile> Files; ///< oldest first
  uint64_t NextSegment = 0;
  SinkStats Stats;
  std::string WriteError;
};

} // namespace jinn::monitor

#endif // JINN_MONITOR_TRACESINK_H
