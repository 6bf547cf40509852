//===- monitor/TraceSink.cpp - Bounded-memory trace destinations ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "monitor/TraceSink.h"

#include "support/Format.h"
#include "trace/TraceFile.h"

#include <algorithm>
#include <filesystem>

using namespace jinn;
using namespace jinn::monitor;

namespace {

uint64_t traceBytes(const trace::Trace &T) {
  return static_cast<uint64_t>(T.Events.size()) * sizeof(trace::TraceEvent);
}

} // namespace

bool monitor::mergeSegments(std::vector<trace::Trace> Segments,
                            trace::Trace &Out, std::string *Err) {
  Out = trace::Trace();
  size_t Total = 0;
  for (size_t I = 0; I < Segments.size(); ++I) {
    const trace::Trace::Header &Head = Segments[I].Head;
    const trace::Trace::Header &First = Segments[0].Head;
    if (Head.Version != First.Version ||
        Head.NativeFrameCapacity != First.NativeFrameCapacity) {
      if (Err)
        *Err = formatString(
            "segment %zu has header (version %u, native frame capacity %u), "
            "segment 0 has (version %u, native frame capacity %u)",
            I, Head.Version, Head.NativeFrameCapacity, First.Version,
            First.NativeFrameCapacity);
      return false;
    }
    Total += Segments[I].Events.size();
  }
  if (!Segments.empty()) {
    Out.Head.Version = Segments[0].Head.Version;
    Out.Head.NativeFrameCapacity = Segments[0].Head.NativeFrameCapacity;
  }
  Out.Events.reserve(Total);
  for (trace::Trace &Seg : Segments) {
    Out.Head.DroppedEvents += Seg.Head.DroppedEvents;
    Out.Events.insert(Out.Events.end(),
                      std::make_move_iterator(Seg.Events.begin()),
                      std::make_move_iterator(Seg.Events.end()));
  }
  // Same order collect() establishes: real time, thread, per-thread
  // sequence. All segments share one tick calibration, so concatenating
  // and re-sorting cannot invert any per-thread order.
  std::sort(Out.Events.begin(), Out.Events.end(),
            [](const trace::TraceEvent &A, const trace::TraceEvent &B) {
              if (A.TimeNs != B.TimeNs)
                return A.TimeNs < B.TimeNs;
              if (A.ThreadId != B.ThreadId)
                return A.ThreadId < B.ThreadId;
              return A.Seq < B.Seq;
            });
  for (size_t I = 0; I < Out.Events.size(); ++I)
    Out.Events[I].Epoch = I;
  Out.rebuildThreadNames();
  if (!Out.wellFormed(Err)) {
    Out = trace::Trace();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// RingSink
//===----------------------------------------------------------------------===//

RingSink::RingSink(Options Opts) : Opts(Opts) {}

void RingSink::append(trace::Trace Segment) {
  if (Segment.Events.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Stats.AppendedSegments += 1;
  Stats.AppendedEvents += Segment.Events.size();
  Stats.RetainedSegments += 1;
  Stats.RetainedEvents += Segment.Events.size();
  Stats.RetainedBytes += traceBytes(Segment);
  Segments.push_back(std::move(Segment));
  pruneLocked();
}

void RingSink::pruneLocked() {
  while (!Segments.empty() &&
         ((Opts.MaxSegments && Segments.size() > Opts.MaxSegments) ||
          (Opts.MaxBytes && Stats.RetainedBytes > Opts.MaxBytes &&
           Segments.size() > 1))) {
    const trace::Trace &Oldest = Segments.front();
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += Oldest.Events.size();
    Stats.RetainedSegments -= 1;
    Stats.RetainedEvents -= Oldest.Events.size();
    Stats.RetainedBytes -= traceBytes(Oldest);
    Segments.pop_front();
  }
}

trace::Trace RingSink::retained() {
  std::vector<trace::Trace> Copy;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Copy.assign(Segments.begin(), Segments.end());
  }
  trace::Trace Merged;
  std::string Err;
  bool Ok = mergeSegments(std::move(Copy), Merged, &Err);
  std::lock_guard<std::mutex> Lock(Mu);
  MergeError = Ok ? "" : "merge: " + Err;
  return Merged;
}

SinkStats RingSink::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

std::string RingSink::lastError() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return MergeError;
}

//===----------------------------------------------------------------------===//
// RotatingFileSink
//===----------------------------------------------------------------------===//

RotatingFileSink::RotatingFileSink(Options Opts) : Opts(std::move(Opts)) {
  std::error_code Ec;
  std::filesystem::create_directories(this->Opts.Directory, Ec);
  if (Ec)
    WriteError = "create_directories: " + Ec.message();
}

void RotatingFileSink::append(trace::Trace Segment) {
  if (Segment.Events.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Stats.AppendedSegments += 1;
  Stats.AppendedEvents += Segment.Events.size();
  PendingBytes += traceBytes(Segment);
  PendingEvents += Segment.Events.size();
  Pending.push_back(std::move(Segment));
  if (Opts.RotateBytes && PendingBytes >= Opts.RotateBytes)
    rotateLocked();
  pruneLocked();
}

void RotatingFileSink::rotate() {
  std::lock_guard<std::mutex> Lock(Mu);
  rotateLocked();
  pruneLocked();
}

void RotatingFileSink::rotateLocked() {
  if (Pending.empty())
    return;
  trace::Trace Merged;
  std::string Err;
  bool Ok = mergeSegments(std::move(Pending), Merged, &Err);
  Pending.clear();
  uint64_t Events = PendingEvents;
  PendingBytes = 0;
  PendingEvents = 0;
  if (!Ok) {
    // Segments of different recordings: refused, counted as dropped.
    WriteError = "merge: " + Err;
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += Events;
    return;
  }
  SegmentFile File;
  File.Path = Opts.Directory + "/" +
              formatString("seg-%06llu.jinntrace",
                           static_cast<unsigned long long>(NextSegment++));
  File.Events = Merged.Events.size();
  File.Bytes = traceBytes(Merged);
  File.Born = std::chrono::steady_clock::now();
  if (!trace::writeTraceFile(Merged, File.Path, &Err)) {
    // The events in this rotation are lost; count them as dropped rather
    // than pretending the file exists.
    WriteError = Err;
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += File.Events;
    return;
  }
  Files.push_back(std::move(File));
}

void RotatingFileSink::pruneLocked() {
  auto DropFront = [this] {
    const SegmentFile &Oldest = Files.front();
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += Oldest.Events;
    std::error_code Ec;
    std::filesystem::remove(Oldest.Path, Ec);
    Files.erase(Files.begin());
  };
  while (Opts.MaxSegments && Files.size() > Opts.MaxSegments)
    DropFront();
  if (Opts.MaxAgeMs) {
    auto Cutoff = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(Opts.MaxAgeMs);
    while (!Files.empty() && Files.front().Born < Cutoff)
      DropFront();
  }
  uint64_t RetainedEvents = PendingEvents;
  uint64_t RetainedBytes = PendingBytes;
  for (const SegmentFile &File : Files) {
    RetainedEvents += File.Events;
    RetainedBytes += File.Bytes;
  }
  Stats.RetainedSegments = Files.size() + (Pending.empty() ? 0 : 1);
  Stats.RetainedEvents = RetainedEvents;
  Stats.RetainedBytes = RetainedBytes;
}

trace::Trace RotatingFileSink::retained() {
  std::vector<std::string> Paths;
  std::vector<trace::Trace> Parts;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const SegmentFile &File : Files)
      Paths.push_back(File.Path);
    // Pending (not yet rotated) segments participate too, so retained()
    // is complete at any instant, not just after rotate().
    Parts.assign(Pending.begin(), Pending.end());
  }
  for (const std::string &Path : Paths) {
    trace::Trace Part;
    std::string Err;
    if (trace::readTraceFile(Part, Path, &Err))
      Parts.push_back(std::move(Part));
  }
  trace::Trace Merged;
  std::string Err;
  bool Ok = mergeSegments(std::move(Parts), Merged, &Err);
  if (!Ok) {
    std::lock_guard<std::mutex> Lock(Mu);
    WriteError = "merge: " + Err;
  }
  return Merged;
}

SinkStats RotatingFileSink::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

std::vector<std::string> RotatingFileSink::segmentFiles() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::string> Paths;
  for (const SegmentFile &File : Files)
    Paths.push_back(File.Path);
  return Paths;
}

std::string RotatingFileSink::lastError() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return WriteError;
}
