//===- trace/TraceEvent.h - Boundary-crossing trace events ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event model of the boundary-crossing trace subsystem. One TraceEvent
/// is recorded per language transition (JNI call/return, native-method
/// entry/exit/bind) plus VM lifecycle points (thread attach/detach, GC
/// epochs, VM death). Events are flat, fixed-size PODs so a trace
/// serializes as a raw record stream; every volatile VM observation a
/// synthesized machine could make at the crossing is frozen into the
/// embedded BoundarySnapshot, which is what makes offline replay reproduce
/// the inline checker's verdicts deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_TRACE_TRACEEVENT_H
#define JINN_TRACE_TRACEEVENT_H

#include "jvmti/Interpose.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace jinn::trace {

/// What kind of boundary crossing (or lifecycle point) an event records.
enum class EventKind : uint8_t {
  JniPre,       ///< C about to call a JNI function (C -> Java)
  JniPost,      ///< JNI function returned (Java -> C); absent if suppressed
  NativeEntry,  ///< Java called into a bound native method (Java -> C)
  NativeExit,   ///< native method returned to Java (C -> Java)
  NativeBind,   ///< a native method implementation was bound
  ThreadAttach, ///< a thread became known to the VM
  ThreadDetach, ///< a thread ended
  GcEpoch,      ///< a garbage collection finished
  VmDeath,      ///< VM shutdown (machines emit leak reports here)
};

inline constexpr size_t NumEventKinds = 9;

/// Readable name of \p Kind ("jni-pre", "native-entry", ...).
const char *eventKindName(EventKind Kind);

/// One classified JNI argument, as captured by the interposed wrapper.
struct ArgRecord {
  uint8_t Cls = 0;      ///< jni::ArgClass
  uint64_t Word = 0;    ///< handle bits, ID bits, or scalar payload
  uint64_t PtrWord = 0; ///< pointer operand identity (cstring, jvalue*, ...)
};

/// One recorded boundary crossing. Fixed-size POD: the trace file writes
/// these records verbatim.
///
/// Layout contract: every scalar comes before the payload arrays, and each
/// array's valid extent is governed by a count/flag in that scalar prefix
/// (NumArgs, NumNativeArgs, HasReturn, Kind for Name). The recorder's hot
/// path clears only the prefix — slack bytes in the arrays of a recorded
/// event are indeterminate and must never be read past their counts.
struct TraceEvent {
  static constexpr size_t MaxArgs = jni::MaxJniParams;
  static constexpr size_t MaxNativeArgs = 8; ///< native formals kept per event
  static constexpr size_t MaxNameLen = 31;   ///< thread name at attach

  uint64_t Epoch = 0;  ///< global order across threads (merge key)
  uint64_t Seq = 0;    ///< per-recording-thread sequence number
  uint64_t TimeNs = 0; ///< nanoseconds since the recorder started
  uint32_t ThreadId = 0; ///< VM thread the crossing belongs to
  EventKind Kind = EventKind::JniPre;
  uint8_t NumArgs = 0;
  uint16_t Fn = 0xFFFF; ///< jni::FnId for JniPre/JniPost events

  bool HasReturn = false; ///< JniPost/NativeExit carries a return value
  bool RetIsRef = false;
  bool Aborted = false; ///< NativeExit: entry actions suppressed the body
  bool NativeArgsTruncated = false; ///< more formals than MaxNativeArgs
  uint8_t NumNativeArgs = 0;
  uint64_t RetWord = 0;
  uint64_t RetPtrWord = 0;

  uint64_t MethodWord = 0; ///< MethodInfo identity at native sites / binds
  uint64_t SelfWord = 0;   ///< receiver handle word at native sites

  ArgRecord Args[MaxArgs];          ///< classified JNI arguments
  jvalue NativeArgs[MaxNativeArgs]; ///< native-method actuals
  jvalue NativeRet;                 ///< NativeExit return value

  char Name[MaxNameLen + 1]; ///< thread name (ThreadAttach only)

  jvmti::BoundarySnapshot Snap; ///< frozen VM observations
};

/// A complete recording: header facts, epoch-ordered events, and the
/// thread-name table rebuilt from attach events.
struct Trace {
  struct Header {
    uint32_t Version = 1;
    uint32_t NativeFrameCapacity = 16; ///< VM option at record time
    uint64_t DroppedEvents = 0; ///< lost to bounded recording, oldest first
  };

  Header Head;
  std::vector<TraceEvent> Events; ///< in Epoch order
  std::unordered_map<uint32_t, std::string> ThreadNames;

  /// Name of thread \p Id from the attach table ("thread-<id>" fallback).
  std::string threadName(uint32_t Id) const;

  /// Repopulates ThreadNames from ThreadAttach events.
  void rebuildThreadNames();

  /// Checks every field replay and lifting index by: the event's and the
  /// snapshot's thread ids, which must be below jvm::MaxThreadIds (replay
  /// indexes the thread-block table by them), JNI function ids of
  /// JniPre/JniPost events and their arguments, which must match the
  /// function's parameters in count and class, and the snapshot's peek
  /// and call-argument counts. A trace read from a file is foreign input; a
  /// consumer calls this first and refuses the trace (with \p Err naming
  /// the first bad event) instead of reading out of range.
  bool wellFormed(std::string *Err = nullptr) const;
};

} // namespace jinn::trace

#endif // JINN_TRACE_TRACEEVENT_H
