//===- trace/TraceFile.cpp - Compact binary trace file format ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>

using namespace jinn;
using namespace jinn::trace;

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events are written to disk as raw records");

namespace {

constexpr char FileMagic[8] = {'J', 'I', 'N', 'N', 'T', 'R', 'C', '1'};
constexpr uint32_t FileVersion = 1;

struct FileHeader {
  char Magic[8];
  uint32_t Version;
  uint32_t EventSize; ///< sizeof(TraceEvent) at write time
  uint32_t NativeFrameCapacity;
  uint32_t ThreadCount;
  uint64_t EventCount;
  uint64_t DroppedEvents;
};

struct ThreadEntry {
  uint32_t Id;
  char Name[32];
};

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

struct FileCloser {
  void operator()(std::FILE *File) const {
    if (File)
      std::fclose(File);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

bool jinn::trace::writeTraceFile(const Trace &T, const std::string &Path,
                                 std::string *Err) {
  FilePtr File(std::fopen(Path.c_str(), "wb"));
  if (!File)
    return fail(Err, "cannot open " + Path + " for writing");

  FileHeader Header = {};
  std::memcpy(Header.Magic, FileMagic, sizeof(FileMagic));
  Header.Version = FileVersion;
  Header.EventSize = static_cast<uint32_t>(sizeof(TraceEvent));
  Header.NativeFrameCapacity = T.Head.NativeFrameCapacity;
  Header.ThreadCount = static_cast<uint32_t>(T.ThreadNames.size());
  Header.EventCount = T.Events.size();
  Header.DroppedEvents = T.Head.DroppedEvents;
  if (std::fwrite(&Header, sizeof(Header), 1, File.get()) != 1)
    return fail(Err, "short write on header");

  for (const auto &[Id, Name] : T.ThreadNames) {
    ThreadEntry Entry = {};
    Entry.Id = Id;
    std::snprintf(Entry.Name, sizeof(Entry.Name), "%s", Name.c_str());
    if (std::fwrite(&Entry, sizeof(Entry), 1, File.get()) != 1)
      return fail(Err, "short write on thread table");
  }

  if (!T.Events.empty() &&
      std::fwrite(T.Events.data(), sizeof(TraceEvent), T.Events.size(),
                  File.get()) != T.Events.size())
    return fail(Err, "short write on events");
  return true;
}

bool jinn::trace::readTraceFile(Trace &Out, const std::string &Path,
                                std::string *Err) {
  FilePtr File(std::fopen(Path.c_str(), "rb"));
  if (!File)
    return fail(Err, "cannot open " + Path);

  FileHeader Header = {};
  if (std::fread(&Header, sizeof(Header), 1, File.get()) != 1)
    return fail(Err, "truncated header in " + Path);
  if (std::memcmp(Header.Magic, FileMagic, sizeof(FileMagic)) != 0)
    return fail(Err, Path + " is not a Jinn trace (bad magic)");
  if (Header.Version != FileVersion)
    return fail(Err, "unsupported trace version in " + Path);
  if (Header.EventSize != sizeof(TraceEvent))
    return fail(Err, "trace record layout mismatch in " + Path +
                         " (written by a different build)");

  Out = Trace();
  Out.Head.Version = Header.Version;
  Out.Head.NativeFrameCapacity = Header.NativeFrameCapacity;
  Out.Head.DroppedEvents = Header.DroppedEvents;

  for (uint32_t I = 0; I < Header.ThreadCount; ++I) {
    ThreadEntry Entry = {};
    if (std::fread(&Entry, sizeof(Entry), 1, File.get()) != 1)
      return fail(Err, "truncated thread table in " + Path);
    Entry.Name[sizeof(Entry.Name) - 1] = '\0';
    Out.ThreadNames[Entry.Id] = Entry.Name;
  }

  // The header is foreign input: size the event array from what the file
  // can actually hold, not from the count it claims.
  long Here = std::ftell(File.get());
  if (Here < 0 || std::fseek(File.get(), 0, SEEK_END) != 0)
    return fail(Err, "cannot size " + Path);
  long FileEnd = std::ftell(File.get());
  if (FileEnd < Here || std::fseek(File.get(), Here, SEEK_SET) != 0)
    return fail(Err, "cannot size " + Path);
  uint64_t Left = static_cast<uint64_t>(FileEnd - Here);
  if (Header.EventCount > Left / sizeof(TraceEvent))
    return fail(Err, "truncated event stream in " + Path + " (header claims " +
                         std::to_string(Header.EventCount) + " events, " +
                         std::to_string(Left / sizeof(TraceEvent)) +
                         " fit)");
  Out.Events.resize(Header.EventCount);
  if (Header.EventCount &&
      std::fread(Out.Events.data(), sizeof(TraceEvent), Header.EventCount,
                 File.get()) != Header.EventCount)
    return fail(Err, "truncated event stream in " + Path);
  return true;
}
