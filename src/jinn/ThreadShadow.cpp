//===- jinn/ThreadShadow.cpp - One shadow block per checked thread -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/ThreadShadow.h"

using namespace jinn::agent;

namespace {

/// The thread-local fast path: one entry per OS thread, keyed by registry
/// instance and logical thread id. Blocks never move and live as long as
/// their registry, and instance ids are never reused, so an entry left by
/// a destroyed registry never matches a live one.
struct BlockCacheEntry {
  uint64_t Instance = 0;
  uint32_t Tid = 0;
  ThreadShadow *Block = nullptr;
};
thread_local BlockCacheEntry BlockCache;

std::atomic<uint64_t> NextInstanceId{1};

/// LocalRefShadow's default base capacity, for blocks a crossing creates
/// before (or without) a thread start.
constexpr uint32_t DefaultFrameCapacity = 16;

} // namespace

ThreadShadows::ThreadShadows()
    : InstanceId(NextInstanceId.fetch_add(1, std::memory_order_relaxed)) {}

ThreadShadow &ThreadShadows::findOrCreate(uint32_t ThreadId,
                                          uint32_t FrameCapacity) {
  std::lock_guard<std::mutex> Lock(lock());
  return Blocks.try_emplace(ThreadId, FrameCapacity).first->second;
}

ThreadShadow &ThreadShadows::of(uint32_t ThreadId) {
  BlockCacheEntry &Cache = BlockCache;
  if (Cache.Instance == InstanceId && Cache.Tid == ThreadId)
    return *Cache.Block;
  ThreadShadow &Block = findOrCreate(ThreadId, DefaultFrameCapacity);
  Cache = {InstanceId, ThreadId, &Block};
  return Block;
}

ThreadShadow &ThreadShadows::start(const spec::ThreadStartInfo &Info) {
  return findOrCreate(Info.Id, Info.FrameCapacity);
}

const ThreadShadow *ThreadShadows::find(uint32_t ThreadId) const {
  std::lock_guard<std::mutex> Lock(lock());
  auto It = Blocks.find(ThreadId);
  return It != Blocks.end() ? &It->second : nullptr;
}
