//===- jinn/ShardedState.h - Concurrency-scalable shadow-state layouts ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared-state layouts that let the fourteen machines scale with cores
/// instead of serializing every boundary crossing on one mutex per
/// machine (DESIGN.md §10):
///
///   StripedTable   lock-striped shards for the genuinely-global shadow
///                  tables (global refs, monitors, pinned resources,
///                  entity IDs). Each shard pairs a shared_mutex with a
///                  small open-addressed map (OpenMap, support/OpenMap.h)
///                  whose entries live in one flat slab — inserts and
///                  erases never malloc except on the amortized slab
///                  doubling, so shard critical sections stay
///                  allocation-free and short.
///
///   AtomicWordArray  a grow-only, chunked array of atomic words indexed
///                  by thread id, for the read-dominated per-thread
///                  encodings (expected JNIEnv, critical depth). Readers
///                  are wait-free (two relaxed-ish atomic loads); writers
///                  take a mutex only to install a missing chunk. Chunks
///                  never move, so no reader ever observes a relocated
///                  slot.
///
/// Every lock acquisition on a striped shard is counted (relaxed,
/// per-shard to avoid the counter itself becoming a contended line) so
/// bench_mt_scaling can report a contention proxy per machine through the
/// Diagnostics counters.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_SHARDEDSTATE_H
#define JINN_JINN_SHARDEDSTATE_H

#include "support/OpenMap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>

namespace jinn::agent {

/// Default shard count for the striped machines (JinnOptions::ShardCount).
inline constexpr unsigned DefaultShardCount = 16;

/// splitmix64 finalizer: spreads handle words (whose low bits carry the
/// RefKind/thread fields) uniformly across shards.
inline uint64_t mixBits(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Lock-striped table: N shards, each an independently locked OpenMap.
/// Handles hash to a shard with mixBits, so concurrent threads touching
/// different entities contend only 1/N of the time. Reads that dominate a
/// machine's hot path (GlobalRef use checks, Monitor held lookups) take
/// the shard lock shared; mutations take it exclusive.
template <typename ValueT> class StripedTable {
public:
  explicit StripedTable(unsigned ShardCount = DefaultShardCount) {
    unsigned N = 1;
    while (N < ShardCount && N < 256)
      N <<= 1; // clamp to a power of two in [1, 256]
    Count = N;
    Mask = N - 1;
    Shards = std::make_unique<Shard[]>(N);
  }

  struct Shard {
    mutable std::shared_mutex Mu;
    OpenMap<ValueT> Map;
    /// Lock acquires on this shard (shared and exclusive), a contention
    /// proxy. Relaxed and shard-local: the counter shares the shard's
    /// cache neighborhood, not a global line.
    mutable std::atomic<uint64_t> Acquires{0};
    // Pad each shard out of its neighbors' cache lines.
    char Pad[64];
  };

  Shard &shardFor(uint64_t Key) { return Shards[mixBits(Key) & Mask]; }
  const Shard &shardFor(uint64_t Key) const {
    return Shards[mixBits(Key) & Mask];
  }

  /// RAII shard guards that bump the acquire counter.
  static std::unique_lock<std::shared_mutex> exclusive(Shard &S) {
    S.Acquires.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::shared_mutex>(S.Mu);
  }
  static std::shared_lock<std::shared_mutex> shared(const Shard &S) {
    S.Acquires.fetch_add(1, std::memory_order_relaxed);
    return std::shared_lock<std::shared_mutex>(S.Mu);
  }

  unsigned shardCount() const { return Count; }

  /// Total entries across shards (locks each shard in turn).
  size_t size() const {
    size_t N = 0;
    for (unsigned I = 0; I < Count; ++I) {
      auto Lock = shared(Shards[I]);
      N += Shards[I].Map.size();
    }
    return N;
  }

  /// Visits every entry, one shard lock at a time.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (unsigned I = 0; I < Count; ++I) {
      auto Lock = shared(Shards[I]);
      Shards[I].Map.forEach(Visit);
    }
  }

  /// Total lock acquisitions so far (the contention proxy).
  uint64_t lockAcquires() const {
    uint64_t N = 0;
    for (unsigned I = 0; I < Count; ++I)
      N += Shards[I].Acquires.load(std::memory_order_relaxed);
    return N;
  }

private:
  std::unique_ptr<Shard[]> Shards;
  unsigned Count = 1;
  uint64_t Mask = 0;
};

/// Grow-only chunked array of atomic 64-bit words indexed by thread id.
/// The wait-free read path is what makes the read-dominated machines
/// (JNIEnv* state, critical depth) scale: every JNI call reads its
/// thread's slot without any lock or RMW. Slots are single-writer in
/// practice (a thread only updates its own entry), so relaxed ordering
/// suffices for the checks built on top.
class AtomicWordArray {
public:
  static constexpr uint32_t ChunkBits = 10; // 1024 slots per chunk
  static constexpr uint32_t NumChunks = 64; // 65536 thread ids

  AtomicWordArray() {
    for (auto &C : Chunks)
      C.store(nullptr, std::memory_order_relaxed);
  }
  ~AtomicWordArray() {
    for (auto &C : Chunks)
      delete[] C.load(std::memory_order_relaxed);
  }
  AtomicWordArray(const AtomicWordArray &) = delete;
  AtomicWordArray &operator=(const AtomicWordArray &) = delete;

  /// Wait-free: 0 when the slot was never written.
  uint64_t load(uint32_t Index) const {
    const std::atomic<uint64_t> *Chunk =
        Chunks[chunkOf(Index)].load(std::memory_order_acquire);
    if (!Chunk)
      return 0;
    return Chunk[slotOf(Index)].load(std::memory_order_relaxed);
  }

  void store(uint32_t Index, uint64_t Value) {
    slot(Index).store(Value, std::memory_order_relaxed);
  }

  /// Signed add on the slot (used for the critical-section depth tally).
  int64_t fetchAdd(uint32_t Index, int64_t Delta) {
    return static_cast<int64_t>(
        slot(Index).fetch_add(static_cast<uint64_t>(Delta),
                              std::memory_order_relaxed));
  }

private:
  static uint32_t chunkOf(uint32_t Index) {
    // Ids beyond the addressable range alias the last chunk's last slot;
    // thread ids are 12-bit in the handle encoding, so this is a
    // never-taken guard rather than a real sharing concern.
    uint32_t C = Index >> ChunkBits;
    return C < NumChunks ? C : NumChunks - 1;
  }
  static uint32_t slotOf(uint32_t Index) {
    return (Index >> ChunkBits) < NumChunks ? (Index & ((1u << ChunkBits) - 1))
                                            : (1u << ChunkBits) - 1;
  }

  std::atomic<uint64_t> &slot(uint32_t Index) {
    uint32_t C = chunkOf(Index);
    std::atomic<uint64_t> *Chunk = Chunks[C].load(std::memory_order_acquire);
    if (!Chunk) {
      std::lock_guard<std::mutex> Lock(GrowMu);
      Chunk = Chunks[C].load(std::memory_order_relaxed);
      if (!Chunk) {
        Chunk = new std::atomic<uint64_t>[1u << ChunkBits];
        for (uint32_t I = 0; I < (1u << ChunkBits); ++I)
          Chunk[I].store(0, std::memory_order_relaxed);
        Chunks[C].store(Chunk, std::memory_order_release);
      }
    }
    return Chunk[slotOf(Index)];
  }

  std::atomic<std::atomic<uint64_t> *> Chunks[NumChunks];
  std::mutex GrowMu;
};

} // namespace jinn::agent

#endif // JINN_JINN_SHARDEDSTATE_H
