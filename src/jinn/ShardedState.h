//===- jinn/ShardedState.h - Concurrency-scalable shadow-state layouts ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared-state layouts for the shadow tables that are genuinely global
/// (DESIGN.md §10); the per-thread encodings live in ThreadShadow.h.
///
///   StripedTable     lock-striped shards for the tables keyed by entity
///                    identity whose entries any thread may touch (pinned
///                    resources). Each shard pairs a plain mutex with a
///                    small open-addressed map
///                    (OpenMap, support/OpenMap.h) whose entries live in
///                    one flat slab — inserts and erases never malloc
///                    except on the amortized slab doubling, so shard
///                    critical sections stay allocation-free and short.
///
///   GlobalSlotTable  the global-reference live set as one atomic word
///                    per VM global slot: a use is one load and compare,
///                    an acquire one store, a release one compare-exchange.
///                    No lock on any path.
///
/// Every lock acquisition on a striped shard is counted (relaxed,
/// per-shard to avoid the counter itself becoming a contended line) so
/// bench_mt_scaling can report a contention proxy per machine through the
/// Diagnostics counters.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_SHARDEDSTATE_H
#define JINN_JINN_SHARDEDSTATE_H

#include "jvm/Handle.h"
#include "support/OpenMap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

namespace jinn::agent {

/// Default shard count of the striped pin table (JinnOptions::ShardCount).
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
/// different entities contend only 1/N of the time. Every access takes
/// the shard's plain mutex: both pin transitions mutate, and only the
/// end-of-run sweeps merely read, so a reader-writer lock would buy no
/// concurrency and cost more per acquisition.
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
    mutable std::mutex Mu;
    OpenMap<ValueT> Map;
    /// Lock acquires on this shard, a contention proxy. Relaxed and
    /// shard-local: the counter shares the shard's cache neighborhood, not
    /// a global line.
    mutable std::atomic<uint64_t> Acquires{0};
    // Pad each shard out of its neighbors' cache lines.
    char Pad[64];
  };

  Shard &shardFor(uint64_t Key) { return Shards[mixBits(Key) & Mask]; }
  const Shard &shardFor(uint64_t Key) const {
    return Shards[mixBits(Key) & Mask];
  }

  /// RAII shard guard that bumps the acquire counter.
  static std::unique_lock<std::mutex> lock(const Shard &S) {
    S.Acquires.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(S.Mu);
  }

  unsigned shardCount() const { return Count; }

  /// Total entries across shards (locks each shard in turn).
  size_t size() const {
    size_t N = 0;
    for (unsigned I = 0; I < Count; ++I) {
      auto Lock = lock(Shards[I]);
      N += Shards[I].Map.size();
    }
    return N;
  }

  /// Visits every entry, one shard lock at a time.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (unsigned I = 0; I < Count; ++I) {
      auto Lock = lock(Shards[I]);
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

/// The global-reference machine's live set, laid out like the VM's global
/// table: one atomic word per 20-bit global slot of the handle encoding,
/// holding the handle word the shadow considers live there (0: none). A
/// slot is live under at most one handle at a time — the VM reissues it
/// only after a delete, under a new generation — so a word set keyed by
/// slot needs no hashing, no probing and no lock:
///
///   - a use is one acquire load compared with the whole word, so a
///     handle of an older generation (or of the other kind) never matches;
///   - an acquire or a pre-agent adoption is one release store;
///   - a release is one compare-exchange from the word to 0, which fails
///     for a word the slot does not hold.
///
/// Chunks of 1024 slots are allocated on first store, installed by
/// compare-exchange, and never move, so a reader never observes a
/// relocated slot and no path takes a lock.
class GlobalSlotTable {
public:
  static constexpr uint32_t ChunkBits = 10;
  static constexpr uint32_t NumChunks =
      static_cast<uint32_t>((jvm::handle_detail::SlotMask + 1) >> ChunkBits);

  GlobalSlotTable() {
    for (auto &C : Chunks)
      C.store(nullptr, std::memory_order_relaxed);
  }
  ~GlobalSlotTable() {
    for (auto &C : Chunks)
      delete[] C.load(std::memory_order_relaxed);
  }
  GlobalSlotTable(const GlobalSlotTable &) = delete;
  GlobalSlotTable &operator=(const GlobalSlotTable &) = delete;

  /// The word live in \p Word's slot (0 when none): a use holds when it
  /// equals \p Word. Wait-free.
  uint64_t wordAt(uint64_t Word) const {
    uint32_t Slot = slotOf(Word);
    const std::atomic<uint64_t> *Chunk =
        Chunks[Slot >> ChunkBits].load(std::memory_order_acquire);
    return Chunk ? Chunk[Slot & ChunkMask].load(std::memory_order_acquire)
                 : 0;
  }

  /// Makes \p Word the live word of its slot.
  void publish(uint64_t Word) {
    uint32_t Slot = slotOf(Word);
    chunk(Slot >> ChunkBits)[Slot & ChunkMask].store(
        Word, std::memory_order_release);
  }

  /// Clears \p Word's slot if it holds \p Word; false when it does not.
  bool retire(uint64_t Word) {
    uint32_t Slot = slotOf(Word);
    std::atomic<uint64_t> *Chunk =
        Chunks[Slot >> ChunkBits].load(std::memory_order_acquire);
    uint64_t Expected = Word;
    return Chunk && Chunk[Slot & ChunkMask].compare_exchange_strong(
                        Expected, 0, std::memory_order_acq_rel,
                        std::memory_order_acquire);
  }

  /// Slots holding a live word (the VM-death leak count).
  size_t liveCount() const {
    size_t N = 0;
    for (const auto &C : Chunks)
      if (const std::atomic<uint64_t> *Chunk =
              C.load(std::memory_order_acquire))
        for (uint32_t I = 0; I <= ChunkMask; ++I)
          N += Chunk[I].load(std::memory_order_acquire) != 0;
    return N;
  }

private:
  static constexpr uint32_t ChunkMask = (1u << ChunkBits) - 1;

  static uint32_t slotOf(uint64_t Word) {
    namespace D = jvm::handle_detail;
    return static_cast<uint32_t>((Word >> D::SlotShift) & D::SlotMask);
  }

  /// Chunk \p C, installed by compare-exchange on first use: the thread
  /// that loses an install race frees its copy and takes the winner's.
  std::atomic<uint64_t> *chunk(uint32_t C) {
    std::atomic<uint64_t> *Chunk = Chunks[C].load(std::memory_order_acquire);
    if (Chunk)
      return Chunk;
    auto *Fresh = new std::atomic<uint64_t>[1u << ChunkBits];
    for (uint32_t I = 0; I <= ChunkMask; ++I)
      Fresh[I].store(0, std::memory_order_relaxed);
    if (Chunks[C].compare_exchange_strong(Chunk, Fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
      return Fresh;
    delete[] Fresh;
    return Chunk;
  }

  std::atomic<std::atomic<uint64_t> *> Chunks[NumChunks];
};

} // namespace jinn::agent

#endif // JINN_JINN_SHARDEDSTATE_H
