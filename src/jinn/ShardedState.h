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
///   ChunkDirectory   a lock-free array of atomics indexed by a dense id,
///                    in lazily installed chunks that never move: the
///                    layout of the global-reference live set below and of
///                    the per-thread block table (ThreadShadow.h).
///
///   GlobalSlotTable  the global-reference live set as one atomic word
///                    per VM global slot: a use is one load and compare,
///                    an acquire one store, a release one compare-exchange.
///                    No lock on any path.
///
/// Every lock acquisition on a striped shard is counted (relaxed,
/// per-shard to avoid the counter itself becoming a contended line) so
/// bench_mt_scaling can report a contention proxy through the Diagnostics
/// counters.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_SHARDEDSTATE_H
#define JINN_JINN_SHARDEDSTATE_H

#include "jvm/Handle.h"
#include "support/OpenMap.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

namespace jinn::agent {

/// splitmix64 finalizer: spreads handle words (whose low bits carry the
/// RefKind/thread fields) uniformly across shards.
inline uint64_t mixBits(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Lock-striped table: 16 shards, each an independently locked OpenMap.
/// Handles hash to a shard with mixBits, so concurrent threads touching
/// different entities contend only 1/16 of the time. Every access takes
/// the shard's plain mutex: both pin transitions mutate, and only the
/// end-of-run sweeps merely read, so a reader-writer lock would buy no
/// concurrency and cost more per acquisition.
template <typename ValueT> class StripedTable {
public:
  static constexpr unsigned NumShards = 16;

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

  Shard &shardFor(uint64_t Key) {
    return Shards[mixBits(Key) & (NumShards - 1)];
  }
  const Shard &shardFor(uint64_t Key) const {
    return Shards[mixBits(Key) & (NumShards - 1)];
  }

  /// RAII shard guard that bumps the acquire counter.
  static std::unique_lock<std::mutex> lock(const Shard &S) {
    S.Acquires.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(S.Mu);
  }

  /// Total entries across shards (locks each shard in turn). A sweep, not
  /// a crossing: its locks are not counted.
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      N += S.Map.size();
    }
    return N;
  }

  /// Visits every entry, one shard lock at a time. A sweep, not a
  /// crossing: its locks are not counted.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Map.forEach(Visit);
    }
  }

  /// Lock acquisitions by crossings so far (the contention proxy).
  uint64_t lockAcquires() const {
    uint64_t N = 0;
    for (const Shard &S : Shards)
      N += S.Acquires.load(std::memory_order_relaxed);
    return N;
  }

private:
  std::array<Shard, NumShards> Shards;
};

/// A fixed directory of \p NumChunks chunks of 2^\p ChunkBits atomic
/// elements, indexed by a dense id below Capacity. Elements start
/// zero. A chunk is allocated on the first at() into it and installed by
/// compare-exchange — the thread that loses an install race frees its copy
/// and takes the winner's — and never moves, so a reader never observes a
/// relocated element and no path takes a lock.
template <typename T, uint32_t ChunkBits, uint32_t NumChunks>
class ChunkDirectory {
public:
  static constexpr uint32_t Capacity = NumChunks << ChunkBits;

  ChunkDirectory() {
    for (auto &C : Chunks)
      C.store(nullptr, std::memory_order_relaxed);
  }
  ~ChunkDirectory() {
    for (auto &C : Chunks)
      delete[] C.load(std::memory_order_relaxed);
  }
  ChunkDirectory(const ChunkDirectory &) = delete;
  ChunkDirectory &operator=(const ChunkDirectory &) = delete;

  /// The element at \p Index, or nullptr while its chunk is not installed.
  /// Wait-free.
  std::atomic<T> *find(uint32_t Index) const {
    assert(Index < Capacity && "index past the directory");
    std::atomic<T> *Chunk =
        Chunks[Index >> ChunkBits].load(std::memory_order_acquire);
    return Chunk ? &Chunk[Index & ChunkMask] : nullptr;
  }

  /// The element at \p Index, installing its chunk on first use.
  std::atomic<T> &at(uint32_t Index) {
    assert(Index < Capacity && "index past the directory");
    std::atomic<T> *Chunk =
        Chunks[Index >> ChunkBits].load(std::memory_order_acquire);
    if (!Chunk)
      Chunk = install(Index >> ChunkBits);
    return Chunk[Index & ChunkMask];
  }

  /// Visits every element of every installed chunk, in index order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const auto &C : Chunks)
      if (std::atomic<T> *Chunk = C.load(std::memory_order_acquire))
        for (uint32_t I = 0; I <= ChunkMask; ++I)
          Visit(Chunk[I]);
  }

private:
  static constexpr uint32_t ChunkMask = (1u << ChunkBits) - 1;

  [[gnu::cold, gnu::noinline]] std::atomic<T> *install(uint32_t C) {
    auto *Fresh = new std::atomic<T>[1u << ChunkBits];
    for (uint32_t I = 0; I <= ChunkMask; ++I)
      Fresh[I].store(T{}, std::memory_order_relaxed);
    std::atomic<T> *Chunk = nullptr;
    if (Chunks[C].compare_exchange_strong(Chunk, Fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
      return Fresh;
    delete[] Fresh;
    return Chunk;
  }

  std::atomic<std::atomic<T> *> Chunks[NumChunks];
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
/// The words sit in a ChunkDirectory of 1024-slot chunks.
class GlobalSlotTable {
public:
  /// The word live in \p Word's slot (0 when none): a use holds when it
  /// equals \p Word. Wait-free.
  uint64_t wordAt(uint64_t Word) const {
    const std::atomic<uint64_t> *Slot = Words.find(slotOf(Word));
    return Slot ? Slot->load(std::memory_order_acquire) : 0;
  }

  /// Makes \p Word the live word of its slot.
  void publish(uint64_t Word) {
    Words.at(slotOf(Word)).store(Word, std::memory_order_release);
  }

  /// Clears \p Word's slot if it holds \p Word; false when it does not.
  bool retire(uint64_t Word) {
    std::atomic<uint64_t> *Slot = Words.find(slotOf(Word));
    uint64_t Expected = Word;
    return Slot && Slot->compare_exchange_strong(Expected, 0,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire);
  }

  /// Slots holding a live word (the VM-death leak count).
  size_t liveCount() const {
    size_t N = 0;
    Words.forEach([&N](const std::atomic<uint64_t> &Slot) {
      N += Slot.load(std::memory_order_acquire) != 0;
    });
    return N;
  }

private:
  static constexpr uint32_t ChunkBits = 10;

  static uint32_t slotOf(uint64_t Word) {
    namespace D = jvm::handle_detail;
    return static_cast<uint32_t>((Word >> D::SlotShift) & D::SlotMask);
  }

  ChunkDirectory<uint64_t, ChunkBits,
                 static_cast<uint32_t>((jvm::handle_detail::SlotMask + 1) >>
                                       ChunkBits)>
      Words;
};

} // namespace jinn::agent

#endif // JINN_JINN_SHARDEDSTATE_H
