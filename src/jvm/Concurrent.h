//===- jvm/Concurrent.h - Lock-free substrate building blocks ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared-memory building blocks for the concurrent substrate VM:
///
///  - ChunkedVector: an append-only, address-stable array whose elements can
///    be indexed lock-free by any thread while a single (externally
///    serialized) writer grows it. Chunks are geometric, so the directory is
///    a couple dozen atomic pointers rather than one per page.
///  - SnapshotMap: an open-addressed hash map with lock-free snapshot reads
///    (RCU-style: growth publishes a rebuilt table and retires the old one
///    until destruction). Writers must be externally serialized. Backs the
///    class/method/field registries, which are append-only by construction.
///  - A process-wide live-instance registry keyed by serial number, so
///    thread-local caches (TLABs, mutator slots) can be returned safely on
///    OS-thread exit even when the owning Heap/Vm died first — or when a new
///    instance was constructed at the same address.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVM_CONCURRENT_H
#define JINN_JVM_CONCURRENT_H

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace jinn::jvm {

/// Append-only chunked array. Element addresses are stable forever and
/// reads by index are lock-free; growth must be serialized by the caller
/// (a lock, or single-writer ownership). Chunk k holds BaseSize<<k
/// elements, so MaxChunks=26 with BaseSize=64 covers ~4.2G entries while
/// the directory stays one cache line of pointers.
template <typename T, unsigned BaseShift = 6, unsigned MaxChunks = 26>
class ChunkedVector {
public:
  static constexpr size_t BaseSize = size_t(1) << BaseShift;

  ChunkedVector() = default;
  ChunkedVector(const ChunkedVector &) = delete;
  ChunkedVector &operator=(const ChunkedVector &) = delete;
  ~ChunkedVector() {
    for (auto &Chunk : Chunks)
      delete[] Chunk.load(std::memory_order_relaxed);
  }

  /// Entries in [0, size()) are safe to index from any thread.
  size_t size() const { return Count.load(std::memory_order_acquire); }

  T &operator[](size_t Index) {
    unsigned K = chunkOf(Index);
    return Chunks[K].load(std::memory_order_acquire)[Index - baseOf(K)];
  }
  const T &operator[](size_t Index) const {
    return (*const_cast<ChunkedVector *>(this))[Index];
  }

  /// Appends \p N default-constructed entries and returns the index of the
  /// first. Writer-side only (external serialization required); the new
  /// entries become visible to readers atomically via the size bump.
  size_t grow(size_t N) {
    size_t First = Count.load(std::memory_order_relaxed);
    size_t NewCount = First + N;
    unsigned LastChunk = NewCount ? chunkOf(NewCount - 1) : 0;
    assert(LastChunk < MaxChunks && "ChunkedVector capacity exhausted");
    for (unsigned K = 0; K <= LastChunk; ++K)
      if (!Chunks[K].load(std::memory_order_relaxed))
        Chunks[K].store(new T[BaseSize << K], std::memory_order_release);
    Count.store(NewCount, std::memory_order_release);
    return First;
  }

private:
  /// Index I lives in chunk floor(log2(I/BaseSize + 1)).
  static unsigned chunkOf(size_t Index) {
    size_t J = (Index >> BaseShift) + 1;
    unsigned K = 0;
    while (J >>= 1)
      ++K;
    return K;
  }
  static size_t baseOf(unsigned K) {
    return BaseSize * ((size_t(1) << K) - 1);
  }

  std::array<std::atomic<T *>, MaxChunks> Chunks = {};
  std::atomic<size_t> Count{0};
};

/// Open-addressed hash map from nonzero uint64 keys to values, with
/// lock-free reads and externally serialized inserts. Probes start at a
/// mixed hash of the key (homeSlot), so structured keys spread. Lookups
/// take a predicate over the value so callers using a *hash* as the key (e.g.
/// name-keyed registries) can reject collisions and keep probing; exact-key
/// callers pass a predicate that always accepts. Entries are never removed;
/// growth rebuilds into a fresh table, publishes it, and retires the old
/// snapshot until destruction so concurrent readers stay valid (RCU-style).
template <typename V> class SnapshotMap {
public:
  explicit SnapshotMap(size_t InitialPow2 = 64) {
    Root.store(makeTable(InitialPow2), std::memory_order_release);
  }
  SnapshotMap(const SnapshotMap &) = delete;
  SnapshotMap &operator=(const SnapshotMap &) = delete;
  ~SnapshotMap() {
    delete Root.load(std::memory_order_relaxed);
    for (Table *Old : Retired)
      delete Old;
  }

  /// Lock-free. Returns the first value whose entry key equals \p Key and
  /// for which \p Accept(value) holds; V() when absent.
  template <typename Pred> V find(uint64_t Key, Pred &&Accept) const {
    assert(Key != 0 && "key 0 is the empty sentinel");
    const Table *T = Root.load(std::memory_order_acquire);
    for (size_t I = homeSlot(Key, T->Mask + 1);; I = (I + 1) & T->Mask) {
      uint64_t K = T->Entries[I].Key.load(std::memory_order_acquire);
      if (K == 0)
        return V();
      if (K == Key) {
        V Val = T->Entries[I].Val.load(std::memory_order_relaxed);
        if (Accept(Val))
          return Val;
      }
    }
  }
  V find(uint64_t Key) const {
    return find(Key, [](const V &) { return true; });
  }

  /// Writer-side only (external serialization required). Duplicate keys are
  /// allowed (hash-keyed callers disambiguate via the lookup predicate).
  void insert(uint64_t Key, V Val) {
    assert(Key != 0 && "key 0 is the empty sentinel");
    Table *T = Root.load(std::memory_order_relaxed);
    if ((Count + 1) * 10 >= (T->Mask + 1) * 7) {
      Table *Grown = makeTable((T->Mask + 1) * 2);
      for (size_t I = 0; I <= T->Mask; ++I) {
        uint64_t K = T->Entries[I].Key.load(std::memory_order_relaxed);
        if (K)
          place(*Grown, K, T->Entries[I].Val.load(std::memory_order_relaxed));
      }
      Retired.push_back(T);
      Root.store(Grown, std::memory_order_release);
      T = Grown;
    }
    place(*T, Key, Val);
    ++Count;
  }

  /// The slot where the probe for \p Key starts in a table of \p Capacity
  /// slots (a power of two). The key is mixed first: mirror keys differ
  /// only in their high word (ObjectId::raw() is Index << 32 | Gen) and
  /// method/field ids are aligned pointers, so their low bits alone would
  /// pile every key onto a few home slots.
  static size_t homeSlot(uint64_t Key, size_t Capacity) {
    Key = (Key ^ (Key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Key = (Key ^ (Key >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(Key ^ (Key >> 31)) & (Capacity - 1);
  }

private:
  struct Entry {
    std::atomic<uint64_t> Key{0};
    std::atomic<V> Val{V()};
  };
  struct Table {
    size_t Mask;
    std::unique_ptr<Entry[]> Entries;
  };

  static Table *makeTable(size_t Size) {
    Table *T = new Table;
    T->Mask = Size - 1;
    T->Entries = std::make_unique<Entry[]>(Size);
    return T;
  }

  /// Publishes value before key so a reader that sees the key sees the
  /// value (and, transitively, whatever the value points at).
  static void place(Table &T, uint64_t Key, V Val) {
    for (size_t I = homeSlot(Key, T.Mask + 1);; I = (I + 1) & T.Mask) {
      if (T.Entries[I].Key.load(std::memory_order_relaxed) == 0) {
        T.Entries[I].Val.store(Val, std::memory_order_relaxed);
        T.Entries[I].Key.store(Key, std::memory_order_release);
        return;
      }
    }
  }

  std::atomic<Table *> Root{nullptr};
  std::vector<Table *> Retired; ///< old snapshots, freed at destruction
  size_t Count = 0;             ///< writer-side
};

/// FNV-1a, for name-keyed SnapshotMap users. Never returns 0.
inline uint64_t hashBytes(const void *Data, size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H ? H : 1;
}

//===----------------------------------------------------------------------===
// Live-instance registry
//===----------------------------------------------------------------------===

/// Issues a process-unique serial for an instance that hands out pointers
/// to thread-local caches (Heap TLABs, Vm mutator slots).
uint64_t registerLiveInstance(void *Instance);

/// Unregisters at destruction; after this, lookups of the serial fail.
void unregisterLiveInstance(uint64_t Serial);

/// Runs \p Fn(instance, Ctx) under the registry lock when \p Serial is
/// still registered; no-op otherwise. Because unregisterLiveInstance takes
/// the same lock, an owner that unregisters in its destructor *before*
/// tearing down its pools is guaranteed \p Fn never runs against a
/// destroyed instance. Used by OS-thread-exit destructors to hand cached
/// resources (TLABs, mutator slots) back to their owner.
void withLiveInstance(uint64_t Serial, void (*Fn)(void *Instance, void *Ctx),
                      void *Ctx);

/// True while \p Serial is registered. Used to prune dead entries from
/// thread-local caches.
bool instanceIsLive(uint64_t Serial);

} // namespace jinn::jvm

#endif // JINN_JVM_CONCURRENT_H
