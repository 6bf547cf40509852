//===- tests/snapshot_map_test.cpp - Lock-free registry map tests --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the substrate VM's SnapshotMap (jvm/Concurrent.h), the
/// insert-only open-addressed map behind the class, mirror, method and
/// field registries: keys that share their low bits spread over the home
/// slots, duplicate keys resolve through the lookup predicate, and a
/// reader looking keys up while the writer grows the table always finds
/// every published key. Run under -fsanitize=thread (configure with
/// -DJINN_TSAN=ON) to check the publication order.
///
//===----------------------------------------------------------------------===//

#include "jvm/Concurrent.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace jinn::jvm;

namespace {

using Map = SnapshotMap<uint64_t>;

/// Distinct home slots \p Keys take in a table of \p Capacity slots.
size_t distinctHomes(const std::vector<uint64_t> &Keys, size_t Capacity) {
  std::set<size_t> Homes;
  for (uint64_t K : Keys)
    Homes.insert(Map::homeSlot(K, Capacity));
  return Homes.size();
}

/// Class-mirror keys as the VM forms them: ObjectId::raw() is
/// Index << 32 | Gen, and a mirror is allocated once (generation 1).
std::vector<uint64_t> mirrorKeys(size_t Count) {
  std::vector<uint64_t> Keys;
  for (uint64_t Index = 1; Index <= Count; ++Index)
    Keys.push_back(Index << 32 | 1);
  return Keys;
}

/// Method/field id keys: 16-byte-aligned addresses of 48-byte records.
std::vector<uint64_t> alignedPointerKeys(size_t Count) {
  std::vector<uint64_t> Keys;
  for (uint64_t K = 0; K < Count; ++K)
    Keys.push_back(0x7f3a12340000ULL + 48 * K);
  return Keys;
}

TEST(SnapshotMap, KeysSharingTheirLowBitsSpreadOverTheHomeSlots) {
  // 31 mirrors in a 64-slot table would all start probing at slot 1 on
  // their low bits alone; 40 aligned ids would use 4 of the 64 slots.
  std::vector<uint64_t> Mirrors = mirrorKeys(31);
  std::vector<uint64_t> Ids = alignedPointerKeys(40);
  EXPECT_GE(distinctHomes(Mirrors, 64), 16u);
  EXPECT_GE(distinctHomes(Ids, 64), 20u);

  for (const std::vector<uint64_t> *Keys : {&Mirrors, &Ids}) {
    Map M;
    for (uint64_t K : *Keys)
      M.insert(K, K ^ 0x5a5a);
    for (uint64_t K : *Keys)
      EXPECT_EQ(M.find(K), K ^ 0x5a5a) << std::hex << K;
    EXPECT_EQ(M.find(uint64_t(999) << 32 | 1), 0u);
  }
}

TEST(SnapshotMap, DuplicateKeysResolveThroughTheLookupPredicate) {
  // Name-keyed registries key on a hash and reject collisions in the
  // predicate, so one key may hold several values.
  constexpr uint64_t Key = 0xfeedULL << 32 | 1;
  Map M(4);
  for (uint64_t V = 1; V <= 3; ++V)
    M.insert(Key, V * 100);
  auto Exactly = [](uint64_t Want) {
    return [Want](const uint64_t &V) { return V == Want; };
  };
  // An accept-all lookup returns one of them (which one follows the
  // probe order, which growth may permute).
  uint64_t Any = M.find(Key);
  EXPECT_TRUE(Any == 100 || Any == 200 || Any == 300) << Any;
  EXPECT_EQ(M.find(Key, Exactly(100)), 100u);
  EXPECT_EQ(M.find(Key, Exactly(200)), 200u);
  EXPECT_EQ(M.find(Key, Exactly(300)), 300u);
  EXPECT_EQ(M.find(Key, Exactly(400)), 0u);

  // Growth rebuilds the table; the duplicates stay resolvable.
  for (uint64_t K : mirrorKeys(100))
    M.insert(K, K);
  EXPECT_EQ(M.find(Key, Exactly(300)), 300u);
  EXPECT_EQ(M.find(Key, Exactly(400)), 0u);
  for (uint64_t K : mirrorKeys(100))
    EXPECT_EQ(M.find(K), K);
}

TEST(SnapshotMap, ReaderFindsEveryPublishedKeyWhileTheWriterGrows) {
  // The writer starts from a 4-slot table, so it grows ~12 times while
  // the reader looks up keys it has already published. Every 1,000
  // inserts the writer waits for the reader to make progress, so the
  // lookups interleave with the growth even on one CPU.
  constexpr uint64_t Count = 12000;
  std::vector<uint64_t> Keys = mirrorKeys(Count / 2);
  for (uint64_t K : alignedPointerKeys(Count / 2))
    Keys.push_back(K);
  auto ValueOf = [](uint64_t K) { return K * 3 + 1; };

  Map M(4);
  std::atomic<size_t> Published{0};
  std::atomic<bool> Done{false};
  std::atomic<size_t> Lookups{0};
  size_t Misses = 0;
  std::thread Reader([&] {
    uint64_t Pick = 1;
    while (!Done.load(std::memory_order_acquire)) {
      size_t Seen = Published.load(std::memory_order_acquire);
      if (Seen == 0)
        continue;
      Pick = Pick * 6364136223846793005ULL + 1442695040888963407ULL;
      uint64_t K = Keys[(Pick >> 33) % Seen];
      if (M.find(K) != ValueOf(K))
        ++Misses;
      Lookups.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t I = 0; I < Keys.size(); ++I) {
    M.insert(Keys[I], ValueOf(Keys[I]));
    Published.store(I + 1, std::memory_order_release);
    if ((I + 1) % 1000 == 0) {
      size_t Mark = Lookups.load(std::memory_order_relaxed);
      while (Lookups.load(std::memory_order_relaxed) < Mark + 64)
        std::this_thread::yield();
    }
  }
  Done.store(true, std::memory_order_release);
  Reader.join();

  EXPECT_EQ(Misses, 0u) << "of " << Lookups.load() << " lookups";
  for (uint64_t K : Keys)
    ASSERT_EQ(M.find(K), ValueOf(K));
}

} // namespace
