//===- tests/property_vm_globals_test.cpp - VM global table properties ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the VM's global-reference table, whose readers
/// (Vm::globalRefState, resolveGlobal and peekHandle) take no lock while
/// its writers (new, delete, the collector's weak clearing) hold
/// GlobalsMutex:
///
///  1. Against a model: seeded single-threaded sequences of strong and weak
///     creates, deletes, double deletes and collections give the same
///     state, target and live counts as a plain map of issued words.
///  2. A storm: writer threads churn strong and weak globals (to fresh
///     objects and to anchored ones) while a collector thread runs gc(),
///     which clears the weak targets, and reader threads peek every handle
///     ever issued. A strong global never peeks Live with a null target or
///     another object's target; a weak one peeks Live only with its own
///     target; a handle already deleted when the peek starts never peeks
///     Live or ClearedWeak, whether or not its slot was reissued.
///
/// Run it in the -DJINN_TSAN=ON tree too.
///
//===----------------------------------------------------------------------===//

#include "jvm/Vm.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

using namespace jinn;
using namespace jinn::jvm;
using Status = Vm::PeekResult::Status;

namespace {

//===----------------------------------------------------------------------===
// 1. The table against a model
//===----------------------------------------------------------------------===

/// What the model expects of one issued word.
struct Expected {
  ObjectId Target;
  bool Weak = false;
  bool Fresh = false;   ///< the target is rooted by this global alone
  bool Deleted = false;
  bool Cleared = false; ///< a weak global whose target was collected
};

void expectMatches(Vm &V, uint64_t Word, const Expected &E) {
  HandleBits Bits = *decodeHandle(Word);
  Vm::PeekResult Peek = V.peekHandle(Word, nullptr);
  if (E.Deleted) {
    EXPECT_EQ(V.globalRefState(Bits), LocalRefState::Stale);
    EXPECT_EQ(Peek.S, Status::Stale);
    EXPECT_TRUE(V.resolveGlobal(Bits).isNull());
    return;
  }
  EXPECT_EQ(V.globalRefState(Bits), LocalRefState::Live);
  if (E.Cleared) {
    EXPECT_EQ(Peek.S, Status::ClearedWeak);
    EXPECT_TRUE(V.resolveGlobal(Bits).isNull());
    return;
  }
  EXPECT_EQ(Peek.S, Status::Live);
  EXPECT_EQ(Peek.Target, E.Target);
  EXPECT_EQ(V.resolveGlobal(Bits), E.Target);
}

TEST(VmGlobals, SeededSequencesMatchTheModel) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    Vm V;
    SplitMix64 Rng(Seed);
    std::vector<ObjectId> Anchors;
    for (int I = 0; I < 4; ++I) {
      Anchors.push_back(V.newString("anchor"));
      V.newGlobalRef(Anchors.back(), /*Weak=*/false);
    }
    std::map<uint64_t, Expected> Model;
    std::vector<uint64_t> Live;
    for (int Step = 0; Step < 400; ++Step) {
      uint64_t Roll = Rng.next() % 16;
      if (Roll < 7 || Live.empty()) {
        Expected E;
        E.Weak = Rng.next() & 1;
        E.Fresh = Rng.next() & 1;
        E.Target = E.Fresh ? V.newPrimArray(JType::Int, 2)
                           : Anchors[Rng.next() % Anchors.size()];
        uint64_t Word = V.newGlobalRef(E.Target, E.Weak);
        ASSERT_EQ(Model.count(Word), 0u) << "a live or dead word reissued";
        Model[Word] = E;
        Live.push_back(Word);
      } else if (Roll < 13) {
        size_t K = Rng.next() % Live.size();
        uint64_t Word = Live[K];
        Live[K] = Live.back();
        Live.pop_back();
        EXPECT_TRUE(V.deleteGlobalRef(*decodeHandle(Word)));
        Model[Word].Deleted = true;
      } else if (Roll < 15) {
        // A double delete of some dead word fails and changes nothing.
        for (const auto &[Word, E] : Model)
          if (E.Deleted) {
            EXPECT_FALSE(V.deleteGlobalRef(*decodeHandle(Word)));
            break;
          }
      } else {
        V.gc();
        for (auto &[Word, E] : Model)
          if (!E.Deleted && E.Weak && E.Fresh)
            E.Cleared = true;
      }
      size_t Strong = Anchors.size(), Weak = 0;
      for (uint64_t Word : Live)
        ++(Model[Word].Weak ? Weak : Strong);
      ASSERT_EQ(V.liveGlobalCount(false), Strong);
      ASSERT_EQ(V.liveGlobalCount(true), Weak);
    }
    for (const auto &[Word, E] : Model)
      expectMatches(V, Word, E);

    // Handles of a slot the table never grew to, and of a generation a
    // slot has not reached, were never issued.
    HandleBits Beyond = *decodeHandle(Live.empty() ? Model.begin()->first
                                                   : Live.front());
    Beyond.Slot = (1u << 20) - 1;
    EXPECT_EQ(V.globalRefState(Beyond), LocalRefState::NeverIssued);
    HandleBits Ahead = *decodeHandle(Model.begin()->first);
    Ahead.Gen = 4000;
    EXPECT_EQ(V.globalRefState(Ahead), LocalRefState::NeverIssued);
    EXPECT_EQ(V.peekHandle(encodeHandle(Ahead), nullptr).S, Status::Stale);
  }
}

//===----------------------------------------------------------------------===
// 2. Writers, a collector and readers at once
//===----------------------------------------------------------------------===

constexpr int NumWriters = 2;
constexpr int NumReaders = 2;
constexpr int MinOpsPerWriter = 20000;
constexpr int MaxOpsPerWriter = 100000;
/// The writers go on past MinOpsPerWriter until the readers have made this
/// many passes over a non-empty log and the collector this many cycles.
constexpr uint64_t MinReaderPasses = 64;
constexpr uint64_t MinCollections = 4;
constexpr size_t MaxHeldPerWriter = 48;

/// One issued handle, published to the readers by the release store of
/// Word; Deleted is set after deleteGlobalRef returned.
struct Issued {
  std::atomic<uint64_t> Word{0};
  std::atomic<uint64_t> Target{0};
  std::atomic<bool> Weak{false};
  std::atomic<bool> Fresh{false};
  std::atomic<bool> Deleted{false};
};

/// What the readers saw; every field but the first two must stay 0.
struct ReaderTally {
  std::atomic<uint64_t> Peeks{0};
  std::atomic<uint64_t> LivePeeks{0};
  std::atomic<uint64_t> StrongNullTarget{0};
  std::atomic<uint64_t> WrongTarget{0};
  std::atomic<uint64_t> StrongCleared{0};
  std::atomic<uint64_t> DeletedAlive{0};
  std::atomic<uint64_t> Unexpected{0};
};

TEST(VmGlobals, PeeksNeverTearUnderChurnAndWeakClearing) {
  VmOptions Options;
  Options.IncrementalMark = true; // several pauses per cycle
  Options.GcMarkStepBudget = 16;
  Options.MoveOnGc = true;
  Vm V(Options);
  std::vector<ObjectId> Anchors;
  for (int I = 0; I < 8; ++I) {
    Anchors.push_back(V.newString("anchor"));
    V.newGlobalRef(Anchors.back(), /*Weak=*/false);
  }

  const size_t Capacity = size_t(NumWriters) * MaxOpsPerWriter;
  std::unique_ptr<Issued[]> Log(new Issued[Capacity]);
  std::atomic<size_t> Reserved{0};
  std::atomic<bool> Stop{false};
  std::atomic<int> WriterFailures{0};
  std::atomic<uint64_t> Collections{0};
  std::atomic<uint64_t> ReaderPasses{0};
  ReaderTally Tally;

  // Writers start once every reader and the collector runs, so the churn
  // overlaps both.
  std::atomic<int> Started{0};
  auto Writer = [&](int W) {
    while (Started.load(std::memory_order_acquire) < NumReaders + 1)
      std::this_thread::yield();
    SplitMix64 Rng(0x676c6f62ull + W);
    std::vector<size_t> Held;
    auto Overlapped = [&] {
      return ReaderPasses.load(std::memory_order_relaxed) >= MinReaderPasses &&
             Collections.load(std::memory_order_relaxed) >= MinCollections;
    };
    for (int Op = 0;
         Op < MaxOpsPerWriter && (Op < MinOpsPerWriter || !Overlapped());
         ++Op) {
      bool Create = Held.size() < 4 ||
                    (Held.size() < MaxHeldPerWriter && (Rng.next() & 1));
      if (!Create) {
        size_t K = Rng.next() % Held.size();
        Issued &E = Log[Held[K]];
        Held[K] = Held.back();
        Held.pop_back();
        uint64_t Word = E.Word.load(std::memory_order_relaxed);
        if (!V.deleteGlobalRef(*decodeHandle(Word)))
          ++WriterFailures;
        E.Deleted.store(true, std::memory_order_release);
        if (Rng.next() % 8 == 0 && V.deleteGlobalRef(*decodeHandle(Word)))
          ++WriterFailures; // a double delete must fail
        continue;
      }
      bool Weak = Rng.next() & 1;
      bool Fresh = Rng.next() & 1;
      ObjectId Target;
      uint64_t Word;
      {
        // Allocate and root in one mutator scope, as a JNI call does.
        Vm::MutatorScope Scope(V);
        Target = Fresh ? V.newPrimArray(JType::Int, 2)
                       : Anchors[Rng.next() % Anchors.size()];
        Word = V.newGlobalRef(Target, Weak);
      }
      size_t I = Reserved.fetch_add(1, std::memory_order_relaxed);
      Issued &E = Log[I];
      E.Target.store(Target.raw(), std::memory_order_relaxed);
      E.Weak.store(Weak, std::memory_order_relaxed);
      E.Fresh.store(Fresh, std::memory_order_relaxed);
      E.Word.store(Word, std::memory_order_release);
      Held.push_back(I);
    }
  };

  // Each pass peeks the newest handles; every 16th pass peeks them all.
  auto Reader = [&] {
    Started.fetch_add(1, std::memory_order_release);
    for (uint64_t Pass = 0;; ++Pass) {
      bool Last = Stop.load(std::memory_order_acquire);
      size_t N = Reserved.load(std::memory_order_acquire);
      if (N)
        ReaderPasses.fetch_add(1, std::memory_order_relaxed);
      size_t First = (Last || Pass % 16 == 0 || N < 256) ? 0 : N - 256;
      for (size_t I = First; I < N; ++I) {
        Issued &E = Log[I];
        uint64_t Word = E.Word.load(std::memory_order_acquire);
        if (!Word)
          continue; // reserved, not yet published
        bool Deleted = E.Deleted.load(std::memory_order_acquire);
        Vm::PeekResult Peek = V.peekHandle(Word, nullptr);
        bool Weak = E.Weak.load(std::memory_order_relaxed);
        uint64_t Target = E.Target.load(std::memory_order_relaxed);
        Tally.Peeks.fetch_add(1, std::memory_order_relaxed);
        switch (Peek.S) {
        case Status::Live:
          Tally.LivePeeks.fetch_add(1, std::memory_order_relaxed);
          if (!Weak && Peek.Target.isNull())
            Tally.StrongNullTarget.fetch_add(1, std::memory_order_relaxed);
          else if (Peek.Target.raw() != Target)
            Tally.WrongTarget.fetch_add(1, std::memory_order_relaxed);
          if (Deleted)
            Tally.DeletedAlive.fetch_add(1, std::memory_order_relaxed);
          break;
        case Status::ClearedWeak:
          if (!Weak)
            Tally.StrongCleared.fetch_add(1, std::memory_order_relaxed);
          if (Deleted)
            Tally.DeletedAlive.fetch_add(1, std::memory_order_relaxed);
          break;
        case Status::Stale:
          break;
        default:
          Tally.Unexpected.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (Last)
        return;
    }
  };

  std::vector<std::thread> Threads;
  for (int R = 0; R < NumReaders; ++R)
    Threads.emplace_back(Reader);
  std::thread Collector([&] {
    Started.fetch_add(1, std::memory_order_release);
    do {
      V.gc();
      Collections.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    } while (!Stop.load(std::memory_order_acquire));
  });
  std::vector<std::thread> WriterThreads;
  for (int W = 0; W < NumWriters; ++W)
    WriterThreads.emplace_back(Writer, W);
  for (std::thread &Th : WriterThreads)
    Th.join();
  Stop.store(true, std::memory_order_release);
  Collector.join();
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(WriterFailures.load(), 0);
  EXPECT_GT(Collections.load(), 0u);
  EXPECT_GT(Tally.Peeks.load(), 0u);
  EXPECT_GT(Tally.LivePeeks.load(), 0u);
  EXPECT_EQ(Tally.StrongNullTarget.load(), 0u);
  EXPECT_EQ(Tally.WrongTarget.load(), 0u);
  EXPECT_EQ(Tally.StrongCleared.load(), 0u);
  EXPECT_EQ(Tally.DeletedAlive.load(), 0u);
  EXPECT_EQ(Tally.Unexpected.load(), 0u);

  // Quiescent: one more collection clears every weak global whose fresh
  // target nothing else roots; everything else reads exactly as issued.
  V.gc();
  size_t Strong = Anchors.size(), Weak = 0;
  for (size_t I = 0, N = Reserved.load(); I < N; ++I) {
    Issued &E = Log[I];
    Expected X;
    X.Target = ObjectId::fromRaw(E.Target.load());
    X.Weak = E.Weak.load();
    X.Fresh = E.Fresh.load();
    X.Deleted = E.Deleted.load();
    X.Cleared = !X.Deleted && X.Weak && X.Fresh;
    if (!X.Deleted)
      ++(X.Weak ? Weak : Strong);
    expectMatches(V, E.Word.load(), X);
  }
  EXPECT_EQ(V.liveGlobalCount(false), Strong);
  EXPECT_EQ(V.liveGlobalCount(true), Weak);
}

} // namespace
