//===- jinn/ThreadShadow.cpp - One shadow block per checked thread -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/ThreadShadow.h"

using namespace jinn::agent;

ThreadShadows::~ThreadShadows() {
  Blocks.forEach([](const std::atomic<ThreadShadow *> &Slot) {
    delete Slot.load(std::memory_order_relaxed);
  });
}

ThreadShadow &ThreadShadows::install(std::atomic<ThreadShadow *> &Slot,
                                     uint32_t FrameCapacity) {
  auto *Fresh = new ThreadShadow(FrameCapacity);
  ThreadShadow *Installed = nullptr;
  if (Slot.compare_exchange_strong(Installed, Fresh,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
    return *Fresh;
  delete Fresh;
  return *Installed;
}

