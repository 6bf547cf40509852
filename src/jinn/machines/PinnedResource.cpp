//===- jinn/machines/PinnedResource.cpp - Pinned string/array machine ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 8, "Pinned or copied string or array": C code temporarily
/// obtains direct access to string/array contents; the JVM pins or copies.
/// Acquire/release must pair: an unpaired acquire is a leak (reported at
/// program termination), a second release is a double free (pitfall 11).
/// Dangling buffer *contents* cannot be checked at the language boundary
/// (paper §6.5, category 3) — only the acquire/release protocol is.
///
/// The outstanding-acquisition table is striped by resource identity; each
/// shard entry tallies acquisitions per pin family, so the shard critical
/// sections stay allocation-free.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::ArgClass;
using jinn::jni::FnTraits;
using jinn::jni::ResourceRole;

PinnedResourceMachine::PinnedResourceMachine() {
  Spec.Name = "Pinned or copied string or array";
  Spec.ObservedEntity = "A Java string or array that is pinned or copied";
  Spec.Errors = "Leak and double-free";
  Spec.Encoding = "A list of acquired JVM resources";
  Spec.States = {"Before acquire", "Acquired", "Released",
                 "Error: double free"};

  // Acquire: Return:Java->C of the 12 getter functions.
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::matching(
            "Get<Type>ArrayElements and similar getter functions",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::PinAcquire;
            }),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (!Ctx.call().returnPtr())
          return; // the acquisition failed
        uint64_t Resource = identityOf(Ctx, Ctx.call().refWord(0));
        if (!Resource)
          return;
        int Family = static_cast<int>(Ctx.call().traits().Pin);
        auto &Shard = Outstanding.shardFor(Resource);
        auto Lock = StripedTable<PinCounts>::lock(Shard);
        Shard.Map.findOrEmplace(Resource).ByFamily[Family] += 1;
      }));

  // Release: Return:Java->C of the matching release functions. The
  // resource is identified by the buffer pointer the program hands back.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::matching(
            "Release<Type>ArrayElements and similar release functions",
            [](const FnTraits &Traits) {
              return Traits.Resource == ResourceRole::PinRelease;
            }),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        if (mutate::active(mutate::M::SpecPinnedReleaseUntracked))
          return; // mutant: releases never balance the shadow
        const FnTraits &Traits = Ctx.call().traits();
        // The buffer parameter: T* for array elements, const char* for
        // UTF chars (which the trait table classifies as a C string).
        int BufIndex = Traits.firstParam(ArgClass::OutPtr);
        if (BufIndex < 0)
          BufIndex = Traits.firstParam(ArgClass::CString);
        const void *Buf =
            BufIndex >= 0 ? Ctx.call().arg(BufIndex).Ptr : nullptr;
        uint64_t BufTarget = 0;
        bool Found = Buf && Ctx.releasedBuffer(Buf, BufTarget);
        if (!Found) {
          Ctx.reporter().violation(
              Ctx, Spec,
              "a pinned string/array buffer was released twice (double "
              "free) or was never acquired");
          return;
        }
        // A JNI_COMMIT release copies back without freeing.
        int ModeIndex = -1;
        for (int I = Traits.NumParams - 1; I >= 0; --I)
          if (Traits.Params[I].Cls == ArgClass::Scalar) {
            ModeIndex = I;
            break;
          }
        if (ModeIndex >= 0 &&
            static_cast<jint>(Ctx.call().arg(ModeIndex).Word) == JNI_COMMIT)
          return;
        int Family = static_cast<int>(Traits.Pin);
        // Decide under the lock, report outside it (violation() may GC).
        bool DoubleFree = false;
        {
          auto &Shard = Outstanding.shardFor(BufTarget);
          auto Lock = StripedTable<PinCounts>::lock(Shard);
          PinCounts *Counts = Shard.Map.find(BufTarget);
          if (!Counts || Counts->ByFamily[Family] <= 0) {
            DoubleFree = true;
          } else if (--Counts->ByFamily[Family] == 0 && Counts->empty()) {
            Shard.Map.erase(BufTarget);
          }
        }
        if (DoubleFree)
          Ctx.reporter().violation(
              Ctx, Spec,
              "a pinned string/array resource was released that was not "
              "acquired (double free)");
      }));
}

void PinnedResourceMachine::onVmDeath(spec::Reporter &Rep, jvm::Vm &Vm) {
  (void)Vm;
  size_t Leaked = 0;
  Outstanding.forEach([&](uint64_t, const PinCounts &Counts) {
    for (int32_t N : Counts.ByFamily)
      Leaked += static_cast<size_t>(N);
  });
  if (Leaked > 0)
    Rep.endOfRun(Spec,
                 formatString("%zu pinned string/array resource(s) were "
                              "never released (leak)",
                              Leaked));
}
