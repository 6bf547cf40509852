//===- jinn/machines/LocalRef.cpp - Local reference machine --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figures 2 and 8, "Local reference": the machine behind the GNOME
/// bug of Figure 1. JNI manages local references semi-automatically —
/// acquired implicitly when a native method receives references or a JNI
/// function returns one, released implicitly when the native method
/// returns (or explicitly via DeleteLocalRef/PopLocalFrame). The shadow
/// encoding is, per thread, a stack of frames, each with a capacity and the
/// set of live reference words (LocalRefShadow keeps those semantics
/// without allocating in the steady state). Detected errors: overflow
/// (more than the ensured capacity, default 16), dangling use, double
/// free, cross-thread use, leaked explicit frames, and ID/reference
/// confusion (pitfall 6).
///
/// Concurrency: local references are thread-confined by the JNI spec, and
/// so is the shadow. Each thread's LocalRefShadow sits in its shadow block
/// (ThreadShadow), found once per crossing with no lock; the cross-thread
/// observation queries (liveCount/topCapacity) may only be called once
/// the owning thread has quiesced.
/// Cross-thread *use* of a local reference is a reported violation (the
/// wrong-thread check below fires before any shadow access), not a
/// supported access pattern.
///
/// Note on ordering: the Use transitions are listed before the Release
/// transitions so that, at a native-method return, a returned reference is
/// validated *before* the frame pop invalidates the shadow set.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

#include <bit>

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::FnTraits;
using jinn::jni::ResourceRole;
using jinn::jvm::RefKind;

namespace {

bool isLocalUseFunction(const FnTraits &Traits) {
  // DeleteLocalRef / PopLocalFrame are Release sites, not Use sites.
  return Traits.RefMask != 0 &&
         Traits.Resource != ResourceRole::LocalDelete &&
         Traits.Resource != ResourceRole::PopFrame;
}

/// True for a local reference word of thread \p Tid: the only words this
/// machine acquires, because the shadow indexes a thread's words by slot.
bool isOwnLocalWord(uint64_t Word, uint32_t Tid) {
  std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
  return Word && Bits && Bits->Kind == RefKind::Local && Bits->Thread == Tid;
}

/// useCheck's position for a native method's returned reference.
constexpr int ReturnValue = -1;

/// What a use-check report calls the reference at \p ArgIndex. Built only
/// on a violation path, so a clean crossing formats nothing.
std::string usedRefName(int ArgIndex) {
  if (ArgIndex == ReturnValue)
    return "the native method's return value";
  return formatString("argument %d", ArgIndex + 1);
}

} // namespace

void LocalRefMachine::onThreadStart(const spec::ThreadStartInfo &Info) {
  Threads.start(Info);
}

size_t LocalRefMachine::liveCount(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? Shadow->Locals.liveCount() : 0;
}

uint32_t LocalRefMachine::topCapacity(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = Threads.find(ThreadId);
  return Shadow ? Shadow->Locals.topCapacity() : 0;
}

void LocalRefMachine::acquire(TransitionContext &Ctx, LocalRefShadow &Shadow,
                              uint64_t Word) {
  size_t TopLive = Shadow.acquire(Word);
  countChanged(Ctx.threadId(), Shadow);
  uint32_t Limit = Shadow.topCapacity();
  if (mutate::active(mutate::M::SpecLocalRefOverflowOffByOne))
    Limit += 1;
  if (TopLive > Limit)
    fail(Ctx, Spec,
         "local reference overflow: %zu live references exceed the ensured "
         "capacity of %u",
         TopLive, Shadow.topCapacity());
}

void LocalRefMachine::useCheck(TransitionContext &Ctx, uint64_t Word,
                               int ArgIndex) {
  if (!Word)
    return;
  std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
  if (!Bits) {
    failWith(Ctx, Spec, [ArgIndex] {
      return formatString("%s is not a JNI reference (a method or field ID, "
                          "or a stray pointer?)",
                          usedRefName(ArgIndex).c_str());
    });
    return;
  }
  if (Bits->Kind != RefKind::Local)
    return; // globals belong to the global-reference machine
  uint32_t Tid = Ctx.threadId();
  if (Bits->Thread != Tid) {
    // Thread confinement: never touch the owning thread's shadow from
    // here — report and stop.
    uint32_t Owner = Bits->Thread;
    failWith(Ctx, Spec, [ArgIndex, Owner, Tid] {
      return formatString("%s is a local reference that belongs to thread "
                          "%u, not to the current thread %u",
                          usedRefName(ArgIndex).c_str(), Owner, Tid);
    });
    return;
  }
  LocalRefShadow &Shadow = shadowAt(Ctx);
  if (!Shadow.tracks(Word))
    useUntracked(Ctx, Shadow, Word, ArgIndex);
}

void LocalRefMachine::useUntracked(TransitionContext &Ctx,
                                   LocalRefShadow &Shadow, uint64_t Word,
                                   int ArgIndex) {
  if (mutate::active(mutate::M::SpecLocalRefSlotOccupancyMatch) &&
      Shadow.occupies(Word))
    return; // mutant: any word in the slot passes the use check
  // Adopt pre-agent references; report dead ones.
  jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
  if (Peek.S == jvm::Vm::PeekResult::Status::Live) {
    Shadow.acquire(Word);
    return;
  }
  failWith(Ctx, Spec, [ArgIndex] {
    return formatString("%s is a dangling local reference (its frame was "
                        "popped or it was deleted)",
                        usedRefName(ArgIndex).c_str());
  });
}

LocalRefMachine::LocalRefMachine(ThreadShadows &Blocks) : Threads(Blocks) {
  Spec.Name = "Local reference";
  Spec.ObservedEntity = "A local JNI reference";
  Spec.Errors = "Overflow, leak, dangling, and double-free";
  Spec.Encoding = "For each thread, a stack of frames. Each frame has a "
                  "capacity and a list of local references";
  Spec.States = {"Before acquire", "Acquired", "Released",
                 "Error: dangling", "Error: overflow"};

  // Acquire at Call:Java->C: a native method receives its receiver and
  // reference arguments in a fresh frame (capacity 16 unless ensured).
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::nativeMethods("native method taking reference"),
        Direction::CallJavaToC}},
      [this](TransitionContext &Ctx) {
        jvmti::CapturedCall &Call = Ctx.call();
        LocalRefShadow &Shadow = shadowAt(Ctx);
        Shadow.enterNative(Ctx.nativeFrameCapacity());
        uint32_t Tid = Ctx.threadId();
        if (uint64_t Self = jni::handleWord(Call.self());
            isOwnLocalWord(Self, Tid))
          acquire(Ctx, Shadow, Self);
        // The actuals the crossing carries: every formal live, the first
        // TraceEvent::MaxNativeArgs under replay.
        std::span<const jvalue> Args = Call.callArgs();
        const std::vector<jvm::TypeDesc> &Params =
            Call.nativeMethod()->Sig.Params;
        for (size_t I = 0; I < Args.size(); ++I) {
          uint64_t Arg = Params[I].isReference() ? jni::handleWord(Args[I].l)
                                                 : 0;
          if (isOwnLocalWord(Arg, Tid))
            acquire(Ctx, Shadow, Arg);
        }
      }));

  // Acquire at Return:Java->C: a JNI function returned a reference.
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::matching(
            "any JNI function returning a reference",
            [](const FnTraits &Traits) { return Traits.ReturnsRef; }),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (!Ctx.call().returnIsRef())
          return;
        uint64_t Word = Ctx.call().returnWord();
        if (isOwnLocalWord(Word, Ctx.threadId()))
          acquire(Ctx, shadowAt(Ctx), Word);
      }));

  // Frame management: PushLocalFrame / EnsureLocalCapacity extend the
  // capacity the overflow check enforces.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Acquired",
      {{FunctionSelector::one(jni::FnId::PushLocalFrame),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        shadowAt(Ctx).pushFrame(static_cast<uint32_t>(Ctx.call().arg(0).Word),
                                /*Explicit=*/true);
      }));
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Acquired",
      {{FunctionSelector::one(jni::FnId::EnsureLocalCapacity),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        shadowAt(Ctx).ensureCapacity(
            static_cast<uint32_t>(Ctx.call().arg(0).Word));
      }));

  // Use at Call:C->Java: any JNI function taking a reference.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Error: dangling",
      {{FunctionSelector::matching("any JNI function taking a reference, "
                                   "except DeleteLocalRef and PopLocalFrame",
                                   isLocalUseFunction),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        for (unsigned Mask = Ctx.call().traits().RefMask;
             Mask && !Ctx.aborted(); Mask &= Mask - 1) {
          int I = std::countr_zero(Mask);
          useCheck(Ctx, Ctx.call().arg(I).Word, I);
        }
      }));

  // Use at Return:C->Java: a native method returning a reference. Listed
  // before the Release transition (see file comment).
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Error: dangling",
      {{FunctionSelector::nativeMethods("native method returning reference"),
        Direction::ReturnCToJava}},
      [this](TransitionContext &Ctx) {
        if (Ctx.call().returnIsRef())
          useCheck(Ctx, Ctx.call().returnWord(), ReturnValue);
      }));

  // Release at Call:C->Java of DeleteLocalRef.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::one(jni::FnId::DeleteLocalRef),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        uint64_t Word = Ctx.call().refWord(0);
        if (!Word)
          return;
        LocalRefShadow &Shadow = shadowAt(Ctx);
        if (Shadow.release(Word)) {
          countChanged(Ctx.threadId(), Shadow);
          return;
        }
        jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
        if (Peek.S == jvm::Vm::PeekResult::Status::Live)
          return; // pre-agent reference; the delete is legitimate
        fail(Ctx, Spec,
             "DeleteLocalRef of a dead local reference (double free)");
      }));

  // Release at Call:C->Java of PopLocalFrame. The *underflow* (a pop with
  // no explicit frame to match) is owned by the local-frame nesting
  // machine — a pushdown rule this machine's finite frame shadow cannot
  // express in general — so on underflow the shadow simply declines to pop
  // the base frame and leaves the reporting to that machine, which aborts
  // the call.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::one(jni::FnId::PopLocalFrame),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        LocalRefShadow &Shadow = shadowAt(Ctx);
        if (Shadow.popExplicitFrame())
          countChanged(Ctx.threadId(), Shadow);
      }));

  // Release at Return:C->Java: the VM frees the native frame; explicit
  // frames that were never popped leak.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::nativeMethods("return from any native method"),
        Direction::ReturnCToJava}},
      [this](TransitionContext &Ctx) {
        LocalRefShadow &Shadow = shadowAt(Ctx);
        if (!Shadow.inNative())
          return;
        size_t ExplicitLeaks = Shadow.exitNative();
        countChanged(Ctx.threadId(), Shadow);
        if (ExplicitLeaks > 0)
          fail(Ctx, Spec,
               "%zu local reference frame(s) pushed with PushLocalFrame were "
               "never popped (leak)",
               ExplicitLeaks);
      }));
}
