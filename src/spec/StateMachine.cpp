//===- spec/StateMachine.cpp - FFI state machine specifications ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "spec/StateMachine.h"

#include "jvm/JThread.h"
#include "support/Compiler.h"

using namespace jinn;
using namespace jinn::spec;

Reporter::~Reporter() = default;

const char *jinn::spec::directionName(Direction Dir) {
  switch (Dir) {
  case Direction::CallJavaToC:
    return "Call:Java->C";
  case Direction::ReturnCToJava:
    return "Return:C->Java";
  case Direction::CallCToJava:
    return "Call:C->Java";
  case Direction::ReturnJavaToC:
    return "Return:Java->C";
  }
  JINN_UNREACHABLE("invalid Direction");
}

const char *jinn::spec::counterOpName(CounterOp Op) {
  switch (Op) {
  case CounterOp::None:
    return "none";
  case CounterOp::Push:
    return "push";
  case CounterOp::Pop:
    return "pop";
  }
  JINN_UNREACHABLE("invalid CounterOp");
}

FunctionSelector FunctionSelector::all(std::string Description) {
  FunctionSelector Out;
  Out.K = Kind::AllJniFunctions;
  Out.Description = std::move(Description);
  return Out;
}

FunctionSelector FunctionSelector::one(jni::FnId Fn) {
  FunctionSelector Out;
  Out.K = Kind::OneJniFunction;
  Out.Fn = Fn;
  Out.Description = jni::fnName(Fn);
  return Out;
}

FunctionSelector FunctionSelector::matching(
    std::string Description,
    std::function<bool(const jni::FnTraits &)> Pred) {
  FunctionSelector Out;
  Out.K = Kind::JniPredicate;
  Out.Pred = std::move(Pred);
  Out.Description = std::move(Description);
  return Out;
}

FunctionSelector FunctionSelector::nativeMethods(std::string Description) {
  FunctionSelector Out;
  Out.K = Kind::AnyNativeMethod;
  Out.Description = std::move(Description);
  return Out;
}

bool FunctionSelector::matches(jni::FnId Id) const {
  if (Id >= jni::FnId::Count)
    return false; // FnId::Count is the "no function" sentinel
  switch (K) {
  case Kind::AllJniFunctions:
    return true;
  case Kind::OneJniFunction:
    return Fn < jni::FnId::Count && Id == Fn;
  case Kind::JniPredicate:
    return Pred && Pred(jni::fnTraits(Id));
  case Kind::AnyNativeMethod:
    return false;
  }
  JINN_UNREACHABLE("invalid FunctionSelector kind");
}

std::vector<jni::FnId>
jinn::spec::matchedFunctions(const FunctionSelector &Fns) {
  std::vector<jni::FnId> Out;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I) {
    jni::FnId Id = static_cast<jni::FnId>(I);
    if (Fns.matches(Id))
      Out.push_back(Id);
  }
  return Out;
}

std::string TransitionContext::threadName() const {
  if (Snap)
    return Call->replayEnv()->threadName(Snap->ThreadId);
  return Env->thread->name();
}

std::string TransitionContext::currentThreadName() const {
  if (Snap)
    return Call->replayEnv()->threadName(Snap->CurThreadId);
  jvm::JThread *Cur = Env->runtime->currentThread();
  return Cur ? Cur->name() : std::string();
}

jvm::Vm::PeekResult TransitionContext::peek(uint64_t Word) const {
  if (Snap) {
    if (const jvmti::PeekFact *F = Snap->findPeek(Word)) {
      jvm::Vm::PeekResult R;
      R.S = static_cast<jvm::Vm::PeekResult::Status>(F->Status);
      R.Target = jvm::ObjectId::fromRaw(F->Target);
      R.Kind = static_cast<jvm::RefKind>(F->Kind);
      R.OwnerThread = F->OwnerThread;
      return R;
    }
    // Not snapshotted (capacity overflow or an unusual query): fall back to
    // the live VM, judged from the recorded thread's perspective.
    jvm::Vm &Vm = *Call->replayEnv()->Vm;
    return Vm.peekHandle(Word, Vm.threadById(Snap->ThreadId));
  }
  return Env->vm->peekHandle(Word, Env->thread);
}

bool TransitionContext::releasedBuffer(const void *Buf,
                                       uint64_t &TargetRaw) const {
  if (Snap) {
    TargetRaw = Snap->BufferTarget;
    return Snap->BufferFound;
  }
  std::optional<jni::BufferInfo> Info = Env->runtime->findBuffer(Buf);
  if (!Info)
    return false;
  TargetRaw = Info->Target.raw();
  return true;
}

uint32_t TransitionContext::nativeFrameCapacity() const {
  if (Snap)
    return Call->replayEnv()->NativeFrameCapacity;
  return Env->vm->options().NativeFrameCapacity;
}

std::string TransitionContext::siteName() const {
  if (const jvm::MethodInfo *Method = Call->nativeMethod())
    return Method->qualifiedName();
  return jni::fnName(Call->id());
}

MachineBase::~MachineBase() = default;
