//===- tests/invoke_interface_test.cpp - JavaVM invocation interface -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include <new>
#include <thread>

using namespace jinn;
using namespace jinn::testing;

namespace {

struct InvokeInterface : ::testing::Test {
  VmWorld W;
  JavaVM *Vm = W.Rt.javaVm();
};

TEST_F(InvokeInterface, AttachCreatesThreadAndEnv) {
  JNIEnv *Env = nullptr;
  char Name[] = "pool-worker";
  ASSERT_EQ(Vm->functions->AttachCurrentThread(Vm, &Env, Name), JNI_OK);
  ASSERT_NE(Env, nullptr);
  EXPECT_EQ(Env->thread->name(), "pool-worker");
  EXPECT_EQ(W.Rt.currentThread(), Env->thread);
  // The attached thread can immediately use JNI.
  jstring S = Env->functions->NewStringUTF(Env, "from worker");
  EXPECT_EQ(Env->functions->GetStringUTFLength(Env, S), 11);
  EXPECT_EQ(Vm->functions->DetachCurrentThread(Vm), JNI_OK);
  EXPECT_EQ(Vm->functions->DetachCurrentThread(Vm), JNI_EDETACHED);
}

TEST_F(InvokeInterface, GetEnvReturnsTheCurrentThreadsEnv) {
  void *Out = nullptr;
  // No current thread recorded: detached.
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_6),
            JNI_EDETACHED);
  jni::JniRuntime::ScopedCurrent Scope(W.Rt, &W.main());
  ASSERT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_6), JNI_OK);
  EXPECT_EQ(Out, W.env());
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_6 + 1),
            JNI_EVERSION);
}

// Regression: attaching an already-attached thread must be a no-op that
// hands back the existing env (the JNI spec's contract), not mint a second
// JThread for the same OS thread.
TEST_F(InvokeInterface, DoubleAttachReturnsExistingEnv) {
  JNIEnv *First = nullptr;
  char Name[] = "pool-worker";
  ASSERT_EQ(Vm->functions->AttachCurrentThread(Vm, &First, Name), JNI_OK);
  JNIEnv *Second = nullptr;
  char OtherName[] = "imposter";
  ASSERT_EQ(Vm->functions->AttachCurrentThread(Vm, &Second, OtherName),
            JNI_OK);
  EXPECT_EQ(Second, First);
  // The original attachment's identity is kept.
  EXPECT_EQ(Second->thread->name(), "pool-worker");
  // One attachment means one detach reaches the detached state.
  EXPECT_EQ(Vm->functions->DetachCurrentThread(Vm), JNI_OK);
  EXPECT_EQ(Vm->functions->DetachCurrentThread(Vm), JNI_EDETACHED);
}

// Regression: GetEnv must whitelist the known interface versions and
// answer JNI_EVERSION for anything else — not just for versions above 1.6.
TEST_F(InvokeInterface, GetEnvRejectsUnknownVersions) {
  jni::JniRuntime::ScopedCurrent Scope(W.Rt, &W.main());
  void *Out = nullptr;
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_1), JNI_OK);
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_2), JNI_OK);
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_4), JNI_OK);
  EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, JNI_VERSION_1_6), JNI_OK);
  for (jint Bad : {jint(0), jint(-1), jint(0x00010003), jint(0x00030001),
                   jint(0x7fffffff)}) {
    Out = reinterpret_cast<void *>(uintptr_t(0xdead));
    EXPECT_EQ(Vm->functions->GetEnv(Vm, &Out, Bad), JNI_EVERSION);
    EXPECT_EQ(Out, nullptr); // the out-parameter is cleared on failure
  }
}

TEST_F(InvokeInterface, DestroyJavaVmShutsDown) {
  EXPECT_EQ(Vm->functions->DestroyJavaVM(Vm), JNI_OK);
  EXPECT_TRUE(W.Vm.isShutdown());
}

TEST_F(InvokeInterface, AttachedThreadLocalRefsAreIndependent) {
  JNIEnv *Worker = nullptr;
  ASSERT_EQ(Vm->functions->AttachCurrentThread(Vm, &Worker, nullptr),
            JNI_OK);
  jstring Ws = Worker->functions->NewStringUTF(Worker, "worker-local");
  EXPECT_EQ(Worker->functions->GetObjectRefType(Worker, Ws),
            JNILocalRefType);
  // Main's perspective: that local belongs to the worker.
  auto Peek = W.Vm.peekHandle(jni::handleWord(Ws), &W.main());
  EXPECT_EQ(Peek.S, jvm::Vm::PeekResult::Status::WrongThreadLive);
  Vm->functions->DetachCurrentThread(Vm);
  // Detach popped the worker's frames: the handle is dead.
  auto After = W.Vm.peekHandle(jni::handleWord(Ws), nullptr);
  EXPECT_EQ(After.S, jvm::Vm::PeekResult::Status::Stale);
}

//===----------------------------------------------------------------------===
// The current-thread registry (one small LRU per OS thread)
//===----------------------------------------------------------------------===

/// Runs \p Body on a fresh OS thread, so it starts with an empty registry.
template <typename Fn> void onFreshThread(Fn Body) {
  std::thread Worker(Body);
  Worker.join();
}

TEST(CurrentThreadRegistry, OneOsThreadAlternatesBetweenTwoRuntimes) {
  VmWorld A, B;
  char Name[] = "shared-os-thread";
  onFreshThread([&] {
    jvm::JThread &InA = A.Vm.attachThread(Name);
    jvm::JThread &InB = B.Vm.attachThread(Name);
    A.Rt.setCurrentThread(&InA);
    B.Rt.setCurrentThread(&InB);
    for (int I = 0; I < 8; ++I) {
      // Each read moves its runtime to the front of the registry.
      EXPECT_EQ(A.Rt.currentThread(), &InA);
      EXPECT_EQ(B.Rt.currentThread(), &InB);
      EXPECT_EQ(B.Rt.currentThread(), &InB);
      EXPECT_EQ(A.Rt.currentThread(), &InA);
    }
    A.Rt.setCurrentThread(nullptr);
    EXPECT_EQ(A.Rt.currentThread(), nullptr);
    EXPECT_EQ(B.Rt.currentThread(), &InB);
  });
  // The bindings belong to that OS thread alone.
  EXPECT_EQ(A.Rt.currentThread(), nullptr);
  EXPECT_EQ(B.Rt.currentThread(), nullptr);
}

TEST(CurrentThreadRegistry, SeventeenthBindingEvictsTheColdest) {
  std::vector<std::unique_ptr<VmWorld>> Worlds;
  for (int I = 0; I < 17; ++I)
    Worlds.push_back(std::make_unique<VmWorld>());
  onFreshThread([&] {
    for (auto &W : Worlds)
      W->Rt.setCurrentThread(&W->main());
    // Sixteen entries fit: the first binding fell off the back.
    EXPECT_EQ(Worlds[0]->Rt.currentThread(), nullptr);
    for (size_t I = 1; I < Worlds.size(); ++I)
      EXPECT_EQ(Worlds[I]->Rt.currentThread(), &Worlds[I]->main()) << I;
  });
}

TEST(CurrentThreadRegistry, ReusedRuntimeAddressReadsNull) {
  jvm::Vm Vm;
  alignas(jni::JniRuntime) unsigned char Storage[sizeof(jni::JniRuntime)];
  onFreshThread([&] {
    auto *First = new (Storage) jni::JniRuntime(Vm);
    First->setCurrentThread(&Vm.mainThread());
    EXPECT_EQ(First->currentThread(), &Vm.mainThread());
    First->~JniRuntime();
    // A new runtime at the same address carries a new epoch, so the
    // binding the destroyed one left behind does not match it.
    auto *Second = new (Storage) jni::JniRuntime(Vm);
    EXPECT_EQ(Second->currentThread(), nullptr);
    Second->~JniRuntime();
  });
}

} // namespace
