//===- tests/jinn_machines_test.cpp - Per-machine checker tests ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fine-grained positive/negative tests for each of the fourteen machines:
/// every checked error fires on its trigger, and — just as important —
/// correct protocols never produce a report (Jinn has no false positives).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include <atomic>
#include <thread>

using namespace jinn;
using namespace jinn::testing;

namespace {

struct Machines : ::testing::Test {
  JinnWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = W.env()->functions;

  size_t reportsFor(const char *Machine) {
    return W.Jinn.reporter().countFor(Machine);
  }
  /// Full report messages of \p Machine, in report order.
  std::vector<std::string> messagesFor(const char *Machine) {
    std::vector<std::string> Out;
    for (const agent::JinnReport &Report : W.Jinn.reporter().reports())
      if (Report.Machine == Machine)
        Out.push_back(Report.Message);
    return Out;
  }
  void clearPending() { W.main().Pending = jvm::ObjectId(); }
};

//===----------------------------------------------------------------------===
// JNIEnv* state
//===----------------------------------------------------------------------===

TEST_F(Machines, EnvState_WrongThreadEnvIsFlagged) {
  jvm::JThread &Worker = W.Vm.attachThread("worker");
  JNIEnv *WorkerEnv = W.Rt.envFor(Worker);
  jni::JniRuntime::ScopedCurrent Scope(W.Rt, &W.main());
  WorkerEnv->functions->GetVersion(WorkerEnv);
  EXPECT_EQ(reportsFor("JNIEnv* state"), 1u);
}

TEST_F(Machines, EnvState_MatchingThreadIsSilent) {
  jni::JniRuntime::ScopedCurrent Scope(W.Rt, &W.main());
  Fns->GetVersion(Env);
  EXPECT_EQ(reportsFor("JNIEnv* state"), 0u);
}

//===----------------------------------------------------------------------===
// Exception state
//===----------------------------------------------------------------------===

TEST_F(Machines, Exception_ObliviousCallsAreAllowedWhilePending) {
  jstring S = Fns->NewStringUTF(Env, "x");
  const char *Utf = Fns->GetStringUTFChars(Env, S, nullptr);
  jclass Rte = Fns->FindClass(Env, "java/lang/RuntimeException");
  Fns->ThrowNew(Env, Rte, "pending");
  // The paper's protocol: query, release resources, clear.
  EXPECT_EQ(Fns->ExceptionCheck(Env), JNI_TRUE);
  Fns->ExceptionDescribe(Env);
  Fns->ReleaseStringUTFChars(Env, S, Utf);
  Fns->DeleteLocalRef(Env, S);
  Fns->ExceptionClear(Env);
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Exception_SensitiveCallWhilePendingIsFlagged) {
  jclass Rte = Fns->FindClass(Env, "java/lang/RuntimeException");
  Fns->ThrowNew(Env, Rte, "pending");
  Fns->FindClass(Env, "java/lang/Object");
  EXPECT_EQ(reportsFor("Exception state"), 1u);
  // The new pending exception wraps the old one as its cause.
  jvm::ObjectId Cause = W.Vm.throwableCause(W.main().Pending);
  EXPECT_EQ(W.Vm.klassOf(Cause)->name(), "java/lang/RuntimeException");
}

//===----------------------------------------------------------------------===
// Critical-section state
//===----------------------------------------------------------------------===

TEST_F(Machines, Critical_SequentialAcquireReleaseIsLegal) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jstring Str = Fns->NewStringUTF(Env, "s");
  void *P1 = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, P1, 0);
  const jchar *P2 = Fns->GetStringCritical(Env, Str, nullptr);
  Fns->ReleaseStringCritical(Env, Str, P2);
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Critical_SensitiveCallInsideIsFlaggedBeforeTheVmActs) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  void *P = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  Fns->FindClass(Env, "java/lang/String");
  EXPECT_EQ(reportsFor("Critical-section state"), 1u);
  // Jinn aborted the call, so the production deadlock never happened.
  EXPECT_FALSE(W.Vm.diags().has(IncidentKind::PotentialDeadlock));
  clearPending();
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, P, 0);
}

TEST_F(Machines, Critical_UnmatchedReleaseIsFlagged) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jint Fake[4];
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, Fake, 0);
  EXPECT_EQ(reportsFor("Critical-section state"), 1u);
}

//===----------------------------------------------------------------------===
// Fixed typing
//===----------------------------------------------------------------------===

TEST_F(Machines, FixedTyping_StringWhereClassExpected) {
  jstring S = Fns->NewStringUTF(Env, "not a class");
  Fns->GetMethodID(Env, reinterpret_cast<jclass>(S), "m", "()V");
  EXPECT_EQ(reportsFor("Fixed typing"), 1u);
}

TEST_F(Machines, FixedTyping_WrongArrayKind) {
  jintArray Arr = Fns->NewIntArray(Env, 2);
  Fns->GetLongArrayElements(Env, reinterpret_cast<jlongArray>(Arr),
                            nullptr);
  EXPECT_EQ(reportsFor("Fixed typing"), 1u);
}

TEST_F(Machines, FixedTyping_NonThrowableToThrow) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject Plain = Fns->AllocObject(Env, Obj);
  Fns->Throw(Env, static_cast<jthrowable>(Plain));
  EXPECT_EQ(reportsFor("Fixed typing"), 1u);
}

TEST_F(Machines, FixedTyping_CorrectTypesAreSilent) {
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  jstring S = Fns->NewStringUTF(Env, "fine");
  Fns->GetStringUTFLength(Env, S);
  Fns->IsInstanceOf(Env, S, Str);
  jintArray Arr = Fns->NewIntArray(Env, 1);
  jint *E = Fns->GetIntArrayElements(Env, Arr, nullptr);
  Fns->ReleaseIntArrayElements(Env, Arr, E, 0);
  EXPECT_EQ(W.reportCount(), 0u);
}

//===----------------------------------------------------------------------===
// Entity-specific typing
//===----------------------------------------------------------------------===

struct EntityFixture : Machines {
  jclass Base = nullptr, Sub = nullptr;
  jmethodID StaticM = nullptr, InstanceM = nullptr;

  void SetUp() override {
    jvm::ClassDef B;
    B.Name = "e/Base";
    B.method("stat", "()I",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               return jvm::Value::makeInt(1);
             },
             /*IsStatic=*/true);
    B.method("inst", "(Ljava/lang/String;)V",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               return jvm::Value::makeVoid();
             });
    W.define(B);
    jvm::ClassDef S;
    S.Name = "e/Sub";
    S.Super = "e/Base";
    W.define(S);
    Base = Fns->FindClass(Env, "e/Base");
    Sub = Fns->FindClass(Env, "e/Sub");
    StaticM = Fns->GetStaticMethodID(Env, Base, "stat", "()I");
    InstanceM =
        Fns->GetMethodID(Env, Base, "inst", "(Ljava/lang/String;)V");
  }
};

TEST_F(EntityFixture, StaticCallThroughDeclaringClassIsSilent) {
  EXPECT_EQ(Fns->CallStaticIntMethodA(Env, Base, StaticM, nullptr), 1);
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(EntityFixture, StaticCallThroughInheritingClassIsFlagged) {
  Fns->CallStaticIntMethodA(Env, Sub, StaticM, nullptr); // Eclipse bug
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, InstanceMethodThroughCallStaticIsFlagged) {
  Fns->CallStaticVoidMethodA(Env, Base, InstanceM, nullptr);
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, WrongReturnKindFamilyIsFlagged) {
  // stat returns int; calling through Call<Long> is a mismatch.
  Fns->CallStaticLongMethodA(Env, Base, StaticM, nullptr);
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, NonConformingRefArgumentIsFlagged) {
  jobject Recv = Fns->AllocObject(Env, Base);
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject NotAString = Fns->AllocObject(Env, Obj);
  jvalue Args[1];
  Args[0].l = NotAString;
  Fns->CallVoidMethodA(Env, Recv, InstanceM, Args);
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, ConformingAndNullRefArgumentsAreSilent) {
  jobject Recv = Fns->AllocObject(Env, Base);
  jvalue Args[1];
  Args[0].l = Fns->NewStringUTF(Env, "ok");
  Fns->CallVoidMethodA(Env, Recv, InstanceM, Args);
  Args[0].l = nullptr;
  Fns->CallVoidMethodA(Env, Recv, InstanceM, Args);
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(EntityFixture, ReceiverOfUnrelatedClassIsFlagged) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject Foreign = Fns->AllocObject(Env, Obj);
  Fns->CallVoidMethodA(Env, Foreign, InstanceM, nullptr);
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, GarbageMethodIdIsFlagged) {
  int Stack = 0;
  Fns->CallStaticIntMethodA(Env, Base,
                            reinterpret_cast<jmethodID>(&Stack), nullptr);
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

TEST_F(EntityFixture, FieldKindMismatchIsFlagged) {
  jvm::ClassDef Def;
  Def.Name = "e/F";
  Def.field("x", "I");
  W.define(Def);
  jclass F = Fns->FindClass(Env, "e/F");
  jobject O = Fns->AllocObject(Env, F);
  jfieldID X = Fns->GetFieldID(Env, F, "x", "I");
  Fns->GetLongField(Env, O, X); // int field read as long
  EXPECT_EQ(reportsFor("Entity-specific typing"), 1u);
}

//===----------------------------------------------------------------------===
// Access control
//===----------------------------------------------------------------------===

TEST_F(Machines, AccessControl_FinalWriteFlaggedNonFinalSilent) {
  jvm::ClassDef Def;
  Def.Name = "a/C";
  Def.field("mutable", "I", true, false);
  Def.field("CONST", "I", true, true);
  W.define(Def);
  jclass C = Fns->FindClass(Env, "a/C");
  jfieldID M = Fns->GetStaticFieldID(Env, C, "mutable", "I");
  jfieldID K = Fns->GetStaticFieldID(Env, C, "CONST", "I");
  Fns->SetStaticIntField(Env, C, M, 1);
  EXPECT_EQ(W.reportCount(), 0u);
  Fns->SetStaticIntField(Env, C, K, 2);
  EXPECT_EQ(reportsFor("Access control"), 1u);
}

//===----------------------------------------------------------------------===
// Nullness
//===----------------------------------------------------------------------===

TEST_F(Machines, Nullness_RequiredParamsFlagged) {
  Fns->GetStringUTFChars(Env, nullptr, nullptr);
  EXPECT_EQ(reportsFor("Nullness"), 1u);
  clearPending();
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  Fns->GetMethodID(Env, Str, nullptr, "()V");
  EXPECT_EQ(reportsFor("Nullness"), 2u);
  clearPending();
  Fns->FindClass(Env, nullptr);
  EXPECT_EQ(reportsFor("Nullness"), 3u);
}

TEST_F(Machines, Nullness_TolerantParamsSilent) {
  jstring S = Fns->NewStringUTF(Env, "x");
  Fns->IsSameObject(Env, nullptr, nullptr);
  Fns->NewLocalRef(Env, nullptr);
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  Fns->NewObjectArray(Env, 2, Str, nullptr);
  (void)S;
  EXPECT_EQ(W.reportCount(), 0u);
}

//===----------------------------------------------------------------------===
// Pinned or copied string or array
//===----------------------------------------------------------------------===

TEST_F(Machines, Pinned_BalancedPairsAreSilentIncludingCommit) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jint *E = Fns->GetIntArrayElements(Env, Arr, nullptr);
  Fns->ReleaseIntArrayElements(Env, Arr, E, JNI_COMMIT); // keeps it live
  Fns->ReleaseIntArrayElements(Env, Arr, E, 0);          // real release
  W.Vm.shutdown();
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Pinned_LeakReportedAtVmDeath) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  Fns->GetIntArrayElements(Env, Arr, nullptr);
  W.Vm.shutdown();
  EXPECT_EQ(reportsFor("Pinned or copied string or array"), 1u);
  EXPECT_TRUE(W.reports().front().EndOfRun);
}

TEST_F(Machines, Pinned_DoubleFreeFlagged) {
  jstring S = Fns->NewStringUTF(Env, "s");
  const char *U = Fns->GetStringUTFChars(Env, S, nullptr);
  Fns->ReleaseStringUTFChars(Env, S, U);
  Fns->ReleaseStringUTFChars(Env, S, U);
  EXPECT_EQ(reportsFor("Pinned or copied string or array"), 1u);
}

//===----------------------------------------------------------------------===
// Monitor
//===----------------------------------------------------------------------===

TEST_F(Machines, Monitor_BalancedSilentUnbalancedLeaks) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject L1 = Fns->AllocObject(Env, Obj);
  jobject L2 = Fns->AllocObject(Env, Obj);
  Fns->MonitorEnter(Env, L1);
  Fns->MonitorEnter(Env, L1); // nested
  Fns->MonitorExit(Env, L1);
  Fns->MonitorExit(Env, L1);
  Fns->MonitorEnter(Env, L2); // never exited
  W.Vm.shutdown();
  EXPECT_EQ(reportsFor("Monitor"), 1u);
}

//===----------------------------------------------------------------------===
// Global / weak-global references
//===----------------------------------------------------------------------===

TEST_F(Machines, Global_CorrectLifecycleSilent) {
  jstring S = Fns->NewStringUTF(Env, "g");
  jobject G = Fns->NewGlobalRef(Env, S);
  Fns->GetStringUTFLength(Env, static_cast<jstring>(G));
  Fns->DeleteGlobalRef(Env, G);
  W.Vm.shutdown();
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Global_UseAfterDeleteFlagged) {
  jstring S = Fns->NewStringUTF(Env, "g");
  jobject G = Fns->NewGlobalRef(Env, S);
  Fns->DeleteGlobalRef(Env, G);
  Fns->GetStringUTFLength(Env, static_cast<jstring>(G));
  EXPECT_EQ(reportsFor("Global or weak global reference"), 1u);
}

TEST_F(Machines, Global_DoubleDeleteFlagged) {
  jstring S = Fns->NewStringUTF(Env, "g");
  jobject G = Fns->NewGlobalRef(Env, S);
  Fns->DeleteGlobalRef(Env, G);
  Fns->DeleteGlobalRef(Env, G);
  EXPECT_EQ(reportsFor("Global or weak global reference"), 1u);
}

TEST_F(Machines, Global_ClearedWeakUseIsLegal) {
  jstring S = Fns->NewStringUTF(Env, "w");
  jweak Wk = Fns->NewWeakGlobalRef(Env, S);
  Fns->DeleteLocalRef(Env, S);
  W.Vm.gc(); // the weak target dies; the handle resolves to null
  EXPECT_EQ(Fns->IsSameObject(Env, Wk, nullptr), JNI_TRUE);
  Fns->DeleteWeakGlobalRef(Env, Wk);
  W.Vm.shutdown();
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Global_LeakReportedAtVmDeath) {
  jstring S = Fns->NewStringUTF(Env, "g");
  Fns->NewGlobalRef(Env, S);
  W.Vm.shutdown();
  EXPECT_EQ(reportsFor("Global or weak global reference"), 1u);
}

//===----------------------------------------------------------------------===
// Local references
//===----------------------------------------------------------------------===

TEST_F(Machines, Local_ExactlySixteenIsFineSeventeenOverflows) {
  // The base frame has the spec-guaranteed capacity of 16.
  for (int I = 0; I < 16; ++I)
    Fns->NewStringUTF(Env, "r");
  EXPECT_EQ(W.reportCount(), 0u);
  Fns->NewStringUTF(Env, "seventeenth");
  EXPECT_EQ(reportsFor("Local reference"), 1u);
}

TEST_F(Machines, Local_EnsureLocalCapacityPreventsOverflow) {
  Fns->EnsureLocalCapacity(Env, 64);
  for (int I = 0; I < 40; ++I)
    Fns->NewStringUTF(Env, "r");
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Local_PushPopFrameProtocolSilent) {
  Fns->PushLocalFrame(Env, 32);
  for (int I = 0; I < 20; ++I)
    Fns->NewStringUTF(Env, "r");
  Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Local_PopWithoutPushFlagged) {
  // Ownership of the underflow moved to the pushdown local-frame nesting
  // machine; the local-reference machine keeps frame leaks.
  Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(reportsFor("Local-frame nesting"), 1u);
  EXPECT_EQ(reportsFor("Local reference"), 0u);
}

TEST_F(Machines, Local_DeleteThenUseFlagged) {
  jstring S = Fns->NewStringUTF(Env, "d");
  Fns->DeleteLocalRef(Env, S);
  Fns->GetStringUTFLength(Env, S);
  EXPECT_EQ(reportsFor("Local reference"), 1u);
}

TEST_F(Machines, Local_DoubleDeleteFlagged) {
  jstring S = Fns->NewStringUTF(Env, "d");
  Fns->DeleteLocalRef(Env, S);
  Fns->DeleteLocalRef(Env, S);
  EXPECT_EQ(reportsFor("Local reference"), 1u);
}

TEST_F(Machines, Local_CrossThreadUseFlagged) {
  jstring S = Fns->NewStringUTF(Env, "mine");
  jvm::JThread &Worker = W.Vm.attachThread("worker");
  JNIEnv *WorkerEnv = W.Rt.envFor(Worker);
  // The worker uses main's local reference through its own (correct) env.
  WorkerEnv->functions->GetStringUTFLength(WorkerEnv, S);
  EXPECT_GE(reportsFor("Local reference"), 1u);
}

TEST_F(Machines, Local_CrossThreadUseFromRealThreadReportsOwnership) {
  // The thread-confined shadow layout must still *detect* cross-thread
  // use: the wrong-thread check reads only the handle's thread bits, so it
  // never touches (or creates) the foreign thread's shadow table.
  jstring S = Fns->NewStringUTF(Env, "confined");
  JavaVM *Jvm = W.Rt.javaVm();
  std::atomic<bool> Attached{false};
  std::thread Worker([&] {
    JNIEnv *WorkerEnv = nullptr;
    if (Jvm->functions->AttachCurrentThread(Jvm, &WorkerEnv, nullptr) !=
        JNI_OK)
      return;
    Attached = true;
    // The env is the worker's own; only the reference is foreign.
    WorkerEnv->functions->GetStringUTFLength(WorkerEnv, S);
    WorkerEnv->functions->ExceptionClear(WorkerEnv);
    Jvm->functions->DetachCurrentThread(Jvm);
  });
  Worker.join();
  ASSERT_TRUE(Attached.load());
  EXPECT_EQ(reportsFor("JNIEnv* state"), 0u); // not an env mismatch
  ASSERT_EQ(reportsFor("Local reference"), 1u);
  bool FoundOwnership = false;
  for (const agent::JinnReport &Report : W.Jinn.reporter().reports())
    FoundOwnership |=
        Report.Message.find("belongs to thread") != std::string::npos;
  EXPECT_TRUE(FoundOwnership);
}

TEST_F(Machines, Local_MethodIdUsedAsReferenceFlagged) {
  jvm::ClassDef Def;
  Def.Name = "l/M";
  Def.method("m", "()V",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               return jvm::Value::makeVoid();
             },
             true);
  W.define(Def);
  jclass C = Fns->FindClass(Env, "l/M");
  jmethodID M = Fns->GetStaticMethodID(Env, C, "m", "()V");
  Fns->IsSameObject(Env, reinterpret_cast<jobject>(M), nullptr);
  EXPECT_EQ(reportsFor("Local reference"), 1u);
}

TEST_F(Machines, Local_HandlesSurviveMovingGc) {
  // The core JNI design point (paper §3): opaque handles stay valid when
  // the collector moves objects; only stale handles are errors.
  jstring S = Fns->NewStringUTF(Env, "movable");
  jvm::ObjectId Id = W.Rt.deref(Env, S);
  uint64_t Before = W.Vm.heap().resolve(Id)->Address;
  W.Vm.gc(); // moving collection
  EXPECT_NE(W.Vm.heap().resolve(Id)->Address, Before);
  EXPECT_EQ(Fns->GetStringUTFLength(Env, S), 7); // handle still valid
  EXPECT_EQ(W.reportCount(), 0u);
}

TEST_F(Machines, Local_CountChangeHookObservesAcquiresAndReleases) {
  std::vector<size_t> Counts;
  W.Jinn.machines().LocalRef.OnCountChange =
      [&](uint32_t, size_t Live) { Counts.push_back(Live); };
  jstring A = Fns->NewStringUTF(Env, "a");
  jstring B = Fns->NewStringUTF(Env, "b");
  Fns->DeleteLocalRef(Env, A);
  Fns->DeleteLocalRef(Env, B);
  ASSERT_GE(Counts.size(), 4u);
  EXPECT_EQ(Counts[Counts.size() - 1], 0u);
}

//===----------------------------------------------------------------------===
// Pushdown machines (counter/stack facility)
//===----------------------------------------------------------------------===

TEST_F(Machines, FrameNesting_DeepNestingBalancedIsSilent) {
  for (int I = 0; I < 3; ++I)
    Fns->PushLocalFrame(Env, 8);
  for (int I = 0; I < 3; ++I)
    Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(W.reportCount(), 0u);
  EXPECT_EQ(W.Jinn.machines().LocalFrameNesting.depthOf(W.main().id()), 0);
}

TEST_F(Machines, FrameNesting_OneExtraPopFlaggedOnce) {
  Fns->PushLocalFrame(Env, 8);
  Fns->PushLocalFrame(Env, 8);
  Fns->PopLocalFrame(Env, nullptr);
  Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(W.reportCount(), 0u);
  Fns->PopLocalFrame(Env, nullptr); // underflow
  EXPECT_EQ(reportsFor("Local-frame nesting"), 1u);
}

TEST_F(Machines, MonitorBalance_ReentrantEntriesBalancedIsSilent) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject Lock = Fns->AllocObject(Env, Obj);
  ASSERT_EQ(Fns->MonitorEnter(Env, Lock), JNI_OK);
  ASSERT_EQ(Fns->MonitorEnter(Env, Lock), JNI_OK); // legal re-entry
  EXPECT_EQ(Fns->MonitorExit(Env, Lock), JNI_OK);
  EXPECT_EQ(Fns->MonitorExit(Env, Lock), JNI_OK);
  EXPECT_EQ(W.reportCount(), 0u);
  EXPECT_EQ(W.Jinn.machines().MonitorBalance.depthOf(W.main().id()), 0);
}

TEST_F(Machines, MonitorBalance_UnmatchedExitFlaggedAndSuppressed) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  jobject Lock = Fns->AllocObject(Env, Obj);
  ASSERT_EQ(Fns->MonitorEnter(Env, Lock), JNI_OK);
  ASSERT_EQ(Fns->MonitorExit(Env, Lock), JNI_OK);
  Fns->MonitorExit(Env, Lock); // underflow: no outstanding JNI entry
  EXPECT_EQ(reportsFor("Monitor balance"), 1u);
  // The faulting exit was aborted, so the VM never saw the unbalanced
  // exit and threw no IllegalMonitorStateException of its own — the only
  // pending throwable is Jinn's.
  EXPECT_EQ(W.pendingClass(), "jinn/JNIAssertionFailure");
}

TEST_F(Machines, MonitorBalance_FailedEnterDoesNotCount) {
  jclass Obj = Fns->FindClass(Env, "java/lang/Object");
  Fns->MonitorEnter(Env, nullptr); // JNI_ERR path (nullness also fires)
  clearPending();
  jobject Lock = Fns->AllocObject(Env, Obj);
  ASSERT_EQ(Fns->MonitorEnter(Env, Lock), JNI_OK);
  ASSERT_EQ(Fns->MonitorExit(Env, Lock), JNI_OK);
  EXPECT_EQ(reportsFor("Monitor balance"), 0u);
}

TEST_F(Machines, CriticalNesting_NestedAcquireFlaggedAndSuppressed) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jstring Str = Fns->NewStringUTF(Env, "s");
  void *P1 = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  // BUG: a second critical section inside the first. The call is aborted,
  // so no pin is created and no other machine reports anything.
  const jchar *P2 = Fns->GetStringCritical(Env, Str, nullptr);
  EXPECT_EQ(P2, nullptr);
  EXPECT_EQ(reportsFor("Critical-section nesting"), 1u);
  clearPending();
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, P1, 0);
  W.Vm.shutdown();
  EXPECT_EQ(W.reportCount(), 1u); // no pin leak, no critical-state report
}

TEST_F(Machines, CriticalNesting_DepthTracksAcquireRelease) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  void *P = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  EXPECT_EQ(W.Jinn.machines().CriticalNesting.depthOf(W.main().id()), 1);
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, P, 0);
  EXPECT_EQ(W.Jinn.machines().CriticalNesting.depthOf(W.main().id()), 0);
  EXPECT_EQ(W.reportCount(), 0u);
}

//===----------------------------------------------------------------------===
// Argument-position report text: the machines name the offending argument
// only on the violation path, so these pin the exact text at position 1
// and past it.
//===----------------------------------------------------------------------===

using Messages = std::vector<std::string>;

TEST_F(Machines, ArgText_LocalNotAReference) {
  jvm::ClassDef Def;
  Def.Name = "l/ArgText";
  Def.method("m", "()V",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               return jvm::Value::makeVoid();
             },
             true);
  W.define(Def);
  jclass C = Fns->FindClass(Env, "l/ArgText");
  jmethodID M = Fns->GetStaticMethodID(Env, C, "m", "()V");
  ASSERT_NE(M, nullptr);
  jobject Garbage = reinterpret_cast<jobject>(M);
  Fns->IsSameObject(Env, Garbage, nullptr);
  clearPending();
  Fns->IsSameObject(Env, C, Garbage);
  EXPECT_EQ(messagesFor("Local reference"),
            (Messages{"argument 1 is not a JNI reference (a method or field "
                      "ID, or a stray pointer?) in IsSameObject.",
                      "argument 2 is not a JNI reference (a method or field "
                      "ID, or a stray pointer?) in IsSameObject."}));
}

TEST_F(Machines, ArgText_LocalWrongThread) {
  jstring Mine = Fns->NewStringUTF(Env, "mine");
  jvm::JThread &Worker = W.Vm.attachThread("worker");
  JNIEnv *WorkerEnv = W.Rt.envFor(Worker);
  const JNINativeInterface_ *WFns = WorkerEnv->functions;
  jstring Theirs = WFns->NewStringUTF(WorkerEnv, "theirs");
  WFns->IsSameObject(WorkerEnv, Mine, nullptr);
  Worker.Pending = jvm::ObjectId();
  WFns->IsSameObject(WorkerEnv, Theirs, Mine);
  std::string Owner = std::to_string(W.main().id());
  std::string Current = std::to_string(Worker.id());
  EXPECT_EQ(messagesFor("Local reference"),
            (Messages{"argument 1 is a local reference that belongs to "
                      "thread " + Owner + ", not to the current thread " +
                          Current + " in IsSameObject.",
                      "argument 2 is a local reference that belongs to "
                      "thread " + Owner + ", not to the current thread " +
                          Current + " in IsSameObject."}));
}

TEST_F(Machines, ArgText_LocalDangling) {
  jstring Ok = Fns->NewStringUTF(Env, "ok");
  jstring Dead = Fns->NewStringUTF(Env, "dead");
  Fns->DeleteLocalRef(Env, Dead);
  Fns->IsSameObject(Env, Dead, nullptr);
  clearPending();
  Fns->IsSameObject(Env, Ok, Dead);
  EXPECT_EQ(messagesFor("Local reference"),
            (Messages{"argument 1 is a dangling local reference (its frame "
                      "was popped or it was deleted) in IsSameObject.",
                      "argument 2 is a dangling local reference (its frame "
                      "was popped or it was deleted) in IsSameObject."}));
}

TEST_F(Machines, ArgText_GlobalDangling) {
  jstring S = Fns->NewStringUTF(Env, "g");
  jobject G = Fns->NewGlobalRef(Env, S);
  jweak Wk = Fns->NewWeakGlobalRef(Env, S);
  Fns->DeleteGlobalRef(Env, G);
  Fns->DeleteWeakGlobalRef(Env, Wk);
  Fns->IsSameObject(Env, G, nullptr);
  clearPending();
  Fns->IsSameObject(Env, S, Wk);
  EXPECT_EQ(messagesFor("Global or weak global reference"),
            (Messages{"argument 1 is a dangling global reference (deleted "
                      "earlier) in IsSameObject.",
                      "argument 2 is a dangling weak global reference "
                      "(deleted earlier) in IsSameObject."}));
}

TEST_F(Machines, ArgText_FixedTypingNotAssignable) {
  jstring S = Fns->NewStringUTF(Env, "not a class");
  Fns->GetMethodID(Env, reinterpret_cast<jclass>(S), "m", "()V");
  clearPending();
  Fns->IsInstanceOf(Env, S, reinterpret_cast<jclass>(S));
  EXPECT_EQ(messagesFor("Fixed typing"),
            (Messages{"argument 1 is not assignable to the expected type "
                      "java/lang/Class in GetMethodID.",
                      "argument 2 is not assignable to the expected type "
                      "java/lang/Class in IsInstanceOf."}));
}

} // namespace
