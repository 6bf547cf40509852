//===- tests/jvmti_test.cpp - JVMTI layer unit tests ----------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

using namespace jinn;
using namespace jinn::testing;
using jinn::jni::FnId;

namespace {

struct JvmtiTest : ::testing::Test {
  VmWorld W;
  JNIEnv *Env = W.env();
  jvmti::JvmtiEnv Jvmti{W.Rt};
};

TEST_F(JvmtiTest, ThreadEventsFire) {
  std::vector<std::string> Log;
  jvmti::EventCallbacks Cb;
  Cb.ThreadStart = [&](jvm::JThread &T) { Log.push_back("start:" + T.name()); };
  Cb.ThreadEnd = [&](jvm::JThread &T) { Log.push_back("end:" + T.name()); };
  Jvmti.setEventCallbacks(std::move(Cb));
  jvm::JThread &Worker = W.Vm.attachThread("worker");
  W.Vm.detachThread(Worker);
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0], "start:worker");
  EXPECT_EQ(Log[1], "end:worker");
}

TEST_F(JvmtiTest, VmDeathAndGcEventsFire) {
  int Deaths = 0, Gcs = 0;
  jvmti::EventCallbacks Cb;
  Cb.VmDeath = [&] { ++Deaths; };
  Cb.GcFinish = [&] { ++Gcs; };
  Jvmti.setEventCallbacks(std::move(Cb));
  Jvmti.forceGarbageCollection();
  W.Vm.shutdown();
  W.Vm.shutdown();
  EXPECT_EQ(Gcs, 1);
  EXPECT_EQ(Deaths, 1);
}

TEST_F(JvmtiTest, ObjectIdentityIsStableAcrossHandles) {
  jstring S = Env->functions->NewStringUTF(Env, "tagged");
  jobject G = Env->functions->NewGlobalRef(Env, S);
  int64_t IdLocal = Jvmti.getObjectIdentity(S);
  int64_t IdGlobal = Jvmti.getObjectIdentity(G);
  EXPECT_NE(IdLocal, 0);
  EXPECT_EQ(IdLocal, IdGlobal);
  Env->functions->DeleteLocalRef(Env, S);
  EXPECT_EQ(Jvmti.getObjectIdentity(S), 0); // dead handle: no identity
  EXPECT_EQ(Jvmti.getObjectIdentity(G), IdGlobal);
}

TEST_F(JvmtiTest, DispatcherInstallsInterposedTable) {
  const JNINativeInterface_ *Before = W.Rt.activeTable();
  EXPECT_EQ(Before, W.Rt.defaultTable());
  Jvmti.dispatcher();
  EXPECT_EQ(W.Rt.activeTable(), jvmti::interposedTable());
  EXPECT_EQ(Env->functions, jvmti::interposedTable());
  jvmti::removeInterposition(W.Rt);
  EXPECT_EQ(W.Rt.activeTable(), W.Rt.defaultTable());
}

TEST_F(JvmtiTest, PreHooksSeeClassifiedArguments) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  std::vector<uint64_t> SeenWords;
  D.addPre(FnId::GetStringUTFLength, [&](jvmti::CapturedCall &Call) {
    ASSERT_EQ(Call.numArgs(), 1u);
    EXPECT_EQ(Call.arg(0).Cls, jni::ArgClass::Ref);
    SeenWords.push_back(Call.refWord(0));
  });
  jstring S = Env->functions->NewStringUTF(Env, "abc");
  Env->functions->GetStringUTFLength(Env, S);
  ASSERT_EQ(SeenWords.size(), 1u);
  EXPECT_EQ(SeenWords[0], jni::handleWord(S));
}

TEST_F(JvmtiTest, PostHooksSeeReturnValues) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  uint64_t RetWord = 0;
  bool RetIsRef = false;
  jint Scalar = -1;
  D.addPost(FnId::NewStringUTF, [&](jvmti::CapturedCall &Call) {
    RetIsRef = Call.returnIsRef();
    RetWord = Call.returnWord();
  });
  D.addPost(FnId::GetStringUTFLength, [&](jvmti::CapturedCall &Call) {
    Scalar = static_cast<jint>(Call.returnWord());
  });
  jstring S = Env->functions->NewStringUTF(Env, "abcd");
  Env->functions->GetStringUTFLength(Env, S);
  EXPECT_TRUE(RetIsRef);
  EXPECT_EQ(RetWord, jni::handleWord(S));
  EXPECT_EQ(Scalar, 4);
}

TEST_F(JvmtiTest, AbortSuppressesTheUnderlyingCall) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  D.addPre(FnId::NewStringUTF,
           [](jvmti::CapturedCall &Call) { Call.abortCall(); });
  int PostRuns = 0;
  D.addPost(FnId::NewStringUTF,
            [&](jvmti::CapturedCall &) { ++PostRuns; });
  jstring S = Env->functions->NewStringUTF(Env, "never created");
  EXPECT_EQ(S, nullptr);
  EXPECT_EQ(PostRuns, 0); // post hooks do not run for aborted calls
  EXPECT_EQ(W.Vm.heap().stats().TotalAllocated,
            W.Vm.heap().stats().TotalAllocated); // and nothing allocated
}

TEST_F(JvmtiTest, AbortStopsLaterPreHooks) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  int Later = 0;
  D.addPre(FnId::GetVersion,
           [](jvmti::CapturedCall &Call) { Call.abortCall(); });
  D.addPre(FnId::GetVersion, [&](jvmti::CapturedCall &) { ++Later; });
  EXPECT_EQ(Env->functions->GetVersion(Env), 0); // default value
  EXPECT_EQ(Later, 0);
}

TEST_F(JvmtiTest, PreAllRunsBeforePerFunctionHooks) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  std::vector<int> Order;
  D.addPreAll([&](jvmti::CapturedCall &) { Order.push_back(1); });
  D.addPre(FnId::GetVersion,
           [&](jvmti::CapturedCall &) { Order.push_back(2); });
  Env->functions->GetVersion(Env);
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1);
  EXPECT_EQ(Order[1], 2);
}

TEST_F(JvmtiTest, MaterializeCallArgsDecodesAgainstTheSignature) {
  jvm::ClassDef Def;
  Def.Name = "t/Args";
  Def.method("m", "(ILjava/lang/String;)V",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               return jvm::Value::makeVoid();
             },
             true);
  W.define(Def);
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  std::vector<jvalue> Seen;
  D.addPre(FnId::CallStaticVoidMethodA, [&](jvmti::CapturedCall &Call) {
    if (Call.materializeCallArgs())
      Seen.assign(Call.callArgs().begin(), Call.callArgs().end());
    EXPECT_NE(Call.methodArg(), nullptr);
  });
  jclass Cls = Env->functions->FindClass(Env, "t/Args");
  jmethodID M =
      Env->functions->GetStaticMethodID(Env, Cls, "m",
                                        "(ILjava/lang/String;)V");
  jstring S = Env->functions->NewStringUTF(Env, "x");
  jvalue Args[2];
  Args[0].i = 77;
  Args[1].l = S;
  Env->functions->CallStaticVoidMethodA(Env, Cls, M, Args);
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_EQ(Seen[0].i, 77);
  EXPECT_EQ(Seen[1].l, S);
}

TEST_F(JvmtiTest, NativeMethodBindEventCanWrap) {
  std::vector<std::string> Trace;
  jvmti::EventCallbacks Cb;
  Cb.NativeMethodBind = [&](jvm::MethodInfo &Method,
                            jni::JniNativeStdFn &Bound) {
    Trace.push_back("bind:" + Method.Name);
    jni::JniNativeStdFn Original = std::move(Bound);
    Bound = [&Trace, Original](JNIEnv *E, jobject Self,
                               const jvalue *Args) -> jvalue {
      Trace.push_back("enter");
      jvalue R = Original(E, Self, Args);
      Trace.push_back("exit");
      return R;
    };
  };
  Jvmti.setEventCallbacks(std::move(Cb));

  jvm::ClassDef Def;
  Def.Name = "t/N";
  Def.nativeMethod("n", "()I", true);
  W.define(Def);
  W.bindNative("t/N", "n", "()I",
               [&](JNIEnv *, jobject, const jvalue *) -> jvalue {
                 Trace.push_back("body");
                 jvalue R;
                 R.i = 5;
                 return R;
               });
  jvm::Value Out = W.call("t/N", "n", "()I");
  EXPECT_EQ(Out.I, 5);
  ASSERT_EQ(Trace.size(), 4u);
  EXPECT_EQ(Trace[0], "bind:n");
  EXPECT_EQ(Trace[1], "enter");
  EXPECT_EQ(Trace[2], "body");
  EXPECT_EQ(Trace[3], "exit");
}

TEST_F(JvmtiTest, VariadicFormsDelegateThroughTheWrappedAForm) {
  jvm::ClassDef Def;
  Def.Name = "t/V";
  Def.method("add", "(II)I",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeInt(
                   static_cast<int32_t>(Args[0].I + Args[1].I));
             },
             true);
  W.define(Def);

  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  int AFormChecks = 0;
  D.addPre(FnId::CallStaticIntMethodA,
           [&](jvmti::CapturedCall &) { ++AFormChecks; });

  jclass Cls = Env->functions->FindClass(Env, "t/V");
  jmethodID M = Env->functions->GetStaticMethodID(Env, Cls, "add", "(II)I");
  EXPECT_EQ(Env->functions->CallStaticIntMethod(Env, Cls, M, 2, 3), 5);
  EXPECT_EQ(AFormChecks, 1); // exactly once per logical call
}

TEST_F(JvmtiTest, HookCountsReflectRegistration) {
  jvmti::InterposeDispatcher &D = Jvmti.dispatcher();
  size_t Before = D.hookCount();
  D.addPre(FnId::FindClass, [](jvmti::CapturedCall &) {});
  D.addPostAll([](jvmti::CapturedCall &) {});
  EXPECT_EQ(D.hookCount(), Before + 2);
  EXPECT_EQ(D.preCount(FnId::FindClass), 1u);
  D.clear();
  EXPECT_EQ(D.hookCount(), 0u);
}

} // namespace
