//===- perfbench/Dense.cpp - The benchmark's dense JNI native class ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Dense.h"

#include "support/Rng.h"

#include <map>
#include <memory>

using namespace jinn;
using namespace jinn::scenarios;

namespace perfbench {

namespace {

constexpr const char *DenseClassName = "perfbench/Dense";

/// Per-world state the native bodies reach: IDs resolved once at
/// preparation (as real JNI code caches them), the shared receiver object
/// and array, and the running totals.
struct DenseState {
  jobject Obj = nullptr;    ///< global ref: a perfbench/Dense instance
  jintArray Arr = nullptr;  ///< global ref: 16 ints
  jfieldID Counter = nullptr;
  jfieldID Value = nullptr;
  jmethodID Accum = nullptr;
  jmethodID Mix = nullptr;
  jmethodID Fault = nullptr;
  DenseRun Totals;
};

std::map<jvm::Vm *, std::shared_ptr<DenseState>> &states() {
  static std::map<jvm::Vm *, std::shared_ptr<DenseState>> Map;
  return Map;
}

const char *const Payloads[8] = {
    "org/dacapo/TokenStream", "soak/request-payload", "perfbench",
    "java/lang/String",       "x",                    "jinn-dense-batch",
    "utf8 payload 0123456789", "Figure 2"};

/// One operation of class \p Class with operand \p V; returns its
/// contribution to the checksum and adds its JNI call count to \p Calls.
uint64_t runOp(DenseState &St, JNIEnv *Env, jclass Cls, DenseClass Class,
               uint32_t V, uint64_t &Calls) {
  const JNINativeInterface_ *F = Env->functions;
  uint64_t Sum = 0;
  switch (Class) {
  case DenseClass::StringUse: {
    jstring S = F->NewStringUTF(Env, Payloads[V & 7]);
    Sum += static_cast<uint64_t>(F->GetStringUTFLength(Env, S));
    const char *C = F->GetStringUTFChars(Env, S, nullptr);
    Sum += static_cast<unsigned char>(C[0]);
    F->ReleaseStringUTFChars(Env, S, C);
    F->DeleteLocalRef(Env, S);
    Calls += 5;
    break;
  }
  case DenseClass::FieldAccess: {
    jint C = F->GetStaticIntField(Env, Cls, St.Counter);
    F->SetStaticIntField(Env, Cls, St.Counter, C + 1);
    jint W = F->GetIntField(Env, St.Obj, St.Value);
    F->SetIntField(Env, St.Obj, St.Value, W ^ static_cast<jint>(V & 0xffff));
    Sum += static_cast<uint32_t>(C) + static_cast<uint32_t>(W);
    Calls += 4;
    break;
  }
  case DenseClass::ArrayRegion: {
    jintArray A = F->NewIntArray(Env, 16);
    jint Buf[16] = {static_cast<jint>(V & 0xffff), 1, 2, 3};
    F->SetIntArrayRegion(Env, A, 0, 16, Buf);
    F->GetIntArrayRegion(Env, A, 0, 16, Buf);
    Sum += static_cast<uint64_t>(Buf[0]) + F->GetArrayLength(Env, A);
    F->DeleteLocalRef(Env, A);
    Calls += 5;
    break;
  }
  case DenseClass::Callback: {
    jvalue Args[1];
    Args[0].i = static_cast<jint>(V & 0xffff);
    Sum += static_cast<uint32_t>(
        F->CallStaticIntMethodA(Env, Cls, St.Accum, Args));
    Sum += static_cast<uint32_t>(F->CallIntMethodA(Env, St.Obj, St.Mix, Args));
    Calls += 2;
    break;
  }
  case DenseClass::GlobalRef: {
    jobject G = F->NewGlobalRef(Env, St.Obj);
    Sum += F->IsSameObject(Env, G, St.Obj) ? 1 : 0;
    F->DeleteGlobalRef(Env, G);
    jweak W = F->NewWeakGlobalRef(Env, St.Obj);
    F->DeleteWeakGlobalRef(Env, W);
    Calls += 5;
    break;
  }
  case DenseClass::Monitor: {
    if (F->MonitorEnter(Env, St.Obj) == JNI_OK) {
      Sum += static_cast<uint32_t>(F->GetStaticIntField(Env, Cls, St.Counter));
      F->MonitorExit(Env, St.Obj);
      Calls += 3;
    } else {
      Calls += 1;
    }
    break;
  }
  case DenseClass::PinCritical: {
    auto *P = static_cast<jint *>(
        F->GetPrimitiveArrayCritical(Env, St.Arr, nullptr));
    Sum += static_cast<uint32_t>(P[V & 15]);
    F->ReleasePrimitiveArrayCritical(Env, St.Arr, P, JNI_ABORT);
    jint *E = F->GetIntArrayElements(Env, St.Arr, nullptr);
    Sum += static_cast<uint32_t>(E[(V >> 4) & 15]);
    F->ReleaseIntArrayElements(Env, St.Arr, E, JNI_ABORT);
    Calls += 4;
    break;
  }
  case DenseClass::LocalFrame: {
    F->PushLocalFrame(Env, 4);
    jobject L = F->NewLocalRef(Env, St.Obj);
    jstring S = F->NewStringUTF(Env, Payloads[V & 7]);
    Sum += static_cast<uint64_t>(F->GetStringUTFLength(Env, S)) + (L ? 1 : 0);
    F->PopLocalFrame(Env, nullptr);
    Calls += 5;
    break;
  }
  case DenseClass::Exception: {
    F->CallStaticVoidMethodA(Env, Cls, St.Fault, nullptr);
    Sum += F->ExceptionCheck(Env) ? 1 : 0;
    jthrowable T = F->ExceptionOccurred(Env);
    F->ExceptionClear(Env);
    F->DeleteLocalRef(Env, T);
    Calls += 5;
    break;
  }
  case DenseClass::Count:
    break;
  }
  return Sum;
}

} // namespace

const char *denseClassName(int Class) {
  static const char *const Names[NumDenseClasses] = {
      "string_use", "field_access", "array_region", "callback",
      "global_ref", "monitor",      "pin_critical", "local_frame",
      "exception"};
  return Class >= 0 && Class < NumDenseClasses ? Names[Class] : "mix";
}

void prepareDenseWorld(ScenarioWorld &World) {
  auto St = std::make_shared<DenseState>();
  states()[&World.Vm] = St;

  jvm::ClassDef Def;
  Def.Name = DenseClassName;
  Def.field("counter", "I", /*IsStatic=*/true);
  Def.field("value", "I");
  Def.method(
      "accum", "(I)I",
      [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
         const std::vector<jvm::Value> &Args) {
        return jvm::Value::makeInt(static_cast<int32_t>(Args[0].I * 31 + 7));
      },
      /*IsStatic=*/true, "Dense.java:10");
  Def.method(
      "mix", "(I)I",
      [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
         const std::vector<jvm::Value> &Args) {
        return jvm::Value::makeInt(static_cast<int32_t>(Args[0].I ^ 0x5a5a));
      },
      /*IsStatic=*/false, "Dense.java:14");
  Def.method(
      "fault", "()V",
      [](jvm::Vm &V, jvm::JThread &T, const jvm::Value &,
         const std::vector<jvm::Value> &) {
        V.throwNew(T, "java/lang/RuntimeException", "dense fault");
        return jvm::Value::makeVoid();
      },
      /*IsStatic=*/true, "Dense.java:18");
  Def.nativeMethod("batch", "(II)I", /*IsStatic=*/true, "Dense.java:22");
  Def.nativeMethod("empty", "()V", /*IsStatic=*/true, "Dense.java:26");
  World.Vm.defineClass(Def);

  jvm::Klass *Kl = World.Vm.findClass(DenseClassName);
  World.Rt.registerNative(
      Kl, "batch", "(II)I",
      [St](JNIEnv *Env, jobject SelfClass, const jvalue *Args) -> jvalue {
        jclass Cls = static_cast<jclass>(SelfClass);
        SplitMix64 Rng(static_cast<uint64_t>(static_cast<uint32_t>(Args[0].i)));
        const int Only = Args[1].i;
        uint64_t Calls = 0, Sum = 0;
        for (int Op = 0; Op < DenseOpsPerBatch; ++Op) {
          uint64_t R = Rng.next();
          int Class = Only >= 0 ? Only : static_cast<int>(R % NumDenseClasses);
          Sum += runOp(*St, Env, Cls, static_cast<DenseClass>(Class),
                       static_cast<uint32_t>(R >> 32), Calls);
        }
        St->Totals.Ops += DenseOpsPerBatch;
        St->Totals.JniCalls += Calls;
        St->Totals.Checksum = St->Totals.Checksum * 1099511628211ULL + Sum;
        jvalue Ret;
        Ret.i = static_cast<jint>(Sum);
        return Ret;
      });
  World.Rt.registerNative(
      Kl, "empty", "()V",
      [](JNIEnv *, jobject, const jvalue *) -> jvalue { return jvalue{}; });

  // Shared receiver and array, created from the main thread's top frame.
  JNIEnv *Env = World.env();
  const JNINativeInterface_ *F = Env->functions;
  jclass Cls = F->FindClass(Env, DenseClassName);
  St->Counter = F->GetStaticFieldID(Env, Cls, "counter", "I");
  St->Value = F->GetFieldID(Env, Cls, "value", "I");
  St->Accum = F->GetStaticMethodID(Env, Cls, "accum", "(I)I");
  St->Mix = F->GetMethodID(Env, Cls, "mix", "(I)I");
  St->Fault = F->GetStaticMethodID(Env, Cls, "fault", "()V");
  jobject Obj = F->AllocObject(Env, Cls);
  St->Obj = F->NewGlobalRef(Env, Obj);
  F->DeleteLocalRef(Env, Obj);
  jintArray Arr = F->NewIntArray(Env, 16);
  jint Init[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
  F->SetIntArrayRegion(Env, Arr, 0, 16, Init);
  St->Arr = static_cast<jintArray>(F->NewGlobalRef(Env, Arr));
  F->DeleteLocalRef(Env, Arr);
  F->DeleteLocalRef(Env, Cls);
}

void releaseDenseWorld(ScenarioWorld &World) {
  auto It = states().find(&World.Vm);
  if (It == states().end())
    return;
  JNIEnv *Env = World.env();
  Env->functions->DeleteGlobalRef(Env, It->second->Obj);
  Env->functions->DeleteGlobalRef(Env, It->second->Arr);
  states().erase(It);
}

DenseRun runDenseBatches(ScenarioWorld &World,
                         const std::vector<int32_t> &Seeds, int Class) {
  DenseState &St = *states().at(&World.Vm);
  St.Totals = DenseRun();
  jvm::Klass *Kl = World.Vm.findClass(DenseClassName);
  jvm::MethodInfo *Batch = Kl->findMethod("batch", "(II)I",
                                          /*WantStatic=*/true);
  jvm::JThread &Main = World.Vm.mainThread();
  std::vector<jvm::Value> Args(2);
  for (int32_t Seed : Seeds) {
    Args[0] = jvm::Value::makeInt(Seed);
    Args[1] = jvm::Value::makeInt(Class);
    World.Vm.invoke(Main, Batch, jvm::Value::makeNull(), Args,
                    /*VirtualDispatch=*/false);
  }
  return St.Totals;
}

void runEmptyNatives(ScenarioWorld &World, uint64_t Count) {
  jvm::Klass *Kl = World.Vm.findClass(DenseClassName);
  jvm::MethodInfo *Empty = Kl->findMethod("empty", "()V",
                                          /*WantStatic=*/true);
  jvm::JThread &Main = World.Vm.mainThread();
  const std::vector<jvm::Value> NoArgs;
  for (uint64_t I = 0; I < Count; ++I)
    World.Vm.invoke(Main, Empty, jvm::Value::makeNull(), NoArgs,
                    /*VirtualDispatch=*/false);
}

} // namespace perfbench
