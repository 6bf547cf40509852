//===- tests/vm_test.cpp - VM core unit tests ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvm/Vm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace jinn;
using namespace jinn::jvm;

namespace {

struct VmTest : ::testing::Test {
  Vm V;
  JThread &Main = V.mainThread();
};

TEST_F(VmTest, BootstrapClassesExist) {
  for (const char *Name :
       {"java/lang/Object", "java/lang/Class", "java/lang/String",
        "java/lang/Throwable", "java/lang/RuntimeException",
        "java/lang/NullPointerException", "java/lang/Error",
        "java/lang/OutOfMemoryError", "java/nio/ByteBuffer",
        "java/lang/reflect/Method", "java/lang/reflect/Field"})
    EXPECT_NE(V.findClass(Name), nullptr) << Name;
}

TEST_F(VmTest, ClassHierarchy) {
  Klass *Npe = V.findClass("java/lang/NullPointerException");
  EXPECT_TRUE(Npe->isSubclassOf(V.findClass("java/lang/RuntimeException")));
  EXPECT_TRUE(Npe->isSubclassOf(V.throwableClass()));
  EXPECT_TRUE(Npe->isSubclassOf(V.objectClass()));
  EXPECT_FALSE(V.throwableClass()->isSubclassOf(Npe));
}

TEST_F(VmTest, MirrorsRoundTrip) {
  Klass *Str = V.stringClass();
  EXPECT_EQ(V.klassFromMirror(Str->Mirror), Str);
  EXPECT_EQ(V.klassOf(Str->Mirror), V.classClass());
}

TEST_F(VmTest, ArrayClassesOnDemand) {
  Klass *IntArr = V.findClass("[I");
  ASSERT_NE(IntArr, nullptr);
  EXPECT_TRUE(IntArr->isArray());
  EXPECT_EQ(IntArr->elementType().Kind, JType::Int);
  EXPECT_EQ(IntArr->super(), V.objectClass());
  Klass *StrArr = V.findClass("[Ljava/lang/String;");
  ASSERT_NE(StrArr, nullptr);
  EXPECT_EQ(StrArr->elementType().ClassName, "java/lang/String");
  // Unknown element class: no array class either.
  EXPECT_EQ(V.findClass("[Lno/such/Class;"), nullptr);
}

TEST_F(VmTest, DefineClassWithFieldsAndMethods) {
  ClassDef Def;
  Def.Name = "t/Point";
  Def.field("x", "I").field("y", "I").field("ORIGIN", "Lt/Point;",
                                            /*IsStatic=*/true);
  Def.method("sum", "()I",
             [](Vm &V2, JThread &, const Value &Self,
                const std::vector<Value> &) {
               HeapObject *HO = V2.heap().resolve(Self.Obj);
               return Value::makeInt(static_cast<int32_t>(
                   HO->Fields[0].I + HO->Fields[1].I));
             });
  Klass *Kl = V.defineClass(Def);
  ASSERT_NE(Kl, nullptr);
  EXPECT_EQ(Kl->InstanceSlots, 2u);
  EXPECT_NE(Kl->findField("x", "I", false), nullptr);
  EXPECT_NE(Kl->findField("ORIGIN", "Lt/Point;", true), nullptr);
  EXPECT_EQ(Kl->findField("x", "I", true), nullptr); // staticness matters

  ObjectId P = V.newObject(Kl);
  V.heap().resolve(P)->Fields[0] = Value::makeInt(3);
  V.heap().resolve(P)->Fields[1] = Value::makeInt(4);
  Value Sum = V.invokeByName(Main, "t/Point", "sum", "()I",
                             Value::makeRef(P), {});
  EXPECT_EQ(Sum.I, 7);
}

TEST_F(VmTest, FieldSlotsIncludeInherited) {
  ClassDef Base;
  Base.Name = "t/Base";
  Base.field("a", "I");
  V.defineClass(Base);
  ClassDef Derived;
  Derived.Name = "t/Derived";
  Derived.Super = "t/Base";
  Derived.field("b", "I");
  Klass *Kl = V.defineClass(Derived);
  EXPECT_EQ(Kl->InstanceSlots, 2u);
  EXPECT_EQ(Kl->findField("a", "I", false)->Slot, 0u);
  EXPECT_EQ(Kl->findField("b", "I", false)->Slot, 1u);
}

TEST_F(VmTest, MalformedDefinitionsRejected) {
  ClassDef BadField;
  BadField.Name = "t/BadField";
  BadField.field("f", "Q");
  EXPECT_EQ(V.defineClass(BadField), nullptr);

  ClassDef BadMethod;
  BadMethod.Name = "t/BadMethod";
  BadMethod.method("m", "(", nullptr);
  EXPECT_EQ(V.defineClass(BadMethod), nullptr);

  ClassDef NoSuper;
  NoSuper.Name = "t/NoSuper";
  NoSuper.Super = "t/DoesNotExist";
  EXPECT_EQ(V.defineClass(NoSuper), nullptr);
}

TEST_F(VmTest, VirtualDispatchSelectsOverride) {
  ClassDef Base;
  Base.Name = "t/Animal";
  Base.method("speak", "()I",
              [](Vm &, JThread &, const Value &, const std::vector<Value> &) {
                return Value::makeInt(1);
              });
  V.defineClass(Base);
  ClassDef Derived;
  Derived.Name = "t/Dog";
  Derived.Super = "t/Animal";
  Derived.method("speak", "()I",
                 [](Vm &, JThread &, const Value &,
                    const std::vector<Value> &) { return Value::makeInt(2); });
  V.defineClass(Derived);

  ObjectId Dog = V.newObject(V.findClass("t/Dog"));
  MethodInfo *BaseSpeak =
      V.findClass("t/Animal")->findMethod("speak", "()I", false);
  Value Virtual = V.invoke(Main, BaseSpeak, Value::makeRef(Dog), {}, true);
  EXPECT_EQ(Virtual.I, 2);
  Value Direct = V.invoke(Main, BaseSpeak, Value::makeRef(Dog), {}, false);
  EXPECT_EQ(Direct.I, 1);
}

TEST_F(VmTest, ExceptionsCarryMessageCauseAndStack) {
  Main.Stack.push_back({false, "T.main(T.java:3)"});
  ObjectId Cause = V.makeThrowable(Main, "java/lang/RuntimeException",
                                   "root cause");
  ObjectId Ex = V.makeThrowable(Main, "java/lang/Error", "wrapper", Cause);
  Main.Stack.pop_back();
  EXPECT_EQ(V.throwableMessage(Ex), "wrapper");
  EXPECT_EQ(V.throwableCause(Ex), Cause);
  std::string Text = V.describeThrowable(Ex);
  EXPECT_NE(Text.find("java.lang.Error: wrapper"), std::string::npos);
  EXPECT_NE(Text.find("Caused by: java.lang.RuntimeException: root cause"),
            std::string::npos);
  EXPECT_NE(Text.find("\tat T.main(T.java:3)"), std::string::npos);
}

TEST_F(VmTest, ThrowNewSetsPendingAndInvokeShortCircuits) {
  ClassDef Def;
  Def.Name = "t/Thrower";
  Def.method("boom", "()I",
             [](Vm &V2, JThread &T, const Value &,
                const std::vector<Value> &) {
               V2.throwNew(T, "java/lang/IllegalStateException", "boom");
               return Value::makeInt(99);
             });
  V.defineClass(Def);
  Value Out = V.invokeByName(Main, "t/Thrower", "boom", "()I",
                             Value::makeNull(), {});
  // The result is suppressed; the exception is pending.
  EXPECT_EQ(Out.I, 0);
  EXPECT_EQ(V.klassOf(Main.Pending)->name(),
            "java/lang/IllegalStateException");
}

TEST_F(VmTest, InvokeOnMissingClassOrMethodThrows) {
  V.invokeByName(Main, "no/Such", "m", "()V", Value::makeNull(), {});
  EXPECT_EQ(V.klassOf(Main.Pending)->name(), "java/lang/NoClassDefFoundError");
  Main.Pending = ObjectId();
  V.invokeByName(Main, "java/lang/String", "nope", "()V", Value::makeNull(),
                 {});
  EXPECT_EQ(V.klassOf(Main.Pending)->name(), "java/lang/NoSuchMethodError");
}

TEST_F(VmTest, UnboundNativeThrowsUnsatisfiedLinkError) {
  ClassDef Def;
  Def.Name = "t/Native";
  Def.nativeMethod("n", "()V", true);
  V.defineClass(Def);
  V.invokeByName(Main, "t/Native", "n", "()V", Value::makeNull(), {});
  EXPECT_EQ(V.klassOf(Main.Pending)->name(),
            "java/lang/UnsatisfiedLinkError");
}

TEST_F(VmTest, GlobalRefsSurviveGcAndWeaksClear) {
  ObjectId Strong = V.newString("strong");
  ObjectId Weak = V.newString("weak");
  uint64_t StrongRef = V.newGlobalRef(Strong, false);
  uint64_t WeakRef = V.newGlobalRef(Weak, true);
  V.gc();
  EXPECT_EQ(V.resolveGlobal(*decodeHandle(StrongRef)), Strong);
  // The weak target had no strong refs: cleared, handle resolves to null.
  EXPECT_EQ(V.globalRefState(*decodeHandle(WeakRef)), LocalRefState::Live);
  EXPECT_TRUE(V.resolveGlobal(*decodeHandle(WeakRef)).isNull());
}

TEST_F(VmTest, DeleteGlobalRefInvalidatesAndRecycles) {
  ObjectId Obj = V.newString("g");
  uint64_t Ref = V.newGlobalRef(Obj, false);
  EXPECT_TRUE(V.deleteGlobalRef(*decodeHandle(Ref)));
  EXPECT_EQ(V.globalRefState(*decodeHandle(Ref)), LocalRefState::Stale);
  EXPECT_FALSE(V.deleteGlobalRef(*decodeHandle(Ref)));
  uint64_t Ref2 = V.newGlobalRef(Obj, false);
  EXPECT_EQ(decodeHandle(Ref2)->Slot, decodeHandle(Ref)->Slot);
  EXPECT_GT(decodeHandle(Ref2)->Gen, decodeHandle(Ref)->Gen);
}

TEST_F(VmTest, ConcurrentGlobalDeleteNeverTearsAPeek) {
  // One thread deletes and reissues a strong global while another peeks
  // the newest handle. A peek decides state and target together, so it
  // reports Stale or Live-with-the-target, never Live with a null target.
  ObjectId Obj = V.newString("g");
  uint64_t Anchor = V.newGlobalRef(Obj, false); // keeps Obj reachable
  std::atomic<uint64_t> Word{V.newGlobalRef(Obj, false)};
  std::atomic<bool> Stop{false};
  std::thread Churn([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      V.deleteGlobalRef(*decodeHandle(Word.load()));
      Word.store(V.newGlobalRef(Obj, false));
      // Leave each handle live for a moment, so peeks also see Live when
      // the two threads share a core or run back to back.
      for (int Spin = 0; Spin < 4; ++Spin)
        std::this_thread::yield();
    }
  });
  size_t Live = 0, Torn = 0, Wrong = 0;
  for (int I = 0; I < 200000; ++I) {
    Vm::PeekResult Peek = V.peekHandle(Word.load(), nullptr);
    if (Peek.S != Vm::PeekResult::Status::Live)
      continue;
    ++Live;
    Torn += Peek.Target.isNull();
    Wrong += !Peek.Target.isNull() && Peek.Target != Obj;
  }
  Stop = true;
  Churn.join();
  EXPECT_GT(Live, 0u);
  EXPECT_EQ(Torn, 0u);
  EXPECT_EQ(Wrong, 0u);
  V.deleteGlobalRef(*decodeHandle(Word.load()));
  V.deleteGlobalRef(*decodeHandle(Anchor));
}

TEST_F(VmTest, MonitorsNestAndRequireOwner) {
  ObjectId Lock = V.newObject(V.objectClass());
  EXPECT_EQ(V.monitorEnter(Main, Lock), MonitorResult::Ok);
  EXPECT_EQ(V.monitorEnter(Main, Lock), MonitorResult::Ok);
  EXPECT_EQ(V.heldMonitorCount(), 1u);
  JThread &Other = V.attachThread("other");
  EXPECT_EQ(V.monitorEnter(Other, Lock), MonitorResult::WouldBlock);
  EXPECT_EQ(V.monitorExit(Other, Lock), MonitorResult::IllegalState);
  EXPECT_EQ(V.monitorExit(Main, Lock), MonitorResult::Ok);
  EXPECT_EQ(V.monitorExit(Main, Lock), MonitorResult::Ok);
  EXPECT_EQ(V.heldMonitorCount(), 0u);
  EXPECT_EQ(V.monitorExit(Main, Lock), MonitorResult::IllegalState);
}

// Contended enters are counted, not noted one by one: three threads
// storming two monitors (one of them held by the main thread throughout,
// so every enter on it is contended) keep at most MaxContentionNotes notes,
// and the counter equals the WouldBlock results they saw.
TEST_F(VmTest, ContendedEntersAreCountedWithBoundedNotes) {
  ObjectId Shared = V.newObject(V.objectClass());
  ObjectId Held = V.newObject(V.objectClass());
  ASSERT_EQ(V.monitorEnter(Main, Held), MonitorResult::Ok);
  constexpr int Pairs = 100000;
  std::atomic<uint64_t> Blocked{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < 3; ++T) {
    JThread &Worker = V.attachThread("contender-" + std::to_string(T));
    Workers.emplace_back([&, &Worker = Worker] {
      uint64_t Mine = 0;
      for (int I = 0; I < Pairs; ++I) {
        for (ObjectId Obj : {Shared, Held}) {
          MonitorResult R = V.monitorEnter(Worker, Obj);
          if (R == MonitorResult::Ok)
            EXPECT_EQ(V.monitorExit(Worker, Obj), MonitorResult::Ok);
          else if (R == MonitorResult::WouldBlock)
            ++Mine;
        }
      }
      Blocked += Mine;
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_GE(Blocked.load(), 3u * Pairs);
  EXPECT_EQ(V.diags().counter("jvm.monitor_contended_enters"),
            Blocked.load());
  size_t Notes = 0;
  for (const Incident &I : V.diags().incidents())
    Notes += I.Message.rfind("monitor contention", 0) == 0;
  EXPECT_GT(Notes, 0u);
  EXPECT_LE(Notes, Vm::MaxContentionNotes);
  EXPECT_EQ(V.monitorExit(Main, Held), MonitorResult::Ok);
}

TEST_F(VmTest, PinsBlockMotionAndUnpinRestoresIt) {
  ObjectId Arr = V.newPrimArray(JType::Int, 4);
  uint64_t Keep = V.newGlobalRef(Arr, false);
  (void)Keep;
  V.pinObject(Main, Arr, PinKind::ArrayElements);
  uint64_t Addr = V.heap().resolve(Arr)->Address;
  V.gc();
  EXPECT_EQ(V.heap().resolve(Arr)->Address, Addr);
  EXPECT_TRUE(V.unpinObject(Main, Arr, PinKind::ArrayElements));
  EXPECT_FALSE(V.unpinObject(Main, Arr, PinKind::ArrayElements));
  V.gc();
  EXPECT_NE(V.heap().resolve(Arr)->Address, Addr);
}

TEST_F(VmTest, GcSkippedDuringCriticalSection) {
  ObjectId Garbage = V.newString("unreachable");
  Main.CriticalDepth = 1;
  V.gc();
  EXPECT_NE(V.heap().resolve(Garbage), nullptr); // GC was refused
  Main.CriticalDepth = 0;
  V.gc();
  EXPECT_EQ(V.heap().resolve(Garbage), nullptr);
}

TEST_F(VmTest, AutoGcRunsEveryPeriod) {
  VmOptions Options;
  Options.AutoGcPeriod = 8;
  Vm Auto(Options);
  for (int I = 0; I < 64; ++I)
    Auto.newString("transient");
  EXPECT_GT(Auto.heap().stats().GcCount, 0u);
}

TEST_F(VmTest, Utf8Utf16RoundTrip) {
  for (const char *Sample : {"", "ascii", "caf\xc3\xa9", "\xe4\xb8\xad"}) {
    ObjectId Str = V.newString(Sample);
    EXPECT_EQ(V.utf8Of(Str), Sample);
  }
}

TEST_F(VmTest, ShutdownFiresVmDeathOnce) {
  struct Counter : VmEventObserver {
    int Deaths = 0;
    void onVmDeath() override { ++Deaths; }
  } Obs;
  V.addObserver(&Obs);
  V.shutdown();
  V.shutdown();
  EXPECT_EQ(Obs.Deaths, 1);
  V.removeObserver(&Obs);
}

TEST_F(VmTest, MethodAndFieldIdRegistries) {
  Klass *Str = V.stringClass();
  (void)Str;
  Klass *Thr = V.throwableClass();
  FieldInfo *Msg = Thr->findField("message", "Ljava/lang/String;", false);
  EXPECT_TRUE(V.isFieldId(Msg));
  EXPECT_FALSE(V.isMethodId(Msg));
  int Dummy = 0;
  EXPECT_FALSE(V.isFieldId(&Dummy));
}

} // namespace
