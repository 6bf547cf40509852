//===- tests/jni_call_test.cpp - Call-family unit tests -------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the Call<T>Method{,V,A} families, CallStatic, CallNonvirtual,
/// and NewObject across all form variants, including the variadic ->
/// va_list -> jvalue-array delegation chain. The conformance suite at the
/// end drives every one of the 93 call functions and 36 field accessors
/// through the production table and again with the Jinn agent loaded.
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include "jvmti/Interpose.h"

#include <array>
#include <cstdarg>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

using namespace jinn;
using namespace jinn::testing;

namespace {

struct JniCall : ::testing::Test {
  VmWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = W.env()->functions;
  jclass Calc = nullptr;
  jobject Instance = nullptr;

  void SetUp() override {
    jvm::ClassDef Def;
    Def.Name = "t/Calc";
    Def.field("bias", "I");
    Def.method("addBias", "(I)I",
               [](jvm::Vm &V, jvm::JThread &, const jvm::Value &Self,
                  const std::vector<jvm::Value> &Args) {
                 jvm::HeapObject *HO = V.heap().resolve(Self.Obj);
                 return jvm::Value::makeInt(static_cast<int32_t>(
                     Args[0].I + HO->Fields[0].I));
               });
    Def.method("twice", "(D)D",
               [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                  const std::vector<jvm::Value> &Args) {
                 return jvm::Value::makeDouble(Args[0].D * 2);
               },
               /*IsStatic=*/true);
    Def.method("concat",
               "(Ljava/lang/String;Ljava/lang/String;)Ljava/lang/String;",
               [](jvm::Vm &V, jvm::JThread &, const jvm::Value &,
                  const std::vector<jvm::Value> &Args) {
                 return jvm::Value::makeRef(V.newString(
                     V.utf8Of(Args[0].Obj) + V.utf8Of(Args[1].Obj)));
               },
               /*IsStatic=*/true);
    Def.method("<init>", "(I)V",
               [](jvm::Vm &V, jvm::JThread &, const jvm::Value &Self,
                  const std::vector<jvm::Value> &Args) {
                 V.heap().resolve(Self.Obj)->Fields[0] =
                     jvm::Value::makeInt(static_cast<int32_t>(Args[0].I));
                 return jvm::Value::makeVoid();
               });
    Def.method("id", "()I",
               [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                  const std::vector<jvm::Value> &) {
                 return jvm::Value::makeInt(1);
               });
    W.define(Def);

    jvm::ClassDef Sub;
    Sub.Name = "t/Calc2";
    Sub.Super = "t/Calc";
    Sub.method("id", "()I",
               [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                  const std::vector<jvm::Value> &) {
                 return jvm::Value::makeInt(2);
               });
    W.define(Sub);

    Calc = Fns->FindClass(Env, "t/Calc");
    jmethodID Ctor = Fns->GetMethodID(Env, Calc, "<init>", "(I)V");
    Instance = Fns->NewObject(Env, Calc, Ctor, 10);
    ASSERT_NE(Instance, nullptr);
  }
};

TEST_F(JniCall, NewObjectRunsTheConstructor) {
  jfieldID Bias = Fns->GetFieldID(Env, Calc, "bias", "I");
  EXPECT_EQ(Fns->GetIntField(Env, Instance, Bias), 10);
}

TEST_F(JniCall, CallIntMethodAllThreeForms) {
  jmethodID Add = Fns->GetMethodID(Env, Calc, "addBias", "(I)I");
  // A form.
  jvalue Args[1];
  Args[0].i = 5;
  EXPECT_EQ(Fns->CallIntMethodA(Env, Instance, Add, Args), 15);
  // Variadic form (delegates through V to A).
  EXPECT_EQ(Fns->CallIntMethod(Env, Instance, Add, 7), 17);
}

TEST_F(JniCall, CallStaticDoubleMethod) {
  jmethodID Twice = Fns->GetStaticMethodID(Env, Calc, "twice", "(D)D");
  jvalue Args[1];
  Args[0].d = 1.5;
  EXPECT_DOUBLE_EQ(Fns->CallStaticDoubleMethodA(Env, Calc, Twice, Args), 3.0);
  EXPECT_DOUBLE_EQ(Fns->CallStaticDoubleMethod(Env, Calc, Twice, 2.25), 4.5);
}

TEST_F(JniCall, CallStaticObjectMethodWithRefArgs) {
  jmethodID Concat = Fns->GetStaticMethodID(
      Env, Calc, "concat",
      "(Ljava/lang/String;Ljava/lang/String;)Ljava/lang/String;");
  jstring A = Fns->NewStringUTF(Env, "foo");
  jstring B = Fns->NewStringUTF(Env, "bar");
  jvalue Args[2];
  Args[0].l = A;
  Args[1].l = B;
  jobject Out = Fns->CallStaticObjectMethodA(Env, Calc, Concat, Args);
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(W.Vm.utf8Of(W.Rt.deref(Env, Out)), "foobar");
}

TEST_F(JniCall, VirtualDispatchAndCallNonvirtual) {
  jclass Calc2 = Fns->FindClass(Env, "t/Calc2");
  jmethodID Ctor = Fns->GetMethodID(Env, Calc, "<init>", "(I)V");
  jobject Sub = Fns->NewObject(Env, Calc2, Ctor, 0);
  jmethodID BaseId = Fns->GetMethodID(Env, Calc, "id", "()I");
  // Virtual: the override runs.
  EXPECT_EQ(Fns->CallIntMethodA(Env, Sub, BaseId, nullptr), 2);
  // Nonvirtual: the base implementation runs.
  EXPECT_EQ(Fns->CallNonvirtualIntMethodA(Env, Sub, Calc, BaseId, nullptr),
            1);
  EXPECT_EQ(Fns->CallNonvirtualIntMethod(Env, Sub, Calc, BaseId), 1);
}

TEST_F(JniCall, NullReceiverThrowsNpe) {
  jmethodID Add = Fns->GetMethodID(Env, Calc, "addBias", "(I)I");
  jvalue Args[1];
  Args[0].i = 1;
  EXPECT_EQ(Fns->CallIntMethodA(Env, nullptr, Add, Args), 0);
  EXPECT_EQ(W.pendingClass(), "java/lang/NullPointerException");
}

TEST_F(JniCall, StaticInstanceMismatchIsUndefined) {
  jmethodID Twice = Fns->GetStaticMethodID(Env, Calc, "twice", "(D)D");
  // Calling a static method through the instance-call family: row 2.
  Fns->CallDoubleMethodA(Env, Instance, Twice, nullptr);
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::UndefinedState));
}

TEST_F(JniCall, InvalidMethodIdIsUndefined) {
  int Stack = 0;
  Fns->CallIntMethodA(Env, Instance,
                      reinterpret_cast<jmethodID>(&Stack), nullptr);
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::UndefinedState));
}

TEST_F(JniCall, ExceptionInCalleePropagates) {
  jvm::ClassDef Def;
  Def.Name = "t/Boom";
  Def.method("boom", "()V",
             [](jvm::Vm &V, jvm::JThread &T, const jvm::Value &,
                const std::vector<jvm::Value> &) {
               V.throwNew(T, "java/lang/IllegalStateException", "from Java");
               return jvm::Value::makeVoid();
             },
             /*IsStatic=*/true);
  W.define(Def);
  jclass Boom = Fns->FindClass(Env, "t/Boom");
  jmethodID M = Fns->GetStaticMethodID(Env, Boom, "boom", "()V");
  Fns->CallStaticVoidMethodA(Env, Boom, M, nullptr);
  EXPECT_EQ(W.pendingClass(), "java/lang/IllegalStateException");
}

TEST_F(JniCall, BooleanCharShortLongFloatForms) {
  jvm::ClassDef Def;
  Def.Name = "t/Kinds";
  Def.method("flip", "(Z)Z",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeBoolean(Args[0].I == 0);
             },
             true);
  Def.method("up", "(C)C",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeChar(
                   static_cast<uint16_t>(Args[0].I - 32));
             },
             true);
  Def.method("halve", "(S)S",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeShort(
                   static_cast<int16_t>(Args[0].I / 2));
             },
             true);
  Def.method("sq", "(J)J",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeLong(Args[0].I * Args[0].I);
             },
             true);
  Def.method("neg", "(F)F",
             [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                const std::vector<jvm::Value> &Args) {
               return jvm::Value::makeFloat(
                   -static_cast<float>(Args[0].D));
             },
             true);
  W.define(Def);
  jclass K = Fns->FindClass(Env, "t/Kinds");
  EXPECT_EQ(Fns->CallStaticBooleanMethod(
                Env, K, Fns->GetStaticMethodID(Env, K, "flip", "(Z)Z"),
                JNI_FALSE),
            JNI_TRUE);
  EXPECT_EQ(Fns->CallStaticCharMethod(
                Env, K, Fns->GetStaticMethodID(Env, K, "up", "(C)C"), 'a'),
            static_cast<jchar>('A'));
  EXPECT_EQ(Fns->CallStaticShortMethod(
                Env, K, Fns->GetStaticMethodID(Env, K, "halve", "(S)S"), 40),
            20);
  EXPECT_EQ(Fns->CallStaticLongMethod(
                Env, K, Fns->GetStaticMethodID(Env, K, "sq", "(J)J"),
                static_cast<jlong>(9)),
            81);
  EXPECT_FLOAT_EQ(
      Fns->CallStaticFloatMethod(
          Env, K, Fns->GetStaticMethodID(Env, K, "neg", "(F)F"), 2.5),
      -2.5f);
}

TEST_F(JniCall, GetMethodIdStaticnessSeparation) {
  EXPECT_EQ(Fns->GetMethodID(Env, Calc, "twice", "(D)D"), nullptr);
  EXPECT_EQ(W.pendingClass(), "java/lang/NoSuchMethodError");
  W.main().Pending = jvm::ObjectId();
  EXPECT_EQ(Fns->GetStaticMethodID(Env, Calc, "addBias", "(I)I"), nullptr);
  EXPECT_EQ(W.pendingClass(), "java/lang/NoSuchMethodError");
}

//===----------------------------------------------------------------------===
// Conformance: every call form and field accessor, production and Jinn
//===----------------------------------------------------------------------===

/// The three forms of one call-family member, as function-table slots.
template <typename R, typename... Recv> struct Forms {
  const char *Name;
  R (*JNINativeInterface_::*A)(JNIEnv *, Recv..., jmethodID, const jvalue *);
  R (*JNINativeInterface_::*V)(JNIEnv *, Recv..., jmethodID, va_list);
  R (*JNINativeInterface_::*Variadic)(JNIEnv *, Recv..., jmethodID, ...);
};

#define FORMS(Name)                                                            \
  {#Name, &JNINativeInterface_::Name##A, &JNINativeInterface_::Name##V,        \
   &JNINativeInterface_::Name}

/// The nine call functions returning one type.
template <typename R> struct CallSlots {
  using Ret = R;
  Forms<R, jobject> Virtual;
  Forms<R, jobject, jclass> Nonvirtual;
  Forms<R, jclass> Static;
};

#define CALL_SLOTS(TName, CType)                                               \
  CallSlots<CType> {                                                           \
    FORMS(Call##TName##Method), FORMS(CallNonvirtual##TName##Method),          \
        FORMS(CallStatic##TName##Method)                                       \
  }

/// The four field accessors of one type.
template <typename T> struct FieldSlots {
  T (*JNINativeInterface_::*Get)(JNIEnv *, jobject, jfieldID);
  void (*JNINativeInterface_::*Set)(JNIEnv *, jobject, jfieldID, T);
  T (*JNINativeInterface_::*GetStatic)(JNIEnv *, jclass, jfieldID);
  void (*JNINativeInterface_::*SetStatic)(JNIEnv *, jclass, jfieldID, T);
};

#define FIELD_SLOTS(TName, CType)                                              \
  FieldSlots<CType> {                                                          \
    &JNINativeInterface_::Get##TName##Field,                                   \
        &JNINativeInterface_::Set##TName##Field,                               \
        &JNINativeInterface_::GetStatic##TName##Field,                         \
        &JNINativeInterface_::SetStatic##TName##Field                          \
  }

/// Applies X(TName, CType, Descriptor) to the nine value types.
#define CONF_VALUE_TYPES(X)                                                    \
  X(Object, jobject, "Ljava/lang/String;")                                     \
  X(Boolean, jboolean, "Z")                                                    \
  X(Byte, jbyte, "B")                                                          \
  X(Char, jchar, "C")                                                          \
  X(Short, jshort, "S")                                                        \
  X(Int, jint, "I")                                                            \
  X(Long, jlong, "J")                                                          \
  X(Float, jfloat, "F")                                                        \
  X(Double, jdouble, "D")

/// What the last Void method recorded: a Void call's observable result.
int64_t VoidSink = 0;

struct Family;

/// A world with class t/Conf holding, for every value type T with
/// descriptor D: an instance method echo<T>(D)D and a static method
/// secho<T>(D)D that return their argument, an instance field f<T> and a
/// static field sf<T>. The Void methods take an int and record it in
/// VoidSink. t/ConfSub overrides every instance method to return zero (its
/// Void records -1), so a nonvirtual call through t/Conf is told apart from
/// a virtual one. Both constructors (I)V store their argument in field tag.

class ConfWorld {
public:
  explicit ConfWorld(bool WithJinn)
      : Bare(WithJinn ? nullptr : std::make_unique<VmWorld>()),
        Jinn(WithJinn ? std::make_unique<JinnWorld>() : nullptr),
        W(Jinn ? *Jinn : *Bare), Env(W.env()) {
    jvm::ClassDef Def;
    Def.Name = "t/Conf";
    Def.field("tag", "I");
    jvm::ClassDef Sub;
    Sub.Name = "t/ConfSub";
    Sub.Super = "t/Conf";
    auto Echo = [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                   const std::vector<jvm::Value> &Args) { return Args[0]; };
    auto Zero = [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                   const std::vector<jvm::Value> &Args) {
      return jvm::defaultValueFor(Args[0].Kind);
    };
#define DEFINE_MEMBERS(TName, CType, D)                                        \
  Def.method("echo" #TName, "(" D ")" D, Echo);                                \
  Def.method("secho" #TName, "(" D ")" D, Echo, /*IsStatic=*/true);            \
  Def.field("f" #TName, D);                                                    \
  Def.field("sf" #TName, D, /*IsStatic=*/true);                                \
  Sub.method("echo" #TName, "(" D ")" D, Zero);
    CONF_VALUE_TYPES(DEFINE_MEMBERS)
#undef DEFINE_MEMBERS
    auto Record = [](int64_t Tag) {
      return [Tag](jvm::Vm &, jvm::JThread &, const jvm::Value &,
                   const std::vector<jvm::Value> &Args) {
        VoidSink = Tag ? Tag : Args[0].I;
        return jvm::Value::makeVoid();
      };
    };
    Def.method("echoVoid", "(I)V", Record(0));
    Def.method("sechoVoid", "(I)V", Record(0), /*IsStatic=*/true);
    Sub.method("echoVoid", "(I)V", Record(-1));
    auto Init = [](jvm::Vm &V, jvm::JThread &, const jvm::Value &Self,
                   const std::vector<jvm::Value> &Args) {
      V.heap().resolve(Self.Obj)->Fields[0] = Args[0];
      return jvm::Value::makeVoid();
    };
    Def.method("<init>", "(I)V", Init);
    Sub.method("<init>", "(I)V", Init);
    W.define(Def);
    W.define(Sub);
    Conf = fns()->FindClass(Env, "t/Conf");
    SubCls = fns()->FindClass(Env, "t/ConfSub");
    Ctor = fns()->GetMethodID(Env, Conf, "<init>", "(I)V");
    Obj = fns()->NewObject(Env, Conf, Ctor, 1);
    SubObj = fns()->NewObject(
        Env, SubCls, fns()->GetMethodID(Env, SubCls, "<init>", "(I)V"), 2);
    Text = str("text");
  }

  std::unique_ptr<VmWorld> Bare;
  std::unique_ptr<JinnWorld> Jinn;
  VmWorld &W;
  JNIEnv *Env;
  jclass Conf = nullptr, SubCls = nullptr;
  jmethodID Ctor = nullptr;
  jobject Obj = nullptr, SubObj = nullptr;
  jobject Text = nullptr; ///< a java/lang/String argument

  /// The active table (installing a hook swaps it).
  const JNINativeInterface_ *fns() { return Env->functions; }

  jobject str(const char *S) { return fns()->NewStringUTF(Env, S); }

  /// Renders a value: a string's text, another object's class and tag, or
  /// a number.
  template <typename T> std::string show(T V) {
    if constexpr (std::is_same_v<T, jobject>) {
      if (!V)
        return "null";
      jvm::ObjectId Id = W.Rt.deref(Env, V);
      jvm::Klass *Kl = W.Vm.klassOf(Id);
      if (Kl->name() == "java/lang/String")
        return W.Vm.utf8Of(Id);
      return Kl->name() + "#" +
             std::to_string(W.Vm.heap().resolve(Id)->Fields[0].I);
    } else if constexpr (std::is_floating_point_v<T>) {
      return std::to_string(static_cast<double>(V));
    } else {
      return std::to_string(static_cast<int64_t>(V));
    }
  }

  /// Runs \p Call and renders what it returned (or, for Void, recorded).
  /// A returned local reference is deleted once rendered.
  template <typename F> std::string render(F Call) {
    using R = decltype(Call());
    if constexpr (std::is_void_v<R>) {
      VoidSink = 0;
      Call();
      return "void:" + std::to_string(VoidSink);
    } else {
      R Out = Call();
      std::string Shown = show(Out);
      if constexpr (std::is_same_v<R, jobject>)
        if (Out)
          fns()->DeleteLocalRef(Env, Out);
      return Shown;
    }
  }

  /// Calls \p Body with a va_list of the arguments after \p Tag.
  template <typename F> static std::string viaVaList(F Body, int Tag, ...) {
    va_list Ap;
    va_start(Ap, Tag);
    std::string Out = Body(Ap);
    va_end(Ap);
    return Out;
  }

  template <typename T> static jvalue toJvalue(T V) {
    jvalue J{};
    if constexpr (std::is_same_v<T, jobject>)
      J.l = V;
    else if constexpr (std::is_same_v<T, jboolean>)
      J.z = V;
    else if constexpr (std::is_same_v<T, jbyte>)
      J.b = V;
    else if constexpr (std::is_same_v<T, jchar>)
      J.c = V;
    else if constexpr (std::is_same_v<T, jshort>)
      J.s = V;
    else if constexpr (std::is_same_v<T, jint>)
      J.i = V;
    else if constexpr (std::is_same_v<T, jlong>)
      J.j = V;
    else if constexpr (std::is_same_v<T, jfloat>)
      J.f = V;
    else
      J.d = V;
    return J;
  }

  /// The id of \p F's own method (Ctor for NewObject), or, with
  /// \p WrongStaticness, of the same type's method of the other staticness.
  jmethodID methodFor(const Family &F, bool WrongStaticness = false);

  /// Calls one form (0 = A, 1 = V, 2 = variadic) of a call-family member
  /// and renders the result.
  template <typename R, typename Arg, typename... Recv>
  std::string callForm(const Forms<R, Recv...> &F, int Form, jmethodID M,
                       Arg A, Recv... Rs) {
    jvalue J = toJvalue(A);
    if (Form == 0)
      return render([&] { return (fns()->*F.A)(Env, Rs..., M, &J); });
    if (Form == 1)
      return viaVaList(
          [&](va_list Ap) {
            return render([&] { return (fns()->*F.V)(Env, Rs..., M, Ap); });
          },
          0, A);
    return render([&] { return (fns()->*F.Variadic)(Env, Rs..., M, A); });
  }

  /// The A, V and variadic results of one call-family member.
  template <typename R, typename Arg, typename... Recv>
  std::array<std::string, 3> callForms(const Forms<R, Recv...> &F,
                                       jmethodID M, Arg A, Recv... Rs) {
    return {callForm(F, 0, M, A, Rs...), callForm(F, 1, M, A, Rs...),
            callForm(F, 2, M, A, Rs...)};
  }
};

/// One call-family member of the 31 (ten return types times three
/// families, plus NewObject). Its forms are callable by index, with a
/// sample argument of its type, against a method id the test picks.
struct Family {
  std::string Name; ///< "CallStaticIntMethod"; its A form appends "A"
  std::string Type; ///< "Int": the t/Conf members echoInt, sechoInt
  std::string Desc; ///< their descriptor, "(I)I"
  std::string Zero; ///< what a call that does not run renders
  bool Static;      ///< takes a class receiver (CallStatic*, NewObject)
  std::function<std::string(ConfWorld &, int Form, jmethodID)> Call;
};

/// A sample argument of type \p T (the Void methods take an int).
template <typename T> auto sampleArg(ConfWorld &C) {
  if constexpr (std::is_same_v<T, jobject>)
    return C.Text;
  else if constexpr (std::is_void_v<T>)
    return jint{3};
  else
    return T(1);
}

jmethodID ConfWorld::methodFor(const Family &F, bool WrongStaticness) {
  if (F.Name == "NewObject")
    return Ctor;
  if (F.Static != WrongStaticness)
    return fns()->GetStaticMethodID(Env, Conf, ("secho" + F.Type).c_str(),
                                    F.Desc.c_str());
  return fns()->GetMethodID(Env, Conf, ("echo" + F.Type).c_str(),
                            F.Desc.c_str());
}

std::vector<Family> allFamilies() {
  std::vector<Family> Out;
  auto Add = [&Out](auto S, std::string Type, std::string ArgDesc) {
    using R = typename decltype(S)::Ret;
    std::string Desc =
        "(" + ArgDesc + ")" + (std::is_void_v<R> ? "V" : ArgDesc);
    std::string Zero = std::is_void_v<R>             ? "void:0"
                       : std::is_same_v<R, jobject>  ? "null"
                       : std::is_floating_point_v<R> ? "0.000000"
                                                     : "0";
    Out.push_back({S.Virtual.Name, Type, Desc, Zero, false,
                   [S](ConfWorld &C, int Form, jmethodID M) {
                     return C.callForm(S.Virtual, Form, M, sampleArg<R>(C),
                                       C.Obj);
                   }});
    Out.push_back({S.Nonvirtual.Name, Type, Desc, Zero, false,
                   [S](ConfWorld &C, int Form, jmethodID M) {
                     return C.callForm(S.Nonvirtual, Form, M,
                                       sampleArg<R>(C), C.SubObj, C.Conf);
                   }});
    Out.push_back({S.Static.Name, Type, Desc, Zero, true,
                   [S](ConfWorld &C, int Form, jmethodID M) {
                     return C.callForm(S.Static, Form, M, sampleArg<R>(C),
                                       C.Conf);
                   }});
  };
#define ADD_FAMILY(TName, CType, D) Add(CALL_SLOTS(TName, CType), #TName, D);
  CONF_VALUE_TYPES(ADD_FAMILY)
#undef ADD_FAMILY
  Add(CALL_SLOTS(Void, void), "Void", "I");
  Out.push_back({"NewObject", "", "(I)V", "null", true,
                 [](ConfWorld &C, int Form, jmethodID M) {
                   return C.callForm(Forms<jobject, jclass> FORMS(NewObject),
                                     Form, M, jint{3}, C.Conf);
                 }});
  return Out;
}

/// Runs each test once through the production table and once with the Jinn
/// agent loaded.
struct Conformance : ::testing::TestWithParam<bool> {
  ConfWorld C{GetParam()};

  static std::array<std::string, 3> same(const std::string &S) {
    return {S, S, S};
  }

  template <typename R, typename Arg>
  void checkCalls(const CallSlots<R> &S, const std::string &TName,
                  const std::string &ArgDesc, Arg A) {
    constexpr bool Void = std::is_void_v<R>;
    std::string Desc = "(" + ArgDesc + ")" + (Void ? "V" : ArgDesc);
    std::string Want = (Void ? "void:" : "") + C.show(A);
    std::string Zero = Void ? "void:-1" : C.show(Arg{});
    jmethodID M = C.fns()->GetMethodID(C.Env, C.Conf, ("echo" + TName).c_str(),
                                      Desc.c_str());
    jmethodID SM = C.fns()->GetStaticMethodID(
        C.Env, C.Conf, ("secho" + TName).c_str(), Desc.c_str());
    ASSERT_NE(M, nullptr) << TName;
    ASSERT_NE(SM, nullptr) << TName;
    jobject Obj = C.Obj, SubObj = C.SubObj;
    jclass Conf = C.Conf;
    EXPECT_EQ(C.callForms(S.Virtual, M, A, Obj), same(Want)) << TName;
    EXPECT_EQ(C.callForms(S.Virtual, M, A, SubObj), same(Zero)) << TName;
    EXPECT_EQ(C.callForms(S.Nonvirtual, M, A, SubObj, Conf), same(Want))
        << TName;
    EXPECT_EQ(C.callForms(S.Static, SM, A, Conf), same(Want)) << TName;
  }

  template <typename T>
  void checkFields(const FieldSlots<T> &S, const std::string &TName,
                   const char *Desc, T Val) {
    std::string Want = C.show(Val);
    jfieldID F = C.fns()->GetFieldID(C.Env, C.Conf, ("f" + TName).c_str(),
                                     Desc);
    jfieldID SF = C.fns()->GetStaticFieldID(C.Env, C.Conf,
                                            ("sf" + TName).c_str(), Desc);
    ASSERT_NE(F, nullptr) << TName;
    ASSERT_NE(SF, nullptr) << TName;
    (C.fns()->*S.Set)(C.Env, C.Obj, F, Val);
    EXPECT_EQ(C.show((C.fns()->*S.Get)(C.Env, C.Obj, F)), Want) << TName;
    (C.fns()->*S.SetStatic)(C.Env, C.Conf, SF, Val);
    EXPECT_EQ(C.show((C.fns()->*S.GetStatic)(C.Env, C.Conf, SF)), Want)
        << TName;
  }

  /// Undefined-behaviour incidents the VM's policy recorded so far.
  size_t policyIncidents() {
    return C.W.Vm.diags().count(IncidentKind::UndefinedState, "jvm");
  }

  size_t jinnReports() { return C.Jinn ? C.Jinn->reportCount() : 0; }

  /// Under Jinn, adds an all-function pre hook that checks every capture:
  /// exactly the function's NumParams arguments, each of the class its
  /// traits declare (the wrapper writes no other argument record).
  void checkEveryCapture() {
    if (!C.Jinn)
      return;
    jvmti::dispatcherFor(C.W.Rt).addPreAll([](jvmti::CapturedCall &Call) {
      const jni::FnTraits &Traits = Call.traits();
      ASSERT_EQ(Call.numArgs(), Traits.NumParams) << jni::fnName(Call.id());
      for (size_t I = 0; I < Call.numArgs(); ++I)
        EXPECT_EQ(Call.arg(I).Cls, Traits.Params[I].Cls)
            << jni::fnName(Call.id()) << " argument " << I;
    });
  }

  /// What one erroneous call did: its rendered result, and how many policy
  /// incidents and Jinn reports it added. Clears the pending exception a
  /// Jinn report throws, so each call starts clean.
  struct Outcome {
    std::string Result;
    size_t Policy, Reports;
  };
  Outcome outcome(const Family &F, int Form, jmethodID M) {
    size_t Policy = policyIncidents(), Reports = jinnReports();
    std::string Result = F.Call(C, Form, M);
    Outcome Out{Result, policyIncidents() - Policy, jinnReports() - Reports};
    C.W.main().Pending = jvm::ObjectId();
    return Out;
  }
};

TEST_P(Conformance, EveryCallFormReturnsTheSameValue) {
  checkEveryCapture();
#define CHECK_CALLS(TName, CType, D)                                           \
  checkCalls(CALL_SLOTS(TName, CType), #TName, D, Sample##TName);
  jobject SampleObject = C.str("conformance");
  jboolean SampleBoolean = JNI_TRUE;
  jbyte SampleByte = -7;
  jchar SampleChar = 0x263A;
  jshort SampleShort = -1234;
  jint SampleInt = 123456;
  jlong SampleLong = (jlong{1} << 40) + 5;
  jfloat SampleFloat = 2.5f;
  jdouble SampleDouble = -0.125;
  CONF_VALUE_TYPES(CHECK_CALLS)
#undef CHECK_CALLS
  checkCalls(CALL_SLOTS(Void, void), "Void", "I", jint{42});
  EXPECT_EQ(C.callForms(Forms<jobject, jclass> FORMS(NewObject), C.Ctor,
                        jint{7}, C.Conf),
            same("t/Conf#7"));
  EXPECT_EQ(policyIncidents(), 0u);
  EXPECT_EQ(jinnReports(), 0u);
}

TEST_P(Conformance, EveryFieldAccessorRoundTrips) {
  checkEveryCapture();
#define CHECK_FIELDS(TName, CType, D)                                          \
  checkFields(FIELD_SLOTS(TName, CType), #TName, D, Sample##TName);
  jobject SampleObject = C.str("field");
  jboolean SampleBoolean = JNI_TRUE;
  jbyte SampleByte = -9;
  jchar SampleChar = 0x3042;
  jshort SampleShort = 4321;
  jint SampleInt = -654321;
  jlong SampleLong = -(jlong{1} << 50);
  jfloat SampleFloat = -1.75f;
  jdouble SampleDouble = 1e100;
  CONF_VALUE_TYPES(CHECK_FIELDS)
#undef CHECK_FIELDS
  EXPECT_EQ(policyIncidents(), 0u);
  EXPECT_EQ(jinnReports(), 0u);
}

// Production: every form reaches the policy. With Jinn, the interposed A
// form reports the id (and aborts the call) before the VM sees it; the V
// and variadic forms validate the id with methodOf before they decode, so
// they reach the policy without entering any A form.
TEST_P(Conformance, InvalidMethodIdGoesThroughThePolicy) {
  int Stack = 0;
  jmethodID Bogus = reinterpret_cast<jmethodID>(&Stack);
  for (const Family &F : allFamilies())
    for (int Form = 0; Form < 3; ++Form) {
      bool Checked = C.Jinn && Form == 0;
      Outcome O = outcome(F, Form, Bogus);
      EXPECT_EQ(O.Result, F.Zero) << F.Name << " form " << Form;
      EXPECT_EQ(O.Policy, Checked ? 0u : 1u) << F.Name << " form " << Form;
      EXPECT_EQ(O.Reports, Checked ? 1u : 0u) << F.Name << " form " << Form;
    }
}

// Production: every form reaches the policy. With Jinn, every form reaches
// the interposed A form, which reports the mismatch once.
TEST_P(Conformance, StaticInstanceMismatchGoesThroughThePolicy) {
  for (const Family &F : allFamilies()) {
    if (F.Name == "NewObject")
      continue;
    jmethodID Wrong = C.methodFor(F, /*WrongStaticness=*/true);
    ASSERT_NE(Wrong, nullptr) << F.Name;
    for (int Form = 0; Form < 3; ++Form) {
      Outcome O = outcome(F, Form, Wrong);
      EXPECT_EQ(O.Result, F.Zero) << F.Name << " form " << Form;
      EXPECT_EQ(O.Policy, C.Jinn ? 0u : 1u) << F.Name << " form " << Form;
      EXPECT_EQ(O.Reports, C.Jinn ? 1u : 0u) << F.Name << " form " << Form;
    }
  }
}

// A counting pre hook on every A form: each of the three forms crosses
// its A form exactly once, and a V or variadic call with an invalid id
// crosses none.
TEST_P(Conformance, EveryFormCrossesItsAFormOnce) {
  jvmti::InterposeDispatcher &D = jvmti::dispatcherFor(C.W.Rt);
  std::vector<size_t> Crossings(jni::NumJniFunctions);
  int Stack = 0;
  jmethodID Bogus = reinterpret_cast<jmethodID>(&Stack);
  for (const Family &F : allFamilies()) {
    jni::FnId A = jni::fnIdByName(F.Name + "A");
    ASSERT_NE(A, jni::FnId::Count) << F.Name;
    D.addPre(A, [&Crossings, A](jvmti::CapturedCall &) {
      ++Crossings[static_cast<size_t>(A)];
    });
    size_t &Count = Crossings[static_cast<size_t>(A)];
    jmethodID M = C.methodFor(F);
    ASSERT_NE(M, nullptr) << F.Name;
    for (int Form = 0; Form < 3; ++Form) {
      Count = 0;
      Outcome O = outcome(F, Form, M);
      EXPECT_EQ(Count, 1u) << F.Name << " form " << Form;
      EXPECT_EQ(O.Policy + O.Reports, 0u) << F.Name << " form " << Form;
    }
    for (int Form = 1; Form < 3; ++Form) {
      Count = 0;
      outcome(F, Form, Bogus);
      EXPECT_EQ(Count, 0u) << F.Name << " form " << Form;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, Conformance, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "Jinn" : "Production";
                         });

} // namespace
