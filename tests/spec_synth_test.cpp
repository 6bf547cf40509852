//===- tests/spec_synth_test.cpp - Spec framework & synthesizer tests ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "synth/Emitter.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <fstream>

using namespace jinn;
using namespace jinn::testing;
using jinn::jni::FnId;
using jinn::spec::Direction;
using jinn::spec::FunctionSelector;

namespace {

TEST(FunctionSelector, AllMatchesEverything) {
  FunctionSelector S = FunctionSelector::all("any");
  EXPECT_TRUE(S.matches(FnId::GetVersion));
  EXPECT_TRUE(S.matches(FnId::DeleteLocalRef));
}

TEST(FunctionSelector, OneMatchesExactly) {
  FunctionSelector S = FunctionSelector::one(FnId::MonitorEnter);
  EXPECT_TRUE(S.matches(FnId::MonitorEnter));
  EXPECT_FALSE(S.matches(FnId::MonitorExit));
  EXPECT_EQ(S.Description, "MonitorEnter");
}

TEST(FunctionSelector, PredicateMatchesByTraits) {
  FunctionSelector S = FunctionSelector::matching(
      "ref-returning", [](const jni::FnTraits &T) { return T.ReturnsRef; });
  EXPECT_TRUE(S.matches(FnId::FindClass));
  EXPECT_FALSE(S.matches(FnId::GetVersion));
}

TEST(FunctionSelector, NativeMethodsNeverMatchJniFunctions) {
  FunctionSelector S = FunctionSelector::nativeMethods("native");
  EXPECT_FALSE(S.matches(FnId::FindClass));
}

TEST(FunctionSelector, CountSentinelNeverMatches) {
  // FnId::Count is the "no function" sentinel; no selector kind may treat
  // it as a real function, including the blanket all-selector.
  EXPECT_FALSE(FunctionSelector::all("any").matches(FnId::Count));
  EXPECT_FALSE(FunctionSelector::one(FnId::MonitorEnter).matches(FnId::Count));
  EXPECT_FALSE(FunctionSelector::matching(
                   "always", [](const jni::FnTraits &) { return true; })
                   .matches(FnId::Count));
  EXPECT_FALSE(FunctionSelector::nativeMethods("native").matches(FnId::Count));
}

TEST(FunctionSelector, MalformedSelectorsMatchNothing) {
  // A predicate selector whose predicate was never set, and a one-function
  // selector pinned to the sentinel, degrade to empty match sets instead
  // of crashing — jinn-speclint reports them as zero-match errors.
  FunctionSelector NoPred;
  NoPred.K = FunctionSelector::Kind::JniPredicate;
  EXPECT_FALSE(NoPred.matches(FnId::GetVersion));
  EXPECT_TRUE(spec::matchedFunctions(NoPred).empty());

  FunctionSelector BadOne;
  BadOne.K = FunctionSelector::Kind::OneJniFunction;
  BadOne.Fn = FnId::Count;
  EXPECT_FALSE(BadOne.matches(FnId::GetVersion));
  EXPECT_TRUE(spec::matchedFunctions(BadOne).empty());
}

TEST(FunctionSelector, MatchedFunctionsAgreesWithMatches) {
  FunctionSelector S = FunctionSelector::matching(
      "ref-returning", [](const jni::FnTraits &T) { return T.ReturnsRef; });
  std::vector<FnId> Fns = spec::matchedFunctions(S);
  EXPECT_FALSE(Fns.empty());
  EXPECT_TRUE(std::is_sorted(Fns.begin(), Fns.end()));
  size_t Expected = 0;
  for (size_t I = 0; I < jni::NumJniFunctions; ++I)
    Expected += S.matches(static_cast<FnId>(I));
  EXPECT_EQ(Fns.size(), Expected);
  for (FnId Id : Fns)
    EXPECT_TRUE(S.matches(Id));
}

TEST(Direction, Names) {
  EXPECT_STREQ(spec::directionName(Direction::CallJavaToC), "Call:Java->C");
  EXPECT_STREQ(spec::directionName(Direction::CallCToJava), "Call:C->Java");
  EXPECT_STREQ(spec::directionName(Direction::ReturnJavaToC),
               "Return:Java->C");
  EXPECT_STREQ(spec::directionName(Direction::ReturnCToJava),
               "Return:C->Java");
}

//===----------------------------------------------------------------------===
// A tiny two-machine spec to drive Algorithm 1 end to end.
//===----------------------------------------------------------------------===

struct CountingReporter : spec::Reporter {
  std::vector<std::string> Messages;
  void violation(spec::TransitionContext &Ctx,
                 const spec::StateMachineSpec &Machine,
                 const std::string &Message) override {
    Messages.push_back(Machine.Name + ": " + Message);
    Ctx.abortCall();
  }
  void endOfRun(const spec::StateMachineSpec &Machine,
                const std::string &Message) override {
    Messages.push_back("end:" + Machine.Name + ": " + Message);
  }
};

/// Counts FindClass calls and flags class names containing "forbidden".
class ToyMachine : public spec::MachineBase {
public:
  int Calls = 0;
  ToyMachine() {
    Spec.Name = "Toy";
    Spec.ObservedEntity = "a class name";
    Spec.Errors = "forbidden class";
    spec::StateTransition T;
    T.From = "Watching";
    T.To = "Watching";
    T.At = {{FunctionSelector::one(FnId::FindClass),
             Direction::CallCToJava}};
    T.Action = [this](spec::TransitionContext &Ctx) {
      ++Calls;
      const char *Name =
          static_cast<const char *>(Ctx.call().arg(0).Ptr);
      if (Name && std::string(Name).find("forbidden") != std::string::npos)
        Ctx.reporter().violation(Ctx, Spec, "forbidden class loaded");
    };
    Spec.Transitions.push_back(std::move(T));
  }
};

/// Counts native entries/exits.
class ToyNativeMachine : public spec::MachineBase {
public:
  int Entries = 0, Exits = 0;
  ToyNativeMachine() {
    Spec.Name = "ToyNative";
    spec::StateTransition Enter;
    Enter.From = "Out";
    Enter.To = "In";
    Enter.At = {{FunctionSelector::nativeMethods("any native"),
                 Direction::CallJavaToC}};
    Enter.Action = [this](spec::TransitionContext &Ctx) {
      ++Entries;
      ASSERT_TRUE(Ctx.call().isNative());
      EXPECT_EQ(Ctx.call().nativeMethod()->Name, "n");
    };
    Spec.Transitions.push_back(std::move(Enter));
    spec::StateTransition Exit;
    Exit.From = "In";
    Exit.To = "Out";
    Exit.At = {{FunctionSelector::nativeMethods("any native"),
                Direction::ReturnCToJava}};
    Exit.Action = [this](spec::TransitionContext &) { ++Exits; };
    Spec.Transitions.push_back(std::move(Exit));
  }
};

struct SynthTest : ::testing::Test {
  VmWorld W;
  jvmti::JvmtiEnv Jvmti{W.Rt};
  CountingReporter Reporter;
  ToyMachine Toy;
  ToyNativeMachine ToyNative;
};

TEST_F(SynthTest, Algorithm1InstallsJniHooks) {
  synth::Synthesizer Synth({&Toy}, Reporter);
  synth::SynthesisStats Stats = Synth.installInto(Jvmti.dispatcher());
  EXPECT_EQ(Stats.MachineCount, 1u);
  EXPECT_EQ(Stats.StateTransitionCount, 1u);
  EXPECT_EQ(Stats.JniPreHooks, 1u);
  EXPECT_EQ(Stats.JniPostHooks, 0u);

  JNIEnv *Env = W.env();
  Env->functions->FindClass(Env, "java/lang/String");
  EXPECT_EQ(Toy.Calls, 1);
  EXPECT_TRUE(Reporter.Messages.empty());

  jclass Out = Env->functions->FindClass(Env, "very/forbidden/Class");
  EXPECT_EQ(Out, nullptr); // the violation aborted the call
  ASSERT_EQ(Reporter.Messages.size(), 1u);
  EXPECT_EQ(Reporter.Messages[0], "Toy: forbidden class loaded");
}

TEST_F(SynthTest, Algorithm1WrapsNativeMethods) {
  synth::Synthesizer Synth({&ToyNative}, Reporter);
  synth::SynthesisStats Stats = Synth.installInto(Jvmti.dispatcher());
  EXPECT_EQ(Stats.NativeEntryActions, 1u);
  EXPECT_EQ(Stats.NativeExitActions, 1u);

  // The native blocks are slots of the one compiled table, which the
  // native-method wrapper runs around each call.
  const jvmti::DispatchTable &Table = *Jvmti.dispatcher().table();
  EXPECT_EQ(Table.Native.PreCount, 1u);
  EXPECT_EQ(Table.Native.PostCount, 1u);
  jvmti::EventCallbacks Cb;
  Cb.NativeMethodBind = jvmti::wrapNativeMethod;
  Jvmti.setEventCallbacks(std::move(Cb));

  jvm::ClassDef Def;
  Def.Name = "t/N";
  Def.nativeMethod("n", "()V", true);
  W.define(Def);
  W.bindNative("t/N", "n", "()V",
               [](JNIEnv *, jobject, const jvalue *) -> jvalue {
                 jvalue R;
                 R.j = 0;
                 return R;
               });
  W.call("t/N", "n", "()V");
  W.call("t/N", "n", "()V");
  EXPECT_EQ(ToyNative.Entries, 2);
  EXPECT_EQ(ToyNative.Exits, 2);
}

TEST_F(SynthTest, BroadSelectorsFanOutAcrossTheRegistry) {
  // A transition attached to "all JNI functions" yields 229 hooks.
  class WideMachine : public spec::MachineBase {
  public:
    WideMachine() {
      Spec.Name = "Wide";
      spec::StateTransition T;
      T.From = "S";
      T.To = "S";
      T.At = {{FunctionSelector::all("any"), Direction::CallCToJava}};
      T.Action = [](spec::TransitionContext &) {};
      Spec.Transitions.push_back(std::move(T));
    }
  } Wide;
  synth::Synthesizer Synth({&Wide}, Reporter);
  synth::SynthesisStats Stats = Synth.installInto(Jvmti.dispatcher());
  EXPECT_EQ(Stats.JniPreHooks, jni::NumJniFunctions);
}

//===----------------------------------------------------------------------===
// Emitter
//===----------------------------------------------------------------------===

TEST_F(SynthTest, EmitterGeneratesWrappersAndChecks) {
  synth::CodeEmitter Emitter({&Toy});
  std::string Code = Emitter.emit();
  EXPECT_EQ(Emitter.stats().WrapperFunctions, 1u);
  EXPECT_EQ(Emitter.stats().CheckFunctions, 1u);
  EXPECT_NE(Code.find("wrapped_FindClass"), std::string::npos);
  EXPECT_NE(Code.find("check_FindClass_Toy_Watching_to_Watching"),
            std::string::npos);
  EXPECT_NE(Code.find("jinn_real_table()->FindClass(env, name)"),
            std::string::npos);
  EXPECT_GT(Emitter.stats().TotalLines, 20u);
}

TEST_F(SynthTest, EmitterGeneratesNativeWrapperAndDriver) {
  synth::CodeEmitter Emitter({&ToyNative});
  std::string Code = Emitter.emit();
  EXPECT_NE(Code.find("wrapped_native_method"), std::string::npos);
  EXPECT_NE(Code.find("native_entry_ToyNative_Out_to_In"),
            std::string::npos);
  EXPECT_NE(Code.find("native_exit_ToyNative_In_to_Out"),
            std::string::npos);
  EXPECT_NE(Code.find("Agent_OnLoad"), std::string::npos);
  EXPECT_NE(Code.find("jinn/JNIAssertionFailure"), std::string::npos);
}

TEST(Emitter, CountSourceLinesSkipsBlanksAndComments) {
  std::string Path = ::testing::TempDir() + "/loc_sample.cpp";
  {
    std::ofstream Out(Path);
    Out << "// comment only\n\n  // indented comment\nint X = 1;\n"
        << "int Y = 2; // trailing comment counts\n   \n";
  }
  EXPECT_EQ(synth::countSourceLines({Path}), 2u);
}

TEST(Emitter, SourceFilesUnderFindsTheMachineSpecs) {
  std::vector<std::string> Files =
      synth::sourceFilesUnder(JINN_SOURCE_DIR "/src/jinn/machines");
  EXPECT_GE(Files.size(), 15u); // 14 machines + the shared header
}

} // namespace
