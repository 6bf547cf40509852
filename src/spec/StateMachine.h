//===- spec/StateMachine.h - FFI state machine specifications ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specification formalism of the paper (§4): an FFI constraint is a
/// state machine over program entities (threads, references, IDs); each
/// state transition is mapped to the *language transitions* that may
/// trigger it (calls and returns crossing the Java/C boundary, in both
/// directions); the transition carries the code that checks whether it
/// fired and updates the machine encoding. The synthesizer (src/synth)
/// computes the cross product of state transitions and FFI functions and
/// attaches the instrumentation to wrappers — Algorithm 1 verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_SPEC_STATEMACHINE_H
#define JINN_SPEC_STATEMACHINE_H

#include "jvmti/Interpose.h"

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace jinn::spec {

/// The four kinds of language transitions (paper §3.2 and Figures 2/6/7/8).
enum class Direction : uint8_t {
  CallJavaToC,   ///< entry into a native method
  ReturnCToJava, ///< return from a native method
  CallCToJava,   ///< a JNI function is about to execute
  ReturnJavaToC, ///< a JNI function has just returned to C
};

const char *directionName(Direction Dir);

/// Selects the FFI functions a language transition applies to.
struct FunctionSelector {
  enum class Kind : uint8_t {
    AllJniFunctions,
    OneJniFunction,
    JniPredicate,
    AnyNativeMethod,
  };
  Kind K = Kind::AllJniFunctions;
  jni::FnId Fn = jni::FnId::Count;
  std::function<bool(const jni::FnTraits &)> Pred;
  /// Human-readable description, used by the code emitter and docs
  /// (e.g. "any JNI function taking a reference").
  std::string Description;

  static FunctionSelector all(std::string Description);
  static FunctionSelector one(jni::FnId Fn);
  static FunctionSelector matching(std::string Description,
                                   std::function<bool(const jni::FnTraits &)>
                                       Pred);
  static FunctionSelector nativeMethods(std::string Description);

  /// True when this selector matches JNI function \p Id. Out-of-range ids
  /// (FnId::Count and beyond) and selectors without a predicate never
  /// match, so a malformed selector degrades to "matches nothing" instead
  /// of crashing — the speclint analyzer reports it as a zero-match error.
  bool matches(jni::FnId Id) const;
};

/// Every JNI function \p Fns matches, in FnId order. AnyNativeMethod
/// selectors match no JNI function. Shared by Algorithm 1 (which installs
/// one hook per matched function) and the static analyzer (which builds
/// the relevance matrix from the same sets), so the two can never drift.
std::vector<jni::FnId> matchedFunctions(const FunctionSelector &Fns);

/// A language transition point: function set x direction.
struct LanguageTransition {
  FunctionSelector Fns;
  Direction Dir;
};

class StateMachineSpec;
class Reporter;

/// Thread-lifecycle information handed to machines at thread start. Live
/// runs build it from the attaching JThread; replay builds it from the
/// recorded ThreadAttach event.
struct ThreadStartInfo {
  uint32_t Id = 0;
  std::string Name;
  uint64_t EnvWord = 0; ///< JNIEnv identity at attach (0 when not created)
  uint32_t FrameCapacity = 16;
};

/// Context handed to a transition action: either a JNI call site (wrapping
/// the CapturedCall) or a native method boundary.
class TransitionContext {
public:
  enum class Site : uint8_t { JniPre, JniPost, NativeEntry, NativeExit };

  static TransitionContext jniSite(Site S, jvmti::CapturedCall &Call,
                                   Reporter &Rep) {
    TransitionContext Ctx;
    Ctx.TheSite = S;
    Ctx.Call = &Call;
    Ctx.Env = Call.env();
    Ctx.Snap = Call.snapshot();
    Ctx.Renv = Call.replayEnv();
    Ctx.Rep = &Rep;
    return Ctx;
  }

  static TransitionContext nativeSite(Site S, jvm::MethodInfo &Method,
                                      JNIEnv *Env, jobject Self,
                                      const jvalue *Args, jvalue *Ret,
                                      Reporter &Rep) {
    TransitionContext Ctx;
    Ctx.TheSite = S;
    Ctx.Method = &Method;
    Ctx.Env = Env;
    Ctx.Self = Self;
    Ctx.Args = Args;
    Ctx.Ret = Ret;
    Ctx.Rep = &Rep;
    return Ctx;
  }

  /// Native-method boundary reconstructed from a recorded trace event:
  /// observations answer from \p Snap, the VM comes from \p Renv.
  static TransitionContext
  nativeReplaySite(Site S, jvm::MethodInfo &Method,
                   const jvmti::BoundarySnapshot &Snap,
                   const jvmti::ReplayEnvironment &Renv, jobject Self,
                   const jvalue *Args, jvalue *Ret, Reporter &Rep) {
    TransitionContext Ctx;
    Ctx.TheSite = S;
    Ctx.Method = &Method;
    Ctx.Self = Self;
    Ctx.Args = Args;
    Ctx.Ret = Ret;
    Ctx.Snap = &Snap;
    Ctx.Renv = &Renv;
    Ctx.Rep = &Rep;
    return Ctx;
  }

  Site site() const { return TheSite; }
  bool isJniSite() const {
    return TheSite == Site::JniPre || TheSite == Site::JniPost;
  }

  /// JNI sites only.
  jvmti::CapturedCall &call() const { return *Call; }

  /// Native-method sites only.
  jvm::MethodInfo &method() const { return *Method; }
  jobject self() const { return Self; }
  const jvalue *args() const { return Args; }
  jvalue *ret() const { return Ret; }

  JNIEnv *env() const { return Env; }
  jvm::JThread &thread() const { return *Env->thread; }
  jvm::Vm &vm() const { return Env ? *Env->vm : *Renv->Vm; }
  bool isReplay() const { return Snap != nullptr; }

  //===------------------------------------------------------------------===
  // Observation accessors. Live sites answer from the running VM; replayed
  // sites answer from the BoundarySnapshot frozen at crossing time. Machine
  // actions must observe the VM only through these (plus vm() queries over
  // stable entities: klasses, method/field infos, the heap).
  //===------------------------------------------------------------------===

  /// Id/name of the thread the JNIEnv at this site belongs to.
  uint32_t threadId() const;
  std::string threadName() const;
  /// Id/name of the thread actually executing the call (0/"" unknown); only
  /// differs from threadId() when code uses another thread's JNIEnv.
  uint32_t currentThreadId() const;
  std::string currentThreadName() const;
  /// Identity of the JNIEnv pointer used at this site.
  uint64_t envWord() const;
  /// Whether an exception is pending on the site's thread.
  bool exceptionPending() const;
  /// Handle inspection as of crossing time (Vm::peekHandle semantics).
  jvm::Vm::PeekResult peek(uint64_t Word) const;
  /// For pin-release sites: whether \p Buf had a pin record, and the pinned
  /// target's raw ObjectId in \p TargetRaw.
  bool releasedBuffer(const void *Buf, uint64_t &TargetRaw) const;
  /// The VM's ensured local-reference frame capacity.
  uint32_t nativeFrameCapacity() const;

  Reporter &reporter() const { return *Rep; }

  /// Suppresses the underlying call (JNI pre sites and native entries).
  void abortCall();
  bool aborted() const;

  /// Name of the FFI function / native method at this site.
  std::string siteName() const;

private:
  TransitionContext() = default;
  Site TheSite = Site::JniPre;
  jvmti::CapturedCall *Call = nullptr;
  jvm::MethodInfo *Method = nullptr;
  JNIEnv *Env = nullptr;
  jobject Self = nullptr;
  const jvalue *Args = nullptr;
  jvalue *Ret = nullptr;
  const jvmti::BoundarySnapshot *Snap = nullptr;
  const jvmti::ReplayEnvironment *Renv = nullptr;
  Reporter *Rep = nullptr;
  bool NativeAborted = false;
};

/// Code attached to one state transition: decides whether the transition
/// fired for the entities at this site, updates the machine encoding, and
/// reports violations through the context's Reporter.
///
/// Deliberately not a std::function: the action is stored as a shared
/// callable plus a raw trampoline pointer so the synthesizer can copy
/// `(rawInvoke, rawObject)` pairs into its compiled per-function check
/// program (synth::JniCheckProgram) and run each check as one plain
/// indirect call — no std::function dispatch on the crossing hot path.
class TransitionAction {
public:
  using RawFn = void (*)(void *, TransitionContext &);

  TransitionAction() = default;
  TransitionAction(std::nullptr_t) {}

  template <typename Callable,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Callable>, TransitionAction>>>
  TransitionAction(Callable &&Fn)
      : Obj(std::make_shared<std::decay_t<Callable>>(
            std::forward<Callable>(Fn))),
        Invoke(&trampoline<std::decay_t<Callable>>) {}

  void operator()(TransitionContext &Ctx) const { Invoke(Obj.get(), Ctx); }
  explicit operator bool() const { return Invoke != nullptr; }

  /// Compiled-program binding: the trampoline and the callable's address. Any
  /// slot array built from these must keep a copy of the action (or its
  /// owning spec) alive; the callable is shared, not copied.
  RawFn rawInvoke() const { return Invoke; }
  void *rawObject() const { return Obj.get(); }

private:
  template <typename Callable>
  static void trampoline(void *ObjPtr, TransitionContext &Ctx) {
    (*static_cast<Callable *>(ObjPtr))(Ctx);
  }

  std::shared_ptr<void> Obj;
  RawFn Invoke = nullptr;
};

/// The pushdown extension (ROADMAP item 3, after Ferles et al.): some JNI
/// rules are stack-shaped — Push/PopLocalFrame nesting, MonitorEnter/Exit
/// balance, nested critical sections — and cannot be expressed by a finite
/// state machine alone. A machine may declare one bounded counter (an
/// abstraction of a stack whose symbols are indistinguishable); transitions
/// then declare how they move it. The *dynamic* encoding stays inside the
/// machine's action code (a wait-free per-thread depth word); the
/// declaration is what makes the rule analyzable: speclint checks
/// push/pop reachability and boundedness, and the static verifier
/// (analysis/verify) interprets the counter abstractly with widening to
/// [0, Bound].
enum class CounterOp : uint8_t {
  None, ///< the transition does not touch the counter
  Push, ///< increments; a Push into an error state fires *at* the bound
  Pop,  ///< decrements; a Pop into an error state fires at zero (underflow)
};

const char *counterOpName(CounterOp Op);

/// A machine's declared counter. A default-constructed CounterSpec (empty
/// name) means "no counter" — the machine is a plain FSM.
struct CounterSpec {
  std::string Name; ///< "local-frame depth"
  /// Static widening cap: the abstract interval domain widens the counter
  /// to [0, Bound]. 0 declares the counter unbounded, which speclint
  /// reports as a warning (the abstraction then widens to [0, +inf) and
  /// loses must-bug precision above zero).
  uint32_t Bound = 0;

  bool declared() const { return !Name.empty(); }
};

/// One state transition (sa -> sb) of a machine, with its mapping to
/// language transitions (Mi.languageTransitionsFor) and its action.
struct StateTransition {
  std::string From;
  std::string To;
  std::vector<LanguageTransition> At;
  TransitionAction Action;
  /// How this transition moves the machine's declared counter. The guard
  /// is implicit in the target state: ops into an error state are the
  /// boundary violations (Pop at zero, Push at the bound); ops into a
  /// non-error state are the ordinary moves (Pop when positive, Push below
  /// the bound).
  CounterOp Counter = CounterOp::None;
  /// Violation text for spec-decidable error transitions (the
  /// counter-guarded checks): the exact message the action passes to
  /// Reporter::violation. Declaring it here lets the static verifier
  /// (analysis/verify) synthesize byte-identical reports from the interval
  /// domain alone. Empty for value-dependent checks, whose messages only
  /// the action can produce.
  std::string Violation = {};
};

/// A full state machine specification.
class StateMachineSpec {
public:
  std::string Name;           ///< "Local reference"
  std::string ObservedEntity; ///< "A local JNI reference"
  std::string Errors;         ///< "Overflow, leak, dangling, double-free"
  std::string Encoding;       ///< description of the runtime encoding
  std::vector<std::string> States;
  std::vector<StateTransition> Transitions;
  CounterSpec Counter; ///< the pushdown extension; empty name = no counter
};

/// How violations are surfaced. Jinn throws jinn.JNIAssertionFailure; the
/// -Xcheck:jni emulations print warnings or abort; tests count reports.
class Reporter {
public:
  virtual ~Reporter();

  /// Report that \p Machine detected a constraint violation at \p Ctx.
  /// Implementations may set a pending exception and abort the call.
  virtual void violation(TransitionContext &Ctx,
                         const StateMachineSpec &Machine,
                         const std::string &Message) = 0;

  /// Report an end-of-run finding (leaks at VM death) — there is no call
  /// context or thread to throw into at that point.
  virtual void endOfRun(const StateMachineSpec &Machine,
                        const std::string &Message) = 0;
};

/// Base class for concrete machines: owns the spec (with actions bound to
/// the machine's mutable encoding) plus lifecycle hooks for end-of-run
/// checks (leak reports at VM death) and per-thread setup.
class MachineBase {
public:
  virtual ~MachineBase();
  const StateMachineSpec &spec() const { return Spec; }

  /// End-of-run checks (leaks at program termination, Figure 8's
  /// "program termination / JVMTI callback" transitions).
  virtual void onVmDeath(Reporter &Rep, jvm::Vm &Vm) {
    (void)Rep;
    (void)Vm;
  }
  virtual void onThreadStart(const ThreadStartInfo &Info) { (void)Info; }

protected:
  StateMachineSpec Spec;
};

} // namespace jinn::spec

#endif // JINN_SPEC_STATEMACHINE_H
