//===- analysis/SpecModel.cpp - Analyzable model of machine specs --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecModel.h"

#include "jni/JniFunctionId.h"
#include "pyjinn/PyChecker.h"

using namespace jinn;
using namespace jinn::analysis;
using jinn::pyjinn::PyFnSpec;
using jinn::pyjinn::RefReturn;
using jinn::spec::Direction;
using jinn::spec::FunctionSelector;

const FunctionUniverse &jinn::analysis::jniUniverse() {
  static const FunctionUniverse Universe = [] {
    FunctionUniverse U;
    U.Name = "JNI";
    for (size_t I = 0; I < jni::NumJniFunctions; ++I)
      U.Functions.push_back(jni::fnName(static_cast<jni::FnId>(I)));
    return U;
  }();
  return Universe;
}

const FunctionUniverse &jinn::analysis::pythonUniverse() {
  static const FunctionUniverse Universe = [] {
    FunctionUniverse U;
    U.Name = "Python/C";
    for (const PyFnSpec &Spec : pyjinn::pyFnSpecs())
      U.Functions.push_back(Spec.Name);
    return U;
  }();
  return Universe;
}

MachineModel jinn::analysis::buildModel(const spec::StateMachineSpec &Spec) {
  MachineModel Model;
  Model.Name = Spec.Name;
  Model.Universe = &jniUniverse();
  Model.States = Spec.States;
  if (!Spec.States.empty())
    Model.StartState = Spec.States.front();
  Model.Counter = Spec.Counter;

  for (size_t I = 0; I < Spec.Transitions.size(); ++I) {
    const spec::StateTransition &Transition = Spec.Transitions[I];
    TransitionModel T;
    T.From = Transition.From;
    T.To = Transition.To;
    T.Index = I;
    T.HasAction = static_cast<bool>(Transition.Action);
    T.Epsilon = Transition.At.empty() && !T.HasAction;
    T.Counter = Transition.Counter;
    T.Violation = Transition.Violation;
    for (const spec::LanguageTransition &Lang : Transition.At) {
      TriggerModel Trigger;
      Trigger.Dir = Lang.Dir;
      Trigger.SelectorKind = Lang.Fns.K;
      Trigger.Description = Lang.Fns.Description;
      Trigger.NativeSide =
          Lang.Fns.K == FunctionSelector::Kind::AnyNativeMethod;
      Trigger.Matches = FnSet(jni::NumJniFunctions);
      if (!Trigger.NativeSide)
        for (jni::FnId Id : spec::matchedFunctions(Lang.Fns))
          Trigger.Matches.set(static_cast<size_t>(Id));
      T.Triggers.push_back(std::move(Trigger));
    }
    Model.Transitions.push_back(std::move(T));
  }
  return Model;
}

//===----------------------------------------------------------------------===
// Python checker models (§7): trigger sets read off PyFunctions.def columns
//===----------------------------------------------------------------------===

namespace {

/// Every trigger set of the Python machines, one pass over the registry.
struct PyTriggerSets {
  static constexpr size_t N = pyc::NumPyFunctions;
  FnSet NewRef{N}, BorrowedRef{N}, ReleasesRef{N}, TakesObject{N};
  FnSet GilRelease{N}, GilAcquire{N}, NonGil{N}, ExceptionSensitive{N},
      Typed{N};

  PyTriggerSets() {
    for (size_t I = 0; I < N; ++I) {
      const PyFnSpec &Row = pyjinn::PyFnSpecTable[I];
      if (Row.Return == RefReturn::New)
        NewRef.set(I);
      if (Row.Return == RefReturn::Borrowed)
        BorrowedRef.set(I);
      if (Row.StealsParam >= 0)
        ReleasesRef.set(I);
      if (Row.TakesObject)
        TakesObject.set(I);
      if (Row.GilDelta < 0)
        GilRelease.set(I);
      if (Row.GilDelta > 0)
        GilAcquire.set(I);
      if (!Row.gilFunction())
        NonGil.set(I);
      if (!Row.ExceptionOblivious)
        ExceptionSensitive.set(I);
      if (Row.param0Typed())
        Typed.set(I);
    }
  }
};

TriggerModel pyTrigger(Direction Dir, std::string Description, FnSet Set) {
  TriggerModel Trigger;
  Trigger.Dir = Dir;
  Trigger.SelectorKind = FunctionSelector::Kind::JniPredicate;
  Trigger.Description = std::move(Description);
  Trigger.Matches = std::move(Set);
  return Trigger;
}

TransitionModel pyTransition(std::string From, std::string To, size_t Index,
                             std::vector<TriggerModel> Triggers,
                             bool HasAction = true) {
  TransitionModel T;
  T.From = std::move(From);
  T.To = std::move(To);
  T.Index = Index;
  T.HasAction = HasAction;
  T.Epsilon = Triggers.empty() && !HasAction;
  T.Triggers = std::move(Triggers);
  return T;
}

MachineModel pyMachine(std::string Name, std::vector<std::string> States) {
  MachineModel M;
  M.Name = std::move(Name);
  M.Universe = &pythonUniverse();
  M.States = std::move(States);
  M.StartState = M.States.front();
  return M;
}

} // namespace

std::vector<MachineModel> jinn::analysis::buildPythonModels() {
  const PyTriggerSets S;
  std::vector<MachineModel> Models;

  // Reference ownership (Figure 11's dangle_bug class): acquisition at
  // returns of new/borrowed references, release by the calls that consume
  // a reference argument, use by any object-taking function.
  MachineModel Ref = pyMachine(
      "Reference ownership",
      {"Before acquire", "Acquired", "Released", "Error: dangling"});
  Ref.Transitions.push_back(pyTransition(
      "Before acquire", "Acquired", 0,
      {pyTrigger(Direction::ReturnJavaToC,
                 "functions returning a new reference", S.NewRef)}));
  Ref.Transitions.push_back(pyTransition(
      "Before acquire", "Acquired", 1,
      {pyTrigger(Direction::ReturnJavaToC,
                 "functions returning a borrowed reference", S.BorrowedRef)}));
  Ref.Transitions.push_back(pyTransition(
      "Acquired", "Released", 2,
      {pyTrigger(Direction::CallCToJava,
                 "functions consuming a reference argument",
                 S.ReleasesRef)}));
  Ref.Transitions.push_back(pyTransition(
      "Released", "Error: dangling", 3,
      {pyTrigger(Direction::CallCToJava,
                 "any API function taking an object reference",
                 S.TakesObject)}));
  Models.push_back(std::move(Ref));

  // GIL state: extension code must hold the GIL around every API call;
  // the GIL functions move between Held and Released.
  MachineModel Gil =
      pyMachine("GIL state", {"Held", "Released", "Error: GIL not held"});
  Gil.Transitions.push_back(pyTransition(
      "Held", "Released", 0,
      {pyTrigger(Direction::CallCToJava, "GIL-releasing functions",
                 S.GilRelease)}));
  Gil.Transitions.push_back(pyTransition(
      "Released", "Held", 1,
      {pyTrigger(Direction::CallCToJava, "GIL-acquiring functions",
                 S.GilAcquire)}));
  Gil.Transitions.push_back(pyTransition(
      "Released", "Error: GIL not held", 2,
      {pyTrigger(Direction::CallCToJava, "any non-GIL API function",
                 S.NonGil)}));
  Models.push_back(std::move(Gil));

  // Exception state: mirror of the JNI machine — the pending flag lives in
  // the interpreter (epsilon bookkeeping), the check fires on any
  // exception-sensitive call.
  MachineModel Exc = pyMachine("Exception state",
                               {"Cleared", "Pending", "Error: unhandled"});
  Exc.Transitions.push_back(pyTransition("Cleared", "Pending", 0, {},
                                         /*HasAction=*/false));
  Exc.Transitions.push_back(pyTransition("Pending", "Cleared", 1, {},
                                         /*HasAction=*/false));
  Exc.Transitions.push_back(pyTransition(
      "Pending", "Error: unhandled", 2,
      {pyTrigger(Direction::CallCToJava,
                 "any exception-sensitive API function",
                 S.ExceptionSensitive)}));
  Models.push_back(std::move(Exc));

  // Type constraints (§7.1): the same shape as the JNI "Fixed typing"
  // machine — one state whose self-loop checks the first argument's kind.
  MachineModel Type = pyMachine("Type constraints", {"Checked"});
  Type.Transitions.push_back(pyTransition(
      "Checked", "Checked", 0,
      {pyTrigger(Direction::CallCToJava,
                 "any API function with a typed first parameter", S.Typed)}));
  Models.push_back(std::move(Type));

  return Models;
}

//===----------------------------------------------------------------------===
// Relevance matrix
//===----------------------------------------------------------------------===

RelevanceMatrix jinn::analysis::buildRelevanceMatrix(
    const std::vector<MachineModel> &Models) {
  RelevanceMatrix Matrix;
  if (Models.empty())
    return Matrix;
  Matrix.Universe = Models.front().Universe;
  size_t N = Matrix.Universe->size();
  Matrix.AnyPre = FnSet(N);
  Matrix.AnyPost = FnSet(N);
  Matrix.Any = FnSet(N);
  Matrix.SpecificAny = FnSet(N);

  for (const MachineModel &Model : Models) {
    MachineRelevance Row;
    Row.Machine = Model.Name;
    Row.Pre = FnSet(N);
    Row.Post = FnSet(N);
    for (const TransitionModel &T : Model.Transitions) {
      ++Matrix.TotalTransitions;
      for (const TriggerModel &Trigger : T.Triggers) {
        switch (Trigger.Dir) {
        case Direction::CallCToJava:
          Row.Pre |= Trigger.Matches;
          Row.PreHooks += Trigger.Matches.count();
          break;
        case Direction::ReturnJavaToC:
          Row.Post |= Trigger.Matches;
          Row.PostHooks += Trigger.Matches.count();
          break;
        case Direction::CallJavaToC:
          ++Row.NativeEntryTriggers;
          break;
        case Direction::ReturnCToJava:
          ++Row.NativeExitTriggers;
          break;
        }
        if (Trigger.SelectorKind != FunctionSelector::Kind::AllJniFunctions)
          Matrix.SpecificAny |= Trigger.Matches;
      }
    }
    Matrix.AnyPre |= Row.Pre;
    Matrix.AnyPost |= Row.Post;
    Matrix.TotalPreHooks += Row.PreHooks;
    Matrix.TotalPostHooks += Row.PostHooks;
    Matrix.TotalNativeEntry += Row.NativeEntryTriggers;
    Matrix.TotalNativeExit += Row.NativeExitTriggers;
    Matrix.Machines.push_back(std::move(Row));
  }
  Matrix.Any |= Matrix.AnyPre;
  Matrix.Any |= Matrix.AnyPost;
  return Matrix;
}
