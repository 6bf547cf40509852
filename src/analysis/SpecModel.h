//===- analysis/SpecModel.h - Analyzable model of machine specs ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads StateMachineSpec objects into an explicit, analyzable model: each
/// transition's FunctionSelector is resolved to the concrete set of FFI
/// functions it matches (through the same spec::matchedFunctions the
/// synthesizer uses), and the states/transitions become a plain graph the
/// lint passes (SpecLint.h) can walk. The same model form covers both the
/// JNI machines (a 229-function universe from JniFunctions.def) and the
/// Python checker's machines of §7 (a universe from PyFunctions.def).
///
/// From the models the relevance matrix is derived: per machine, the set
/// of functions its synthesized pre (Call:C->Java) and post
/// (Return:Java->C) hooks observe. The matrix re-derives every
/// SynthesisStats count (the consistency lint) and matches the compiled
/// dispatch program — functions outside every machine's relevance set get
/// no machine slot and cross bare.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_ANALYSIS_SPECMODEL_H
#define JINN_ANALYSIS_SPECMODEL_H

#include "spec/StateMachine.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace jinn::analysis {

/// The function universe a model is built over: a name plus the ordered
/// list of function names index positions refer to.
struct FunctionUniverse {
  std::string Name; ///< "JNI" / "Python/C"
  std::vector<std::string> Functions;
  size_t size() const { return Functions.size(); }
};

/// The 229 JNI functions of JniFunctions.def, in FnId order.
const FunctionUniverse &jniUniverse();
/// The Python/C API functions the §7 checker covers (PyFnId order).
const FunctionUniverse &pythonUniverse();

/// A set of functions out of one universe (a dense bitset over indices).
class FnSet {
public:
  FnSet() = default;
  explicit FnSet(size_t Universe) : Bits(Universe, false) {}

  size_t universe() const { return Bits.size(); }
  void set(size_t Index) { Bits[Index] = true; }
  bool test(size_t Index) const { return Index < Bits.size() && Bits[Index]; }

  size_t count() const {
    size_t N = 0;
    for (bool B : Bits)
      N += B;
    return N;
  }
  bool empty() const { return count() == 0; }

  bool intersects(const FnSet &Other) const {
    size_t N = std::min(Bits.size(), Other.Bits.size());
    for (size_t I = 0; I < N; ++I)
      if (Bits[I] && Other.Bits[I])
        return true;
    return false;
  }

  FnSet &operator|=(const FnSet &Other) {
    if (Bits.size() < Other.Bits.size())
      Bits.resize(Other.Bits.size(), false);
    for (size_t I = 0; I < Other.Bits.size(); ++I)
      if (Other.Bits[I])
        Bits[I] = true;
    return *this;
  }

  bool operator==(const FnSet &Other) const { return Bits == Other.Bits; }
  bool operator!=(const FnSet &Other) const { return !(*this == Other); }

  std::vector<size_t> members() const {
    std::vector<size_t> Out;
    for (size_t I = 0; I < Bits.size(); ++I)
      if (Bits[I])
        Out.push_back(I);
    return Out;
  }

private:
  std::vector<bool> Bits;
};

/// One resolved language-transition trigger of a transition.
struct TriggerModel {
  spec::Direction Dir = spec::Direction::CallCToJava;
  spec::FunctionSelector::Kind SelectorKind =
      spec::FunctionSelector::Kind::AllJniFunctions;
  std::string Description;
  /// AnyNativeMethod selectors trigger at the native-method boundary and
  /// match no FFI function; Matches stays empty for them.
  bool NativeSide = false;
  FnSet Matches;
};

/// One state transition with resolved triggers.
struct TransitionModel {
  std::string From, To;
  size_t Index = 0; ///< position in the spec's transition list
  bool HasAction = false;
  /// No triggers and no action: VM-internal bookkeeping declared for
  /// documentation (the exception machine's Cleared<->Pending edges).
  bool Epsilon = false;
  /// Declared counter move (pushdown machines); None for plain FSM edges.
  spec::CounterOp Counter = spec::CounterOp::None;
  /// Declared violation text of a spec-decidable error transition; empty
  /// for value-dependent checks (analysis/verify synthesizes reports only
  /// from declared texts).
  std::string Violation;
  std::vector<TriggerModel> Triggers;
};

/// One machine loaded into the analyzable form.
struct MachineModel {
  std::string Name;
  const FunctionUniverse *Universe = nullptr;
  std::vector<std::string> States;
  std::string StartState; ///< States[0] by the spec convention
  std::vector<TransitionModel> Transitions;
  /// The machine's declared bounded counter (empty name = plain FSM).
  spec::CounterSpec Counter;

  bool hasCounter() const { return Counter.declared(); }
};

/// Loads one JNI machine spec (resolving selectors over jniUniverse()).
MachineModel buildModel(const spec::StateMachineSpec &Spec);

/// Models of the Python checker's four machines ("Reference ownership",
/// "GIL state", "Exception state", "Type constraints"), their trigger sets
/// read off the PyFunctions.def columns, over pythonUniverse().
std::vector<MachineModel> buildPythonModels();

/// Per-machine function relevance derived from a model.
struct MachineRelevance {
  std::string Machine;
  FnSet Pre;  ///< functions observed at Call:C->Java (pre hooks)
  FnSet Post; ///< functions observed at Return:Java->C (post hooks)
  size_t NativeEntryTriggers = 0; ///< Call:Java->C triggers
  size_t NativeExitTriggers = 0;  ///< Return:C->Java triggers
  /// Hook multiset counts exactly as Algorithm 1 installs them (a function
  /// matched by two triggers of one machine counts twice).
  size_t PreHooks = 0;
  size_t PostHooks = 0;
};

/// The full relevance matrix: per machine rows plus the unions the elision
/// and blind-spot analyses read.
struct RelevanceMatrix {
  const FunctionUniverse *Universe = nullptr;
  std::vector<MachineRelevance> Machines;
  FnSet AnyPre, AnyPost; ///< union of pre / post sets over all machines
  FnSet Any;             ///< AnyPre | AnyPost
  /// Union restricted to non-all selectors: what remains observed when the
  /// blanket all-function machines are discounted (blind-spot reporting).
  FnSet SpecificAny;
  size_t TotalTransitions = 0;
  size_t TotalPreHooks = 0;
  size_t TotalPostHooks = 0;
  size_t TotalNativeEntry = 0;
  size_t TotalNativeExit = 0;

  const MachineRelevance *rowFor(const std::string &Machine) const {
    for (const MachineRelevance &Row : Machines)
      if (Row.Machine == Machine)
        return &Row;
    return nullptr;
  }
};

/// Builds the matrix for models over one shared universe.
RelevanceMatrix buildRelevanceMatrix(const std::vector<MachineModel> &Models);

} // namespace jinn::analysis

#endif // JINN_ANALYSIS_SPECMODEL_H
