//===- pyjinn/PyChecker.h - Synthesized Python/C dynamic checker ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §7 generalization: the same three constraint classes applied
/// to Python/C, generated from a specification of which API functions
/// return new vs. borrowed references (the columns of
/// pyc/PyFunctions.def). The generated checker
/// tracks co-owned references and their borrowers; when a co-owner
/// relinquishes an object (Py_DECREF dropping it to zero), its borrowers
/// become invalid, and any use of an invalid reference is reported
/// (Figure 11's dangle_bug). Interpreter-state machines (GIL, pending
/// exception) and first-argument type constraints round out the three
/// classes of §7.1.
///
/// Interposition is a PyApi table swap (see pyc/PyRuntime.h for the
/// substitution note).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PYJINN_PYCHECKER_H
#define JINN_PYJINN_PYCHECKER_H

#include "pyc/PyRuntime.h"

#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace jinn::pyjinn {

/// How a Python/C function treats references (the specification file the
/// synthesizer consumes, paper §7.2).
enum class RefReturn : uint8_t { NoRef, New, Borrowed };

namespace detail {
/// True when a PyApi slot type takes a PyObject * after the interpreter
/// (the variadic Py_BuildValue form takes none).
template <typename Fn> constexpr bool TakesObject = false;
template <typename Ret, typename... Ps>
constexpr bool TakesObject<Ret (*)(pyc::PyInterp *, Ps...)> =
    (std::is_same_v<Ps, pyc::PyObject *> || ...);
} // namespace detail

/// One row of the reference specification (see pyc/PyFunctions.def for
/// the meaning of each column).
struct PyFnSpec {
  const char *Name;
  RefReturn Return = RefReturn::NoRef;
  int BorrowSourceParam = -1; ///< which parameter owns the borrowed result
  int StealsParam = -1;       ///< parameter whose reference is consumed
  bool ExceptionOblivious = false;
  int GilDelta = 0; ///< shadow GIL depth change; nonzero = GIL function
  /// Dynamic type constraint on the first parameter (§7.1 "type
  /// constraints"): the interpreter sometimes forgoes this check for
  /// performance; the checker always performs it. None = unconstrained.
  pyc::PyKind Param0Kind = pyc::PyKind::None;
  bool TakesObject = false; ///< has a PyObject * parameter

  constexpr bool gilFunction() const { return GilDelta != 0; }
  constexpr bool param0Typed() const {
    return Param0Kind != pyc::PyKind::None;
  }
};

/// The specification rows, in PyFnId order.
inline constexpr PyFnSpec PyFnSpecTable[] = {
#define PY_FN(Name, Ret, Params, Result, BorrowSrc, Steals, Oblivious, Gil,   \
              Param0)                                                         \
  {#Name, RefReturn::Result, BorrowSrc, Steals, Oblivious, Gil,               \
   pyc::PyKind::Param0, detail::TakesObject<decltype(pyc::PyApi::Name)>},
#include "pyc/PyFunctions.def"
#undef PY_FN
};
static_assert(std::size(PyFnSpecTable) == pyc::NumPyFunctions);

constexpr const PyFnSpec &pyFnSpec(pyc::PyFnId Id) {
  return PyFnSpecTable[static_cast<size_t>(Id)];
}

/// The reference specification of every covered API function.
inline std::span<const PyFnSpec> pyFnSpecs() { return PyFnSpecTable; }
/// Lookup by name (a linear scan; for the example and the tests).
const PyFnSpec *pyFnSpec(const char *Name);

/// One checker report.
struct PyViolation {
  std::string Machine;  ///< "Reference ownership" / "GIL state" /
                        ///< "Exception state" / "Type constraints"
  std::string Function; ///< API function at fault
  std::string Message;
};

/// The synthesized dynamic checker. Construction interposes on the
/// interpreter's API table; destruction restores it.
class PyChecker {
public:
  explicit PyChecker(pyc::PyInterp &Interp);
  ~PyChecker();
  PyChecker(const PyChecker &) = delete;
  PyChecker &operator=(const PyChecker &) = delete;

  const std::vector<PyViolation> &violations() const { return Violations; }
  void clearViolations() { Violations.clear(); }
  size_t countFor(const std::string &Machine) const;

  /// End-of-run leak check: live non-singleton objects beyond the count at
  /// checker construction.
  size_t leakedObjects() const;

  //===--------------------------------------------------------------------===
  // Internal interface used by the generated wrappers
  //===--------------------------------------------------------------------===

  /// Records a reference handed to extension code (owned or borrowed).
  /// A borrowed reference needs no owner link: when the owner dies, the
  /// borrowed object's slot dies and recycles with it, and the recorded
  /// generation no longer matches.
  void trackHandout(pyc::PyObject *Obj) {
    if (!Obj)
      return;
    if (Obj->Slot < HandoutGen.size())
      HandoutGen[Obj->Slot] = Obj->Gen;
    else
      growAndTrack(Obj);
  }

  /// Returns false (and reports) when \p Obj is dangling/invalidated:
  /// freed, or handed out under another generation of its slot.
  bool checkUse(const char *Fn, pyc::PyObject *Obj) {
    if (!Obj)
      return true; // null arguments are a different (production) concern
    uint32_t Gen = Obj->Slot < HandoutGen.size() ? HandoutGen[Obj->Slot] : 0;
    if (!Obj->Freed && (Gen == 0 || Gen == Obj->Gen))
      return true;
    reportDangling(Fn);
    return false;
  }

  /// §7.1 type constraints: \p Obj must be a live object of \p Kind.
  bool checkKind(const char *Fn, pyc::PyObject *Obj, pyc::PyKind Kind) {
    // Nullness and danglingness are other machines' errors.
    if (!Obj || Obj->Freed || Obj->Kind == Kind)
      return true;
    reportKind(Fn, Obj->Kind, Kind);
    return false;
  }

  void report(const char *Machine, const char *Fn, std::string Message);
  /// The GIL-state and exception-state reports of the checked wrappers,
  /// out of line so no wrapper builds their message strings inline.
  [[gnu::cold, gnu::noinline]] void reportGil(const char *Fn,
                                              const char *Message);
  [[gnu::cold, gnu::noinline]] void reportPending(const char *Fn);

  pyc::PyInterp &interp() { return Interp; }
  int ShadowGilDepth = 1;

private:
  pyc::PyInterp &Interp;
  const pyc::PyApi *SavedTable;
  void *SavedHandle; ///< the checker this one is nested in, if any
  size_t BaselineLive;
  std::vector<PyViolation> Violations;

  /// Object slot (pyc::PyObject::Slot) -> generation at hand-out; 0 means
  /// never handed out (live generations start at 1). A mismatch means the
  /// slot was recycled and the extension's pointer dangles. Grown on
  /// demand by trackHandout, never shrunk or iterated: a re-handout of a
  /// slot overwrites its entry, so the table stays bounded by the
  /// interpreter's arena. Each checker keeps its own, so a nested checker
  /// never overwrites what the outer one recorded.
  std::vector<uint32_t> HandoutGen;

  // The out-of-line halves of the inline checks above, kept out of the
  // checked wrappers that share their translation unit.
  [[gnu::cold, gnu::noinline]] void growAndTrack(pyc::PyObject *Obj);
  [[gnu::cold, gnu::noinline]] void reportDangling(const char *Fn);
  [[gnu::cold, gnu::noinline]] void reportKind(const char *Fn,
                                               pyc::PyKind Actual,
                                               pyc::PyKind Required);
};

/// Retrieves the checker installed on \p Interp (null when none).
PyChecker *checkerOf(pyc::PyInterp &Interp);

} // namespace jinn::pyjinn

#endif // JINN_PYJINN_PYCHECKER_H
