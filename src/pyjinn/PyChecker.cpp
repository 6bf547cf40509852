//===- pyjinn/PyChecker.cpp - Synthesized Python/C dynamic checker -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pyjinn/PyChecker.h"

#include "mutate/Mutation.h"

#include "support/Format.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

using namespace jinn;
using namespace jinn::pyjinn;
using pyc::PyInterp;
using pyc::PyObject;
using pyc::Py_ssize_t;

const PyFnSpec *jinn::pyjinn::pyFnSpec(const char *Name) {
  for (const PyFnSpec &Spec : PyFnSpecTable)
    if (std::strcmp(Spec.Name, Name) == 0)
      return &Spec;
  return nullptr;
}

//===----------------------------------------------------------------------===
// Checker core
//===----------------------------------------------------------------------===

PyChecker *jinn::pyjinn::checkerOf(PyInterp &Interp) {
  return static_cast<PyChecker *>(Interp.CheckerHandle);
}

void PyChecker::report(const char *Machine, const char *Fn,
                       std::string Message) {
  Violations.push_back({Machine, Fn, Message});
  Interp.diags().report(IncidentKind::Note, "pyjinn",
                        formatString("[%s] %s in %s", Machine,
                                     Message.c_str(), Fn));
  // Signal the error the Python way: a pending exception at the fault.
  Interp.PendingType = Interp.excRuntimeError();
  Interp.PendingMessage = formatString("pyjinn: %s in %s", Message.c_str(),
                                       Fn);
}

/// Entries of the handout table's first allocation.
constexpr size_t FirstHandoutSlots = 64;

void PyChecker::growAndTrack(PyObject *Obj) {
  // Doubling keeps the growth amortized; a slot far beyond the table
  // (a checker constructed over a populated arena) sizes it at once.
  HandoutGen.resize(std::max<size_t>(
      {size_t(Obj->Slot) + 1, HandoutGen.size() * 2, FirstHandoutSlots}));
  if (mutate::active(mutate::M::PySpecHandoutGrowWriteDropped))
    return; // mutant: the handout that grows the table goes unrecorded
  HandoutGen[Obj->Slot] = Obj->Gen;
}

void PyChecker::reportDangling(const char *Fn) {
  report("Reference ownership", Fn,
         "use of a dangling reference (the co-owned object was released; "
         "borrowed references to it are invalid)");
}

void PyChecker::reportGil(const char *Fn, const char *Message) {
  report("GIL state", Fn, Message);
}

void PyChecker::reportPending(const char *Fn) {
  report("Exception state", Fn,
         "Python/C API call while an exception is pending");
}

void PyChecker::reportKind(const char *Fn, pyc::PyKind Actual,
                           pyc::PyKind Required) {
  report("Type constraints", Fn,
         formatString("argument has type %s where %s is required",
                      pyc::pyKindName(Actual), pyc::pyKindName(Required)));
}

size_t PyChecker::leakedObjects() const {
  size_t Live = Interp.liveCount();
  return Live > BaselineLive ? Live - BaselineLive : 0;
}

size_t PyChecker::countFor(const std::string &Machine) const {
  size_t N = 0;
  for (const PyViolation &V : Violations)
    if (V.Machine == Machine)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===
// The generated wrappers (cf. the JNI interposed table)
//===----------------------------------------------------------------------===

namespace {

using pyc::PyFnId;

/// What a suppressed call returns: null or -1, as the interpreter does on
/// failure.
template <typename Ret> Ret suppressed() {
  if constexpr (std::is_pointer_v<Ret>)
    return nullptr;
  else if constexpr (!std::is_void_v<Ret>)
    return static_cast<Ret>(-1);
}

bool checkArg(PyChecker &C, const char *Fn, PyObject *Obj) {
  return C.checkUse(Fn, Obj);
}
template <typename T> bool checkArg(PyChecker &, const char *, T) {
  return true;
}

template <typename First, typename... Rest>
First firstOf(First Arg, Rest...) {
  return Arg;
}

/// Pre-call checks of row \p Id: GIL held, no pending exception (unless
/// oblivious), every PyObject * argument valid in order, then the param-0
/// kind. Returns false when the call must be suppressed.
template <PyFnId Id, typename... Ps> bool preCall(PyChecker &C, Ps... As) {
  constexpr const PyFnSpec &Row = pyFnSpec(Id);
  if (!mutate::active(mutate::M::PySpecGilCheckDropped) &&
      C.ShadowGilDepth <= 0) {
    C.reportGil(Row.Name, "Python/C API call without holding the GIL");
    return false;
  }
  if (!Row.ExceptionOblivious && C.interp().PendingType) {
    C.reportPending(Row.Name);
    return false;
  }
  if (!(checkArg(C, Row.Name, As) && ...))
    return false;
  if constexpr (Row.param0Typed()) {
    static_assert(std::is_same_v<decltype(firstOf(As...)), PyObject *>);
    return C.checkKind(Row.Name, firstOf(As...), Row.Param0Kind);
  }
  return true;
}

/// The checked slot of row \p Id over its implementation \p Impl: the
/// pre-call checks, the call, then a new or borrowed result is recorded.
template <PyFnId Id, typename Fn, Fn Impl> struct MakeWrapper;

template <PyFnId Id, typename Ret, typename... Ps,
          Ret (*Impl)(PyInterp *, Ps...)>
struct MakeWrapper<Id, Ret (*)(PyInterp *, Ps...), Impl> {
  static Ret call(PyInterp *I, Ps... As) {
    PyChecker &C = *checkerOf(*I);
    if (!preCall<Id>(C, As...))
      return suppressed<Ret>();
    if constexpr (pyFnSpec(Id).Return == RefReturn::NoRef) {
      return Impl(I, As...);
    } else {
      Ret Out = Impl(I, As...);
      C.trackHandout(Out);
      return Out;
    }
  }
};

/// GIL functions skip the generic checks and move the shadow depth; a
/// release without the GIL reports instead of reaching the interpreter.
template <PyFnId Id, typename Ret, typename... Ps,
          Ret (*Impl)(PyInterp *, Ps...)>
  requires(pyFnSpec(Id).gilFunction())
struct MakeWrapper<Id, Ret (*)(PyInterp *, Ps...), Impl> {
  static Ret call(PyInterp *I, Ps... As) {
    PyChecker &C = *checkerOf(*I);
    if constexpr (pyFnSpec(Id).GilDelta < 0) {
      if (C.ShadowGilDepth <= 0) {
        C.reportGil(pyFnSpec(Id).Name,
                    Id == PyFnId::PyGILState_Release
                        ? "release of a GIL this thread does not hold"
                        : "the GIL is not held (double save would deadlock)");
        return suppressed<Ret>();
      }
    }
    C.ShadowGilDepth += pyFnSpec(Id).GilDelta;
    return Impl(I, As...);
  }
};

/// The error-state queries run even after a failed pre-check and record
/// nothing: their result is the pending exception type, an immortal.
template <PyFnId Id, typename Ret, typename... Ps,
          Ret (*Impl)(PyInterp *, Ps...)>
  requires(Id == PyFnId::PyErr_Occurred || Id == PyFnId::PyErr_Clear)
struct MakeWrapper<Id, Ret (*)(PyInterp *, Ps...), Impl> {
  static Ret call(PyInterp *I, Ps... As) {
    preCall<Id>(*checkerOf(*I), As...);
    return Impl(I, As...);
  }
};

/// Py_VaBuildValue also records the built container's items: extensions
/// commonly borrow them.
template <PyFnId Id, typename Ret, typename... Ps,
          Ret (*Impl)(PyInterp *, Ps...)>
  requires(Id == PyFnId::Py_VaBuildValue)
struct MakeWrapper<Id, Ret (*)(PyInterp *, Ps...), Impl> {
  static Ret call(PyInterp *I, Ps... As) {
    PyChecker &C = *checkerOf(*I);
    if (!preCall<Id>(C, As...))
      return nullptr;
    PyObject *Out = Impl(I, As...);
    C.trackHandout(Out);
    if (Out)
      for (PyObject *Item : Out->Items)
        C.trackHandout(Item);
    return Out;
  }
};

/// The variadic Py_BuildValue needs no wrapper: its implementation
/// forwards through the active table's checked Py_VaBuildValue.
const pyc::PyApi CheckedApi = {
#define PY_FN(Name, Ret, Params, ...)                                          \
  MakeWrapper<PyFnId::Name, Ret(*) Params, &pyc::impl_##Name>::call,
#define PY_FN_VA(Name, ...) pyc::impl_##Name,
#include "pyc/PyFunctions.def"
#undef PY_FN_VA
#undef PY_FN
};

} // namespace

PyChecker::PyChecker(PyInterp &Interp)
    : Interp(Interp), SavedTable(Interp.ActiveApi),
      SavedHandle(Interp.CheckerHandle), BaselineLive(Interp.liveCount()) {
  Interp.CheckerHandle = this;
  pyc::setActivePyApi(Interp, &CheckedApi);
  ShadowGilDepth = Interp.GilDepth;
}

PyChecker::~PyChecker() {
  pyc::setActivePyApi(Interp, SavedTable);
  Interp.CheckerHandle = SavedHandle;
}
