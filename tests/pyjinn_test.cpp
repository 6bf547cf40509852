//===- tests/pyjinn_test.cpp - Python/C checker tests (paper §7) ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pyjinn/PyChecker.h"
#include "scenarios/PythonScenarios.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

using namespace jinn;
using namespace jinn::pyc;
using namespace jinn::pyjinn;

namespace {

TEST(PyChecker, Figure11DangleBugIsDetected) {
  PyInterp I;
  PyChecker Checker(I);
  auto Printed = scenarios::runPyDangleBug(I);
  EXPECT_EQ(Printed.first, "Eric");
  // The checker suppressed the second, dangling read.
  EXPECT_EQ(Printed.second, "");
  ASSERT_EQ(Checker.countFor("Reference ownership"), 1u);
  EXPECT_EQ(Checker.violations().front().Function, "PyString_AsString");
}

TEST(PyChecker, Figure11IsSilentCorruptionInProduction) {
  PyInterp I;
  auto Printed = scenarios::runPyDangleBug(I);
  EXPECT_EQ(Printed.first, "Eric");
  // Production reads the freed slot: garbage, no diagnosis.
  EXPECT_EQ(Printed.second, "<freed>");
  EXPECT_TRUE(I.diags().has(IncidentKind::UndefinedState));
}

TEST(PyChecker, GilBugIsDetected) {
  PyInterp I;
  PyChecker Checker(I);
  scenarios::runPyGilBug(I);
  EXPECT_EQ(Checker.countFor("GIL state"), 1u);
}

TEST(PyChecker, ExceptionBugIsDetected) {
  PyInterp I;
  PyChecker Checker(I);
  scenarios::runPyExceptionBug(I);
  EXPECT_EQ(Checker.countFor("Exception state"), 1u);
}

TEST(PyChecker, CleanExtensionProducesNoReportsAndNoLeaks) {
  PyInterp I;
  PyChecker Checker(I);
  scenarios::runPyCleanExtension(I);
  EXPECT_TRUE(Checker.violations().empty());
  EXPECT_EQ(Checker.leakedObjects(), 0u);
}

TEST(PyChecker, DoubleDecrefReportedBeforeTheCrash) {
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  PyObject *Obj = Api->PyInt_FromLong(&I, 5);
  Api->Py_DecRef(&I, Obj);
  Api->Py_DecRef(&I, Obj);
  EXPECT_EQ(Checker.countFor("Reference ownership"), 1u);
  // The checker suppressed the call, so no simulated crash occurred.
  EXPECT_FALSE(I.diags().has(IncidentKind::SimulatedCrash));
}

TEST(PyChecker, LeakedObjectsAreCounted) {
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  Api->PyInt_FromLong(&I, 1); // never released
  Api->PyString_FromString(&I, "also leaked");
  EXPECT_EQ(Checker.leakedObjects(), 2u);
}

TEST(PyChecker, TypeConstraintViolationsAreDetected) {
  // §7.1's "type constraints" class: the interpreter sometimes forgoes
  // these checks; the synthesized checker always performs them.
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  PyObject *NotAList = Api->PyInt_FromLong(&I, 3);
  EXPECT_EQ(Api->PyList_GetItem(&I, NotAList, 0), nullptr);
  ASSERT_EQ(Checker.countFor("Type constraints"), 1u);
  EXPECT_EQ(Checker.violations().front().Function, "PyList_GetItem");

  Api->PyErr_Clear(&I);
  Checker.clearViolations();
  PyObject *Str = Api->PyString_FromString(&I, "s");
  Api->PyInt_AsLong(&I, Str);
  EXPECT_EQ(Checker.countFor("Type constraints"), 1u);
}

TEST(PyChecker, CorrectTypesPassTheTypeMachine) {
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  PyObject *List = Api->PyList_New(&I, 0);
  PyObject *Item = Api->PyInt_FromLong(&I, 9);
  Api->PyList_Append(&I, List, Item);
  EXPECT_EQ(Api->PyInt_AsLong(&I, Api->PyList_GetItem(&I, List, 0)), 9);
  Api->Py_DecRef(&I, Item);
  Api->Py_DecRef(&I, List);
  EXPECT_TRUE(Checker.violations().empty());
}

TEST(PyChecker, SpecFileCoversEveryApiFunction) {
  // The synthesizer's input must describe each of the 23 table entries.
  EXPECT_EQ(pyFnSpecs().size(), 23u);
  EXPECT_EQ(pyFnSpec("PyList_GetItem")->Return, RefReturn::Borrowed);
  EXPECT_EQ(pyFnSpec("PyList_SetItem")->StealsParam, 2);
  EXPECT_EQ(pyFnSpec("Py_BuildValue")->Return, RefReturn::New);
  EXPECT_TRUE(pyFnSpec("PyErr_Clear")->ExceptionOblivious);
}

TEST(PyChecker, NestedCheckerHandsTheInterpreterBackToTheOuterOne) {
  PyInterp I;
  PyChecker Outer(I);
  { PyChecker Inner(I); }
  // The outer checked table is active again and must find its checker.
  const PyApi *Api = activePyApi(I);
  PyObject *Obj = Api->PyInt_FromLong(&I, 4);
  ASSERT_NE(Obj, nullptr);
  Api->Py_DecRef(&I, Obj);
  Api->PyInt_AsLong(&I, Obj);
  EXPECT_EQ(Outer.countFor("Reference ownership"), 1u);
}

//===----------------------------------------------------------------------===
// Registry conformance: every PyFunctions.def row through the checked table
//===----------------------------------------------------------------------===

/// Sample argument of type \p T: \p Obj for every object parameter, a
/// format/string every const char * row accepts, zero otherwise.
template <typename T> T sampleArg(PyObject *Obj) {
  if constexpr (std::is_same_v<T, PyObject *>)
    return Obj;
  else if constexpr (std::is_same_v<T, const char *>)
    return "i";
  else if constexpr (std::is_pointer_v<T>)
    return nullptr;
  else
    return T(0);
}

template <typename Ret, typename... Ps>
PyObject *callWith(Ret (*Fn)(PyInterp *, Ps...), PyInterp &I,
                   PyObject *Obj) {
  if constexpr (std::is_same_v<Ret, PyObject *>) {
    return Fn(&I, sampleArg<Ps>(Obj)...);
  } else {
    Fn(&I, sampleArg<Ps>(Obj)...);
    return nullptr;
  }
}

PyObject *callWith(PyObject *(*Fn)(PyInterp *, const char *, ...),
                   PyInterp &I, PyObject *) {
  return Fn(&I, "i", 1L);
}

/// Calls row \p Id through the active table; returns an object result.
PyObject *callRow(PyFnId Id, PyInterp &I, PyObject *Obj) {
  const PyApi *Api = activePyApi(I);
  if (Id == PyFnId::Py_VaBuildValue) // reached through its variadic form
    return Api->Py_BuildValue(&I, "i", 1L);
  switch (Id) {
#define PY_FN(Name, ...)                                                       \
  case PyFnId::Name:                                                           \
    return callWith(Api->Name, I, Obj);
#include "pyc/PyFunctions.def"
#undef PY_FN
  case PyFnId::Count:
    break;
  }
  return nullptr;
}

/// An argument object the checker has never seen: of the row's param-0
/// kind (an int when unconstrained), or of another kind when \p Wrong.
/// Containers hold one item so index 0 is valid.
PyObject *argumentFor(PyInterp &I, const PyFnSpec &Row, bool Wrong) {
  PyKind Kind = Row.param0Typed() ? Row.Param0Kind : PyKind::Int;
  if (Wrong)
    Kind = Kind == PyKind::Int ? PyKind::Str : PyKind::Int;
  if (Kind == PyKind::ExcType)
    return I.excTypeError();
  PyObject *Obj = I.alloc(Kind);
  if (Kind == PyKind::List || Kind == PyKind::Tuple)
    Obj->Items.push_back(I.alloc(PyKind::Int));
  return Obj;
}

TEST(PyChecker, EveryRegistryRowConformsToItsSpec) {
  for (size_t Index = 0; Index < NumPyFunctions; ++Index) {
    PyFnId Id = static_cast<PyFnId>(Index);
    const PyFnSpec &Row = pyFnSpec(Id);
    SCOPED_TRACE(Row.Name);

    if (!Row.gilFunction()) {
      PyInterp I;
      PyChecker Checker(I);
      Checker.ShadowGilDepth = 0;
      callRow(Id, I, argumentFor(I, Row, false));
      EXPECT_EQ(Checker.countFor("GIL state"), 1u);
    }

    if (!Row.ExceptionOblivious) {
      PyInterp I;
      PyChecker Checker(I);
      I.PendingType = I.excTypeError();
      callRow(Id, I, argumentFor(I, Row, false));
      EXPECT_EQ(Checker.countFor("Exception state"), 1u);
    }

    if (Row.param0Typed()) {
      PyInterp I;
      PyChecker Checker(I);
      callRow(Id, I, argumentFor(I, Row, true));
      EXPECT_EQ(Checker.countFor("Type constraints"), 1u);
    }

    // A recorded result dangles once its owner dies and the slot is
    // recycled. PyErr_Occurred's borrowed result is the immortal pending
    // exception type, so its wrapper records nothing.
    if (Row.Return != RefReturn::NoRef && Id != PyFnId::PyErr_Occurred) {
      PyInterp I;
      PyChecker Checker(I);
      PyObject *Arg = argumentFor(I, Row, false);
      PyObject *Out = callRow(Id, I, Arg);
      ASSERT_NE(Out, nullptr);
      I.decref(Row.BorrowSourceParam >= 0 ? Arg : Out); // the owner
      while (Out->Freed) // recycle behind the checker's back
        I.alloc(PyKind::Int);
      activePyApi(I)->Py_IncRef(&I, Out);
      EXPECT_EQ(Checker.countFor("Reference ownership"), 1u);
    }
  }
}

TEST(PyChecker, RecycledHandoutsDangleAfterTheHandoutTableGrows) {
  // 1,200 distinct handouts grow the checker's handout table from its
  // first 16 slots to 2,048 while generations are recorded in it.
  constexpr size_t Count = 1200;
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  std::vector<PyObject *> Objects;
  for (size_t K = 0; K < Count; ++K)
    Objects.push_back(Api->PyInt_FromLong(&I, static_cast<long>(K)));

  // Recycle a seeded quarter behind the checker's back.
  SplitMix64 Rng(19);
  std::vector<bool> Recycled(Count, false);
  size_t NumRecycled = 0;
  for (size_t K = 0; K < Count; ++K) {
    if (!Rng.chance(1, 4))
      continue;
    Recycled[K] = true;
    ++NumRecycled;
    I.decref(Objects[K]);
    while (Objects[K]->Freed)
      I.alloc(PyKind::Int);
  }
  ASSERT_GT(NumRecycled, 0u);
  ASSERT_LT(NumRecycled, Count);

  for (size_t K = 0; K < Count; ++K) {
    size_t Before = Checker.countFor("Reference ownership");
    Api->Py_IncRef(&I, Objects[K]);
    EXPECT_EQ(Checker.countFor("Reference ownership") - Before,
              Recycled[K] ? 1u : 0u)
        << "object " << K;
  }
  EXPECT_EQ(Checker.violations().size(), NumRecycled);
}

TEST(PyChecker, ObjectsBeyondALateCheckersHandoutTableAreClean) {
  // The arena holds 300 objects before the checker exists; one handout of
  // a recycled low slot gives the checker a table far smaller than the
  // arena. Objects it never handed out are not dangling, even one whose
  // slot recycled behind its back.
  PyInterp I;
  std::vector<PyObject *> Before;
  for (int K = 0; K < 300; ++K)
    Before.push_back(I.alloc(PyKind::Int));
  I.decref(Before[0]);
  I.decref(Before[250]);
  I.alloc(PyKind::Int); // reuses Before[250]'s slot, unseen by any checker

  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  PyObject *Low = Api->PyInt_FromLong(&I, 1); // reuses Before[0]'s slot
  ASSERT_EQ(Low, Before[0]);
  for (int K = 1; K < 300; ++K)
    Api->PyInt_AsLong(&I, Before[K]);
  EXPECT_TRUE(Checker.violations().empty());

  // The handed-out low slot is still tracked.
  I.decref(Low);
  I.alloc(PyKind::Int);
  Api->PyInt_AsLong(&I, Low);
  EXPECT_EQ(Checker.countFor("Reference ownership"), 1u);
}

TEST(PyChecker, SingletonHandoutsStayValidAndAliasNoArenaObject) {
  // None and the exception types are handed out like any object; they
  // never die, so their handouts never dangle, and recording them must
  // not shadow the arena object a later handout records.
  PyInterp I;
  PyChecker Checker(I);
  const PyApi *Api = activePyApi(I);
  PyObject *List = Api->PyList_New(&I, 0);
  PyObject *Exc[] = {I.excRuntimeError(), I.excTypeError(),
                     I.excSystemError()};
  Api->PyList_Append(&I, List, I.none());
  for (PyObject *Type : Exc)
    Api->PyList_Append(&I, List, Type);
  std::vector<PyObject *> Borrowed;
  for (Py_ssize_t K = 0; K < 4; ++K)
    Borrowed.push_back(Api->PyList_GetItem(&I, List, K));
  EXPECT_EQ(Borrowed[0], I.none());

  // Churn: arena slots are handed out again and again under rising
  // generations, none of which may land on a singleton's entry.
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<PyObject *> Ints;
    for (long K = 0; K < 8; ++K)
      Ints.push_back(Api->PyInt_FromLong(&I, K));
    for (PyObject *Int : Ints)
      Api->Py_DecRef(&I, Int);
  }

  // An arena object handed out, released and recycled behind the
  // checker's back dangles; the singletons beside it stay valid.
  PyObject *Obj = Api->PyInt_FromLong(&I, 7);
  Api->Py_DecRef(&I, Obj);
  I.alloc(PyKind::Int);
  for (int Round = 0; Round < 3; ++Round) {
    for (PyObject *Single : Borrowed)
      Api->Py_IncRef(&I, Single);
    for (PyObject *Type : Exc) {
      Api->PyErr_SetString(&I, Type, "raised");
      Api->PyErr_Clear(&I);
    }
  }
  EXPECT_TRUE(Checker.violations().empty());
  Api->PyInt_AsLong(&I, Obj);
  EXPECT_EQ(Checker.countFor("Reference ownership"), 1u);
  EXPECT_EQ(Checker.violations().size(), 1u);
}

TEST(PyChecker, NestedCheckerReHandoutDoesNotHideTheOuterRecord) {
  // The outer checker records Obj; Obj dies and its slot recycles while
  // an inner checker is installed, which hands the slot out again. Once
  // the outer checker is back, the stale pointer still dangles for it.
  PyInterp I;
  PyChecker Outer(I);
  const PyApi *Api = activePyApi(I);
  PyObject *Obj = Api->PyInt_FromLong(&I, 1);
  Api->Py_DecRef(&I, Obj);
  PyObject *Again;
  {
    PyChecker Inner(I);
    Again = activePyApi(I)->PyInt_FromLong(&I, 2);
    ASSERT_EQ(Again, Obj); // the same slot, one generation on
    activePyApi(I)->PyInt_AsLong(&I, Again);
    EXPECT_TRUE(Inner.violations().empty());
  }
  EXPECT_TRUE(Outer.violations().empty());
  activePyApi(I)->PyInt_AsLong(&I, Obj);
  EXPECT_EQ(Outer.countFor("Reference ownership"), 1u);
}

} // namespace
