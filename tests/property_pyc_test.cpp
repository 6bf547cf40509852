//===- tests/property_pyc_test.cpp - Python/C refcount fuzz properties ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the Python/C checker: random *protocol-correct*
/// extension code never triggers it and never leaks; random injected
/// use-after-release always triggers it; the interpreter's refcount
/// accounting balances exactly; and the Reference-ownership verdicts of
/// the checker's slot-indexed handout shadow equal those of an
/// address-keyed reference model.
///
//===----------------------------------------------------------------------===//

#include "fuzz/PyFuzz.h"
#include "pyjinn/PyChecker.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>

using namespace jinn;
using namespace jinn::pyc;
using namespace jinn::pyjinn;

namespace {

/// Random correct extension: build containers, borrow items while the
/// owner is alive, release everything.
void runLegalExtension(PyInterp &I, SplitMix64 &Rng, int Steps) {
  const PyApi *Api = activePyApi(I);
  std::vector<PyObject *> Owned; // we hold one reference each
  for (int Step = 0; Step < Steps; ++Step) {
    switch (Rng.nextBelow(5)) {
    case 0:
      Owned.push_back(Api->PyInt_FromLong(
          &I, static_cast<long>(Rng.nextBelow(1000))));
      break;
    case 1:
      Owned.push_back(Api->PyString_FromString(&I, "spam"));
      break;
    case 2: { // build a list and borrow from it while it lives
      PyObject *List = Api->Py_BuildValue(&I, "[sss]", "a", "b", "c");
      PyObject *Item =
          Api->PyList_GetItem(&I, List, Rng.nextBelow(3));
      EXPECT_NE(Api->PyString_AsString(&I, Item), nullptr);
      Owned.push_back(List);
      break;
    }
    case 3: { // append with proper give-back
      if (Owned.empty())
        break;
      PyObject *List = Api->PyList_New(&I, 0);
      PyObject *Item = Api->PyInt_FromLong(&I, 7);
      Api->PyList_Append(&I, List, Item);
      Api->Py_DecRef(&I, Item);
      Owned.push_back(List);
      break;
    }
    default: // release something we own
      if (!Owned.empty()) {
        size_t Pick = Rng.nextBelow(Owned.size());
        Api->Py_DecRef(&I, Owned[Pick]);
        Owned.erase(Owned.begin() + Pick);
      }
      break;
    }
  }
  for (PyObject *Obj : Owned)
    Api->Py_DecRef(&I, Obj);
}

TEST(PycProperty, LegalExtensionsNeverTriggerTheChecker) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    PyInterp I;
    PyChecker Checker(I);
    SplitMix64 Rng(Seed);
    runLegalExtension(I, Rng, 200);
    EXPECT_TRUE(Checker.violations().empty()) << "seed " << Seed;
    EXPECT_EQ(Checker.leakedObjects(), 0u) << "seed " << Seed;
    EXPECT_EQ(I.liveCount(), 0u) << "seed " << Seed;
  }
}

TEST(PycProperty, InjectedUseAfterReleaseAlwaysTriggers) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    PyInterp I;
    PyChecker Checker(I);
    const PyApi *Api = activePyApi(I);
    SplitMix64 Rng(Seed * 3);
    runLegalExtension(I, Rng, static_cast<int>(Rng.nextBelow(100)));
    ASSERT_TRUE(Checker.violations().empty());

    PyObject *List = Api->Py_BuildValue(&I, "[ss]", "x", "y");
    PyObject *Borrowed = Api->PyList_GetItem(&I, List, 0);
    Api->Py_DecRef(&I, List); // the borrow dies with its owner
    Api->PyString_AsString(&I, Borrowed);
    EXPECT_EQ(Checker.countFor("Reference ownership"), 1u)
        << "seed " << Seed;
  }
}

TEST(PycProperty, RefcountsBalanceExactly) {
  PyInterp I;
  const PyApi *Api = defaultPyApi();
  SplitMix64 Rng(11);
  for (int Round = 0; Round < 10; ++Round) {
    uint64_t Before = I.stats().Allocated - I.stats().Deallocated;
    EXPECT_EQ(Before, I.liveCount());
    runLegalExtension(I, Rng, 150);
    EXPECT_EQ(I.liveCount(), 0u);
    EXPECT_EQ(I.stats().Allocated, I.stats().Deallocated);
  }
  (void)Api;
}

/// The jinn-fuzz generator as a property driver: many seeds' worth of
/// generated clean walks must satisfy the same never-triggers/never-leaks
/// property as the handwritten runLegalExtension, and every generated bug
/// path must provoke exactly its declared violation.
TEST(PycProperty, FuzzGeneratedSequencesHoldTheProperty) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    for (uint64_t Index = 0; Index < 4; ++Index) {
      fuzz::PyExecResult R =
          fuzz::runPySequence(fuzz::cleanPySequence(Seed, Index));
      for (const std::string &Failure : R.Failures)
        ADD_FAILURE() << "seed " << Seed << " index " << Index << ": "
                      << Failure;
      EXPECT_TRUE(R.Pass);
    }
    for (const std::string &BugName : fuzz::pyBugOpNames()) {
      fuzz::PyExecResult R =
          fuzz::runPySequence(fuzz::bugPySequence(Seed, BugName, Seed));
      for (const std::string &Failure : R.Failures)
        ADD_FAILURE() << "seed " << Seed << " " << BugName << ": " << Failure;
      EXPECT_TRUE(R.Pass);
    }
  }
}

/// The Reference-ownership rule over an address-keyed shadow: a use
/// dangles when the object is freed, or when it was handed out under a
/// generation its storage no longer has.
class AddressKeyedModel {
public:
  void handout(const PyObject *Obj) {
    if (Obj)
      GenAt[Obj] = Obj->Gen;
  }
  bool dangling(const PyObject *Obj) const {
    auto It = GenAt.find(Obj);
    return Obj->Freed || (It != GenAt.end() && It->second != Obj->Gen);
  }

private:
  std::map<const PyObject *, uint32_t> GenAt;
};

TEST(PycProperty, VerdictsMatchAnAddressKeyedModel) {
  size_t Reports = 0, CleanUses = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    PyInterp I;
    PyChecker Checker(I);
    const PyApi *Api = activePyApi(I);
    AddressKeyedModel Model;
    SplitMix64 Rng(Seed * 7919);
    std::vector<PyObject *> Roots; // top-level objects, live or not
    std::vector<PyObject *> Seen;  // every object a use may name
    auto PickLiveRoot = [&]() -> PyObject * {
      for (int Try = 0; Try < 8 && !Roots.empty(); ++Try)
        if (PyObject *O = Roots[Rng.nextBelow(Roots.size())]; !O->Freed)
          return O;
      return nullptr;
    };
    // Runs one checked call on Obj and compares its verdict with the
    // model's, taken before the call (a release may free the object).
    auto CheckedCall = [&](PyObject *Obj, auto Call) {
      bool Expected = Model.dangling(Obj);
      size_t Before = Checker.countFor("Reference ownership");
      Call(Obj);
      size_t Got = Checker.countFor("Reference ownership") - Before;
      EXPECT_EQ(Got, Expected ? 1u : 0u)
          << "seed " << Seed << " gen " << Obj->Gen;
      (Expected ? Reports : CleanUses) += 1;
      I.PendingType = nullptr; // a report leaves an exception pending
    };
    for (int Step = 0; Step < 400; ++Step) {
      switch (Rng.nextBelow(6)) {
      case 0: { // a new reference handed out
        PyObject *O = Api->PyInt_FromLong(&I, Step);
        Model.handout(O);
        Roots.push_back(O);
        Seen.push_back(O);
        break;
      }
      case 1: { // a container and its items handed out
        PyObject *T = Api->Py_BuildValue(&I, "(ii)", 1L, 2L);
        Model.handout(T);
        Roots.push_back(T);
        Seen.push_back(T);
        for (PyObject *Item : T->Items) {
          Model.handout(Item);
          Seen.push_back(Item);
        }
        break;
      }
      case 2: { // interpreter-internal allocation: recycles a slot unseen
        PyObject *O = I.alloc(PyKind::Int);
        Roots.push_back(O);
        Seen.push_back(O);
        break;
      }
      case 3: // interpreter-internal release
        if (PyObject *O = PickLiveRoot())
          I.decref(O);
        break;
      case 4: // a checked use of any object ever named
        if (!Seen.empty())
          CheckedCall(Seen[Rng.nextBelow(Seen.size())], [&](PyObject *O) {
            Api->PyInt_AsLong(&I, O);
          });
        break;
      default: // a checked release of a live object
        if (PyObject *O = PickLiveRoot())
          CheckedCall(O, [&](PyObject *Obj) { Api->Py_DecRef(&I, Obj); });
        break;
      }
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(Reports, 100u);
  EXPECT_GT(CleanUses, 100u);
}

TEST(PycProperty, ContainersReleaseChildrenRecursively) {
  PyInterp I;
  const PyApi *Api = defaultPyApi();
  // Nested tuple of lists of strings.
  PyObject *Root = Api->Py_BuildValue(&I, "([ss][s]i)", "a", "b", "c", 5L);
  ASSERT_NE(Root, nullptr);
  EXPECT_GT(I.liveCount(), 4u);
  Api->Py_DecRef(&I, Root);
  EXPECT_EQ(I.liveCount(), 0u);
}

} // namespace
