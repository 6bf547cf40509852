//===- fuzz/PyFuzz.cpp - Python/C-domain fuzzing (§7 generalization) -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/PyFuzz.h"

#include "pyjinn/PyChecker.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <functional>

using namespace jinn;
using namespace jinn::fuzz;

static const char RefM[] = "Reference ownership";
static const char GilM[] = "GIL state";
static const char PyExcM[] = "Exception state";
static const char TypeM[] = "Type constraints";

namespace {

struct PyState {
  pyc::PyInterp &I;
  const pyc::PyApi *Api;
  std::vector<pyc::PyObject *> Owned; ///< we hold one reference each
  pyc::PyObject *List = nullptr;      ///< owned workhorse list
  pyc::PyObject *Borrowed = nullptr;  ///< borrowed item of List
};

struct PyOp {
  const char *Name;
  bool Bug = false;
  const char *ExpectMachine = nullptr;
  const char *ExpectPart = nullptr;
  /// (machine, transition index) pairs over buildPythonModels().
  std::vector<std::pair<const char *, size_t>> Edges;
  std::vector<const char *> Setup;
  std::function<bool(const PyState &)> Ready;
  std::function<void(PyState &)> Apply;
};

std::vector<PyOp> buildPyOps() {
  std::vector<PyOp> Ops;

  {
    PyOp Op;
    Op.Name = "py_int_new";
    Op.Edges = {{RefM, 0}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      if (pyc::PyObject *O = S.Api->PyInt_FromLong(&S.I, 7))
        S.Owned.push_back(O);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_str_new";
    Op.Edges = {{RefM, 0}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      if (pyc::PyObject *O = S.Api->PyString_FromString(&S.I, "fuzz"))
        S.Owned.push_back(O);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_list_new";
    Op.Edges = {{RefM, 0}};
    Op.Ready = [](const PyState &S) { return !S.List; };
    Op.Apply = [](PyState &S) {
      S.List = S.Api->Py_BuildValue(&S.I, "[sss]", "a", "b", "c");
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_borrow";
    Op.Setup = {"py_list_new"};
    Op.Edges = {{RefM, 1}};
    Op.Ready = [](const PyState &S) { return S.List && !S.Borrowed; };
    Op.Apply = [](PyState &S) {
      S.Borrowed = S.Api->PyList_GetItem(&S.I, S.List, 1);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_use_borrow";
    Op.Setup = {"py_borrow"};
    Op.Edges = {{TypeM, 0}};
    Op.Ready = [](const PyState &S) { return S.List && S.Borrowed; };
    Op.Apply = [](PyState &S) {
      S.Api->PyString_AsString(&S.I, S.Borrowed);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_decref_owned";
    Op.Edges = {{RefM, 2}};
    Op.Ready = [](const PyState &S) { return !S.Owned.empty(); };
    Op.Apply = [](PyState &S) {
      S.Api->Py_DecRef(&S.I, S.Owned.back());
      S.Owned.pop_back();
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_list_drop";
    Op.Edges = {{RefM, 2}};
    Op.Ready = [](const PyState &S) { return S.List != nullptr; };
    Op.Apply = [](PyState &S) {
      S.Api->Py_DecRef(&S.I, S.List);
      S.List = nullptr;
      S.Borrowed = nullptr; // died with its owner; never used again
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_gil_roundtrip";
    Op.Edges = {{GilM, 0}, {GilM, 1}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      void *St = S.Api->PyEval_SaveThread(&S.I);
      S.Api->PyEval_RestoreThread(&S.I, St);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_err_roundtrip";
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      S.Api->PyErr_SetString(&S.I, S.I.excTypeError(), "fuzz probe");
      S.Api->PyErr_Clear(&S.I);
    };
    Ops.push_back(std::move(Op));
  }

  {
    PyOp Op;
    Op.Name = "py_bug_dangling_borrow";
    Op.Bug = true;
    Op.ExpectMachine = RefM;
    Op.ExpectPart = "use of a dangling reference";
    Op.Setup = {"py_list_new", "py_borrow"};
    Op.Edges = {{RefM, 3}, {RefM, 2}};
    Op.Ready = [](const PyState &S) { return S.List && S.Borrowed; };
    Op.Apply = [](PyState &S) {
      S.Api->Py_DecRef(&S.I, S.List); // the borrow dies with its owner
      S.List = nullptr;
      S.Api->PyString_AsString(&S.I, S.Borrowed); // BUG: dangling use
      S.Borrowed = nullptr;
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_bug_no_gil";
    Op.Bug = true;
    Op.ExpectMachine = GilM;
    Op.ExpectPart = "without holding the GIL";
    Op.Edges = {{GilM, 2}, {GilM, 0}, {GilM, 1}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      void *St = S.Api->PyEval_SaveThread(&S.I);
      S.Api->PyList_New(&S.I, 0); // BUG: API call with the GIL released
      S.Api->PyEval_RestoreThread(&S.I, St);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_bug_exc_pending";
    Op.Bug = true;
    Op.ExpectMachine = PyExcM;
    Op.ExpectPart = "while an exception is pending";
    Op.Edges = {{PyExcM, 2}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      S.Api->PyErr_SetString(&S.I, S.I.excTypeError(), "fuzz probe");
      S.Api->PyList_New(&S.I, 0); // BUG: exception-sensitive call
      S.Api->PyErr_Clear(&S.I);
    };
    Ops.push_back(std::move(Op));
  }
  {
    PyOp Op;
    Op.Name = "py_bug_wrong_type";
    Op.Bug = true;
    Op.ExpectMachine = TypeM;
    Op.ExpectPart = "argument has type";
    Op.Edges = {{TypeM, 0}, {RefM, 0}, {RefM, 2}};
    Op.Ready = [](const PyState &) { return true; };
    Op.Apply = [](PyState &S) {
      pyc::PyObject *Num = S.Api->PyInt_FromLong(&S.I, 3);
      S.Api->PyList_Size(&S.I, Num); // BUG: an int where a list is required
      S.Api->PyErr_Clear(&S.I);
      S.Api->Py_DecRef(&S.I, Num);
    };
    Ops.push_back(std::move(Op));
  }

  return Ops;
}

const std::vector<PyOp> &pyOps() {
  static const std::vector<PyOp> Ops = buildPyOps();
  return Ops;
}

const PyOp *findPyOp(const std::string &Name) {
  for (const PyOp &Op : pyOps())
    if (Name == Op.Name)
      return &Op;
  return nullptr;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ULL;
  }
  return H;
}

void emitPyWithSetup(const PyOp &Op, std::vector<std::string> &Out) {
  for (const char *Dep : Op.Setup)
    if (const PyOp *D = findPyOp(Dep))
      emitPyWithSetup(*D, Out);
  Out.push_back(Op.Name);
}

} // namespace

const std::vector<std::string> &jinn::fuzz::pyOpNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const PyOp &Op : pyOps())
      N.push_back(Op.Name);
    return N;
  }();
  return Names;
}

bool jinn::fuzz::isPyBugOp(const std::string &Name) {
  const PyOp *Op = findPyOp(Name);
  return Op && Op->Bug;
}

std::vector<std::string> jinn::fuzz::pyBugOpNames() {
  std::vector<std::string> Names;
  for (const PyOp &Op : pyOps())
    if (Op.Bug)
      Names.push_back(Op.Name);
  return Names;
}

PyExecResult jinn::fuzz::runPySequence(const Sequence &Seq) {
  PyExecResult R;
  pyc::PyInterp I;
  pyjinn::PyChecker Checker(I);
  PyState S{I, pyc::activePyApi(I), {}, nullptr, nullptr};

  const PyOp *Bug = nullptr;
  for (const std::string &Name : Seq.OpNames) {
    const PyOp *Op = findPyOp(Name);
    if (!Op) {
      R.Failures.push_back("unknown py op " + Name);
      continue;
    }
    if (!Op->Ready(S))
      continue;
    Op->Apply(S);
    R.ExecutedOps.push_back(Name);
    if (Op->Bug) {
      Bug = Op;
      break;
    }
  }

  // Protocol-correct teardown: release everything still owned.
  for (pyc::PyObject *Obj : S.Owned)
    S.Api->Py_DecRef(&I, Obj);
  if (S.List)
    S.Api->Py_DecRef(&I, S.List);

  const std::vector<pyjinn::PyViolation> &Violations = Checker.violations();
  if (!Bug) {
    for (const pyjinn::PyViolation &V : Violations)
      R.Failures.push_back(formatString("clean py path reported [%s] %s: %s",
                                        V.Machine.c_str(),
                                        V.Function.c_str(),
                                        V.Message.c_str()));
  } else if (Violations.size() != 1) {
    R.Failures.push_back(formatString(
        "py bug path must produce exactly one violation, got %zu",
        Violations.size()));
  } else {
    const pyjinn::PyViolation &V = Violations.front();
    if (V.Machine != Bug->ExpectMachine)
      R.Failures.push_back(formatString(
          "wrong py machine: predicted \"%s\", got \"%s\"",
          Bug->ExpectMachine, V.Machine.c_str()));
    if (V.Message.find(Bug->ExpectPart) == std::string::npos)
      R.Failures.push_back(formatString("py message lacks \"%s\": got %s",
                                        Bug->ExpectPart,
                                        V.Message.c_str()));
  }
  if (size_t Leaked = Checker.leakedObjects())
    R.Failures.push_back(
        formatString("py path leaked %zu object(s)", Leaked));

  R.Pass = R.Failures.empty();
  return R;
}

void jinn::fuzz::coverPySequence(const PyExecResult &Result, Coverage &Cov) {
  for (const std::string &Name : Result.ExecutedOps)
    if (const PyOp *Op = findPyOp(Name))
      for (const auto &[Machine, Index] : Op->Edges)
        Cov.cover(Machine, Index);
}

Sequence jinn::fuzz::cleanPySequence(uint64_t Seed, uint64_t Index) {
  SplitMix64 Rng = SplitMix64(Seed).split(fnv1a("py-clean")).split(Index);
  std::vector<const PyOp *> Clean;
  for (const PyOp &Op : pyOps())
    if (!Op.Bug)
      Clean.push_back(&Op);
  Sequence Seq;
  Seq.Domain = "py";
  size_t Len = 5 + Rng.nextBelow(8);
  for (size_t I = 0; I < Len; ++I)
    emitPyWithSetup(*Clean[Rng.nextBelow(Clean.size())], Seq.OpNames);
  return Seq;
}

Sequence jinn::fuzz::bugPySequence(uint64_t Seed, const std::string &BugOpName,
                                   uint64_t Index) {
  Sequence Seq;
  Seq.Domain = "py";
  const PyOp *Bug = findPyOp(BugOpName);
  if (!Bug || !Bug->Bug)
    return Seq;
  SplitMix64 Rng =
      SplitMix64(Seed).split(fnv1a("py-bug:" + BugOpName)).split(Index);
  std::vector<const PyOp *> Clean;
  for (const PyOp &Op : pyOps())
    if (!Op.Bug)
      Clean.push_back(&Op);
  size_t PrefixLen = Rng.nextBelow(4);
  for (size_t I = 0; I < PrefixLen; ++I)
    emitPyWithSetup(*Clean[Rng.nextBelow(Clean.size())], Seq.OpNames);
  emitPyWithSetup(*Bug, Seq.OpNames);
  return Seq;
}
