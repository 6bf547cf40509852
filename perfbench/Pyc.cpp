//===- perfbench/Pyc.cpp - The Python/C checker workload -----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pyc` workload: production, pass-through-interposed and PyChecker
/// interpreters built once and timed in alternating slices over the same
/// seeded extension mix. The pass-through table forwards every entry to
/// the production table: the table-swap interposition PyChecker uses,
/// with no checks. pyjinn has no interpose-only mode, so this stub is the
/// benchmark's own and its ratio shows only the swap's indirection.
/// Every 8th round also runs Figure 11's dangle_bug under a fresh checker,
/// which must yield exactly one Reference-ownership report.
///
//===----------------------------------------------------------------------===//

#include "Pyc.h"
#include "Bench.h"

#include "scenarios/PythonScenarios.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <cstring>

using namespace jinn;
using namespace jinn::pyc;

namespace perfbench {

namespace {

constexpr size_t BatchesPerSlice = 64;
constexpr int OpsPerBatch = 64;

const char *const Payloads[8] = {"Eric",  "Graham", "John",  "Michael",
                                 "Terry", "Terry",  "spam", "eggs"};

//===----------------------------------------------------------------------===
// The pass-through table: every entry forwards to the production table,
// captured once, so the table swap's indirection is all it adds.
//===----------------------------------------------------------------------===

const PyApi *const Real = defaultPyApi();

void fwdIncRef(PyInterp *I, PyObject *O) { Real->Py_IncRef(I, O); }
void fwdDecRef(PyInterp *I, PyObject *O) { Real->Py_DecRef(I, O); }
PyObject *fwdIntFromLong(PyInterp *I, long V) {
  return Real->PyInt_FromLong(I, V);
}
long fwdIntAsLong(PyInterp *I, PyObject *O) {
  return Real->PyInt_AsLong(I, O);
}
PyObject *fwdStrFromString(PyInterp *I, const char *S) {
  return Real->PyString_FromString(I, S);
}
const char *fwdStrAsString(PyInterp *I, PyObject *O) {
  return Real->PyString_AsString(I, O);
}
PyObject *fwdListNew(PyInterp *I, Py_ssize_t N) {
  return Real->PyList_New(I, N);
}
Py_ssize_t fwdListSize(PyInterp *I, PyObject *L) {
  return Real->PyList_Size(I, L);
}
PyObject *fwdListGetItem(PyInterp *I, PyObject *L, Py_ssize_t K) {
  return Real->PyList_GetItem(I, L, K);
}
int fwdListSetItem(PyInterp *I, PyObject *L, Py_ssize_t K, PyObject *O) {
  return Real->PyList_SetItem(I, L, K, O);
}
int fwdListAppend(PyInterp *I, PyObject *L, PyObject *O) {
  return Real->PyList_Append(I, L, O);
}
PyObject *fwdTupleNew(PyInterp *I, Py_ssize_t N) {
  return Real->PyTuple_New(I, N);
}
PyObject *fwdTupleGetItem(PyInterp *I, PyObject *T, Py_ssize_t K) {
  return Real->PyTuple_GetItem(I, T, K);
}
int fwdTupleSetItem(PyInterp *I, PyObject *T, Py_ssize_t K, PyObject *O) {
  return Real->PyTuple_SetItem(I, T, K, O);
}
PyObject *fwdVaBuildValue(PyInterp *I, const char *Fmt, va_list Args) {
  return Real->Py_VaBuildValue(I, Fmt, Args);
}
void fwdErrSetString(PyInterp *I, PyObject *Type, const char *Msg) {
  Real->PyErr_SetString(I, Type, Msg);
}
PyObject *fwdErrOccurred(PyInterp *I) { return Real->PyErr_Occurred(I); }
void fwdErrClear(PyInterp *I) { Real->PyErr_Clear(I); }
int fwdGilEnsure(PyInterp *I) { return Real->PyGILState_Ensure(I); }
void fwdGilRelease(PyInterp *I, int H) { Real->PyGILState_Release(I, H); }
void *fwdSaveThread(PyInterp *I) { return Real->PyEval_SaveThread(I); }
void fwdRestoreThread(PyInterp *I, void *S) {
  Real->PyEval_RestoreThread(I, S);
}

const PyApi *passThroughApi() {
  static const PyApi Table = [] {
    PyApi T = *defaultPyApi();
    T.Py_IncRef = fwdIncRef;
    T.Py_DecRef = fwdDecRef;
    T.PyInt_FromLong = fwdIntFromLong;
    T.PyInt_AsLong = fwdIntAsLong;
    T.PyString_FromString = fwdStrFromString;
    T.PyString_AsString = fwdStrAsString;
    T.PyList_New = fwdListNew;
    T.PyList_Size = fwdListSize;
    T.PyList_GetItem = fwdListGetItem;
    T.PyList_SetItem = fwdListSetItem;
    T.PyList_Append = fwdListAppend;
    T.PyTuple_New = fwdTupleNew;
    T.PyTuple_GetItem = fwdTupleGetItem;
    T.PyTuple_SetItem = fwdTupleSetItem;
    // Py_BuildValue stays the production entry: it delegates through the
    // active table's Py_VaBuildValue, which forwards.
    T.Py_VaBuildValue = fwdVaBuildValue;
    T.PyErr_SetString = fwdErrSetString;
    T.PyErr_Occurred = fwdErrOccurred;
    T.PyErr_Clear = fwdErrClear;
    T.PyGILState_Ensure = fwdGilEnsure;
    T.PyGILState_Release = fwdGilRelease;
    T.PyEval_SaveThread = fwdSaveThread;
    T.PyEval_RestoreThread = fwdRestoreThread;
    return T;
  }();
  return &Table;
}

/// One operation of class \p Class with operand \p V.
uint64_t runOp(PyWorld &W, const PyApi *Api, int Class, uint32_t V,
               uint64_t &Calls) {
  PyInterp *I = &W.Interp;
  uint64_t Sum = 0;
  switch (Class) {
  case 0: { // list_build
    PyObject *L = Api->PyList_New(I, 0);
    for (long K = 0; K < 4; ++K) {
      PyObject *Item = Api->PyInt_FromLong(I, static_cast<long>(V & 0xff) + K);
      Api->PyList_Append(I, L, Item);
      Api->Py_DecRef(I, Item);
    }
    Sum += static_cast<uint64_t>(Api->PyList_Size(I, L));
    Api->Py_DecRef(I, L);
    Calls += 15;
    break;
  }
  case 1: { // borrowed_read
    PyObject *X = Api->PyList_GetItem(I, W.Items, V & 7);
    Sum += static_cast<uint64_t>(Api->PyInt_AsLong(I, X));
    Sum += static_cast<uint64_t>(Api->PyList_Size(I, W.Items));
    PyObject *S = Api->PyTuple_GetItem(I, W.Names, (V >> 3) & 3);
    Sum += std::strlen(Api->PyString_AsString(I, S));
    Calls += 5;
    break;
  }
  case 2: { // convert
    PyObject *O = Api->PyInt_FromLong(I, static_cast<long>(V & 0xffff));
    Sum += static_cast<uint64_t>(Api->PyInt_AsLong(I, O));
    Api->Py_DecRef(I, O);
    PyObject *S = Api->PyString_FromString(I, Payloads[V & 7]);
    Sum += std::strlen(Api->PyString_AsString(I, S));
    Api->Py_DecRef(I, S);
    Calls += 6;
    break;
  }
  case 3: { // gil
    int H = Api->PyGILState_Ensure(I);
    Api->PyGILState_Release(I, H);
    void *Saved = Api->PyEval_SaveThread(I);
    Api->PyEval_RestoreThread(I, Saved);
    Sum += static_cast<uint64_t>(H) + 1;
    Calls += 4;
    break;
  }
  default: { // error
    Api->PyErr_SetString(I, I->excRuntimeError(), "perfbench: raised");
    Sum += Api->PyErr_Occurred(I) ? 1 : 0;
    Api->PyErr_Clear(I);
    Calls += 3;
    break;
  }
  }
  return Sum;
}

} // namespace

const char *pyClassName(int Class) {
  static const char *const Names[NumPyClasses] = {
      "list_build", "borrowed_read", "convert", "gil", "error"};
  return Class >= 0 && Class < NumPyClasses ? Names[Class] : "mix";
}

PyWorld::PyWorld(PyMode Mode) {
  if (Mode == PyMode::Interpose)
    setActivePyApi(Interp, passThroughApi());
  else if (Mode == PyMode::Checked)
    Checker = std::make_unique<pyjinn::PyChecker>(Interp);
  const PyApi *Api = activePyApi(Interp);
  Items = Api->PyList_New(&Interp, 0);
  for (long K = 0; K < 8; ++K) {
    PyObject *Item = Api->PyInt_FromLong(&Interp, K * K + 1);
    Api->PyList_Append(&Interp, Items, Item);
    Api->Py_DecRef(&Interp, Item);
  }
  Names = Api->PyTuple_New(&Interp, 4);
  for (long K = 0; K < 4; ++K)
    Api->PyTuple_SetItem(&Interp, Names, K,
                         Api->PyString_FromString(&Interp, Payloads[K]));
}

PyWorld::~PyWorld() {
  const PyApi *Api = activePyApi(Interp);
  Api->Py_DecRef(&Interp, Items);
  Api->Py_DecRef(&Interp, Names);
  Checker.reset();
  setActivePyApi(Interp, defaultPyApi());
}

PyRun runPyBatches(PyWorld &World, const std::vector<int32_t> &Seeds,
                   int Class) {
  const PyApi *Api = activePyApi(World.Interp);
  PyRun Run;
  for (int32_t Seed : Seeds) {
    SplitMix64 Rng(static_cast<uint64_t>(static_cast<uint32_t>(Seed)));
    uint64_t Sum = 0;
    for (int Op = 0; Op < OpsPerBatch; ++Op) {
      uint64_t R = Rng.next();
      int C = Class >= 0 ? Class : static_cast<int>(R % NumPyClasses);
      Sum += runOp(World, Api, C, static_cast<uint32_t>(R >> 32), Run.Calls);
    }
    Run.Ops += OpsPerBatch;
    Run.Checksum = Run.Checksum * 1099511628211ULL + Sum;
  }
  return Run;
}

WorkloadResult runPyc(const RunOptions &Opts, double Seconds) {
  WorkloadResult Result;
  enum { Production, Interpose, Checked, NumConfigs };
  const PyMode Modes[NumConfigs] = {PyMode::Production, PyMode::Interpose,
                                    PyMode::Checked};
  std::unique_ptr<PyWorld> Worlds[NumConfigs];
  for (int C = 0; C < NumConfigs; ++C)
    Worlds[C] = std::make_unique<PyWorld>(Modes[C]);

  std::vector<int32_t> Seeds(BatchesPerSlice);
  PairedSlices P;
  P.Workload = "pyc";
  P.Configs = {"production", "interpose", "checked"};
  P.Checked = Checked;
  P.Interpose = Interpose;
  // Set-up: interpreter plus checker (and the extension's kept objects)
  // for all three treatments.
  P.Setup = [&] {
    std::unique_ptr<PyWorld> Extra[NumConfigs];
    return timeIt([&] {
      Span S("pyjinn.PyChecker");
      for (int C = 0; C < NumConfigs; ++C)
        Extra[C] = std::make_unique<PyWorld>(Modes[C]);
    });
  };
  P.NextRound = [&](SplitMix64 &Rng) { drawSeeds(Rng, Seeds); };
  P.RunSlice = [&](unsigned C, size_t) {
    Span S(C == Checked ? "pyjinn.api_batch" : "pyc.api_batch");
    PyRun Run = runPyBatches(*Worlds[C], Seeds);
    return SliceOutput{Run.Calls, Run.Ops, Run.Checksum};
  };
  P.AfterRound = [&](uint64_t Round) {
    pyjinn::PyChecker &Checker = *Worlds[Checked]->Checker;
    size_t Violations = Checker.violations().size();
    Result.Check.check(Violations == 0, 0,
                       formatString("pyc: %zu violations on clean traffic",
                                    Violations));
    Checker.clearViolations();
    // A seeded Figure 11 dangle, outside the timed slices.
    if (Round % 8 == 0) {
      PyInterp I;
      pyjinn::PyChecker Dangle(I);
      scenarios::runPyDangleBug(I);
      size_t Ownership = Dangle.countFor("Reference ownership");
      Result.Check.check(Ownership == 1 && Dangle.violations().size() == 1, 1,
                         formatString("pyc: dangle_bug gave %zu ownership "
                                      "reports, %zu in all",
                                      Ownership, Dangle.violations().size()));
      Result.Counts["dangle_reports"] += Ownership;
    }
  };
  runPairedSlices(P, Opts, Seconds, Result);
  return Result;
}

} // namespace perfbench
