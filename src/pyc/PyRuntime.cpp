//===- pyc/PyRuntime.cpp - Miniature Python/C API substrate --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pyc/PyRuntime.h"

#include "mutate/Mutation.h"

#include "support/Compiler.h"
#include "support/Format.h"

#include <cassert>

using namespace jinn;
using namespace jinn::pyc;

const char *jinn::pyc::pyKindName(PyKind Kind) {
  switch (Kind) {
  case PyKind::None:
    return "NoneType";
  case PyKind::Bool:
    return "bool";
  case PyKind::Int:
    return "int";
  case PyKind::Str:
    return "str";
  case PyKind::List:
    return "list";
  case PyKind::Tuple:
    return "tuple";
  case PyKind::ExcType:
    return "type";
  }
  JINN_UNREACHABLE("invalid PyKind");
}

PyInterp::PyInterp() {
  uint32_t NextSlot = 0;
  auto InitSingleton = [&NextSlot](PyObject &Obj, PyKind Kind,
                                   const char *Name) {
    Obj.Slot = NextSlot++;
    Obj.RefCnt = 1;
    Obj.Kind = Kind;
    Obj.Freed = false;
    Obj.Gen = 1;
    Obj.StrVal = Name;
  };
  InitSingleton(NoneObj, PyKind::None, "None");
  InitSingleton(RuntimeErrorType, PyKind::ExcType, "RuntimeError");
  InitSingleton(TypeErrorType, PyKind::ExcType, "TypeError");
  InitSingleton(SystemErrorType, PyKind::ExcType, "SystemError");
  assert(NextSlot == NumSingletons);
  ActiveApi = defaultPyApi();
}

PyInterp::~PyInterp() = default;

PyObject *PyInterp::alloc(PyKind Kind) {
  PyObject *Obj;
  if (!FreeList.empty()) {
    Obj = FreeList.back();
    FreeList.pop_back();
    ++Stats.SlotReuses;
  } else {
    Arena.push_back(std::make_unique<PyObject>());
    Obj = Arena.back().get();
    Obj->Slot = static_cast<uint32_t>(NumSingletons + Arena.size() - 1);
  }
  Obj->RefCnt = 1;
  Obj->Kind = Kind;
  Obj->Freed = false;
  Obj->Gen += 1;
  Obj->IntVal = 0;
  Obj->StrVal.clear();
  Obj->Items.clear();
  ++Stats.Allocated;
  return Obj;
}

void PyInterp::incref(PyObject *Obj) {
  if (!Obj)
    return;
  if (Obj->Freed) {
    Diags.report(IncidentKind::UndefinedState, "pyc",
                 "Py_INCREF on a deallocated object");
    return;
  }
  Obj->RefCnt += 1;
}

bool PyInterp::decref(PyObject *Obj) {
  if (!Obj)
    return false;
  if (Obj->Freed) {
    if (mutate::active(mutate::M::PycDecrefFreedUnchecked))
      return false; // mutant: the double free goes unnoticed
    Diags.report(IncidentKind::SimulatedCrash, "pyc",
                 "Py_DECREF on a deallocated object (double free)");
    return false;
  }
  Obj->RefCnt -= 1;
  if (Obj->RefCnt > 0)
    return false;
  if (Obj == &NoneObj || Obj->Kind == PyKind::ExcType) {
    Diags.report(IncidentKind::SimulatedCrash, "pyc",
                 "refcount of an immortal object dropped to zero");
    Obj->RefCnt = 1;
    return false;
  }
  // Deallocate: container items lose one reference each; the slot becomes
  // recyclable (real memory reuse is what makes dangling pointers bite).
  std::vector<PyObject *> Children = std::move(Obj->Items);
  Obj->Items.clear();
  Obj->Freed = true;
  Obj->StrVal = "<freed>";
  FreeList.push_back(Obj);
  ++Stats.Deallocated;
  for (PyObject *Child : Children)
    decref(Child);
  return true;
}

bool PyInterp::isLive(const PyObject *Obj) const {
  return Obj && !Obj->Freed;
}

size_t PyInterp::liveCount() const {
  size_t N = 0;
  for (const auto &Obj : Arena)
    if (!Obj->Freed)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===
// Default API implementation
//===----------------------------------------------------------------------===

namespace {

void raiseSystemError(PyInterp *I, const std::string &Message) {
  I->PendingType = I->excSystemError();
  I->PendingMessage = Message;
  I->diags().report(IncidentKind::UndefinedState, "pyc", Message);
}

/// Production behavior for using a freed object: CPython reads reused
/// memory — undefined state, sometimes a crash.
bool checkLiveProduction(PyInterp *I, PyObject *Obj, const char *Fn) {
  if (!Obj) {
    I->diags().report(IncidentKind::SimulatedCrash, "pyc",
                      formatString("%s called with NULL", Fn));
    return false;
  }
  if (Obj->Freed) {
    I->diags().report(
        IncidentKind::UndefinedState, "pyc",
        formatString("%s read a deallocated object (reused slot)", Fn));
    // Execution continues with garbage, as in a real interpreter.
  }
  return true;
}

} // namespace

namespace jinn::pyc {

void impl_Py_IncRef(PyInterp *I, PyObject *Obj) { I->incref(Obj); }
void impl_Py_DecRef(PyInterp *I, PyObject *Obj) { I->decref(Obj); }

PyObject *impl_PyInt_FromLong(PyInterp *I, long Value) {
  PyObject *Obj = I->alloc(PyKind::Int);
  Obj->IntVal = Value;
  return Obj;
}

long impl_PyInt_AsLong(PyInterp *I, PyObject *Obj) {
  if (!checkLiveProduction(I, Obj, "PyInt_AsLong"))
    return -1;
  if (Obj->Kind != PyKind::Int) {
    raiseSystemError(I, "PyInt_AsLong on a non-int");
    return -1;
  }
  return static_cast<long>(Obj->IntVal);
}

PyObject *impl_PyString_FromString(PyInterp *I, const char *Value) {
  if (!Value) {
    raiseSystemError(I, "PyString_FromString(NULL)");
    return nullptr;
  }
  PyObject *Obj = I->alloc(PyKind::Str);
  Obj->StrVal = Value;
  return Obj;
}

const char *impl_PyString_AsString(PyInterp *I, PyObject *Obj) {
  if (!checkLiveProduction(I, Obj, "PyString_AsString"))
    return nullptr;
  if (Obj->Freed)
    return Obj->StrVal.c_str(); // "<freed>" — garbage, but readable
  if (Obj->Kind != PyKind::Str) {
    raiseSystemError(I, "PyString_AsString on a non-string");
    return nullptr;
  }
  return Obj->StrVal.c_str();
}

PyObject *impl_PyList_New(PyInterp *I, Py_ssize_t Size) {
  PyObject *Obj = I->alloc(PyKind::List);
  Obj->Items.assign(Size > 0 ? static_cast<size_t>(Size) : 0, nullptr);
  return Obj;
}

Py_ssize_t impl_PyList_Size(PyInterp *I, PyObject *List) {
  if (!checkLiveProduction(I, List, "PyList_Size") ||
      List->Kind != PyKind::List)
    return -1;
  return static_cast<Py_ssize_t>(List->Items.size());
}

PyObject *impl_PyList_GetItem(PyInterp *I, PyObject *List, Py_ssize_t Index) {
  if (!checkLiveProduction(I, List, "PyList_GetItem"))
    return nullptr;
  if (List->Kind != PyKind::List || Index < 0 ||
      static_cast<size_t>(Index) >= List->Items.size()) {
    raiseSystemError(I, "PyList_GetItem index out of range");
    return nullptr;
  }
  return List->Items[Index]; // borrowed reference
}

int impl_PyList_SetItem(PyInterp *I, PyObject *List, Py_ssize_t Index,
                        PyObject *Item) {
  if (!checkLiveProduction(I, List, "PyList_SetItem"))
    return -1;
  if (List->Kind != PyKind::List || Index < 0 ||
      static_cast<size_t>(Index) >= List->Items.size()) {
    raiseSystemError(I, "PyList_SetItem index out of range");
    if (Item)
      I->decref(Item); // SetItem steals even on failure, per CPython
    return -1;
  }
  if (PyObject *Old = List->Items[Index])
    I->decref(Old);
  List->Items[Index] = Item; // steals the reference
  return 0;
}

int impl_PyList_Append(PyInterp *I, PyObject *List, PyObject *Item) {
  if (!checkLiveProduction(I, List, "PyList_Append") || !Item)
    return -1;
  if (List->Kind != PyKind::List) {
    raiseSystemError(I, "PyList_Append on a non-list");
    return -1;
  }
  I->incref(Item); // Append borrows the argument and takes its own ref
  List->Items.push_back(Item);
  return 0;
}

PyObject *impl_PyTuple_New(PyInterp *I, Py_ssize_t Size) {
  PyObject *Obj = I->alloc(PyKind::Tuple);
  Obj->Items.assign(Size > 0 ? static_cast<size_t>(Size) : 0, nullptr);
  return Obj;
}

PyObject *impl_PyTuple_GetItem(PyInterp *I, PyObject *Tuple, Py_ssize_t Index) {
  if (!checkLiveProduction(I, Tuple, "PyTuple_GetItem"))
    return nullptr;
  if (Tuple->Kind != PyKind::Tuple || Index < 0 ||
      static_cast<size_t>(Index) >= Tuple->Items.size()) {
    raiseSystemError(I, "PyTuple_GetItem index out of range");
    return nullptr;
  }
  return Tuple->Items[Index]; // borrowed
}

int impl_PyTuple_SetItem(PyInterp *I, PyObject *Tuple, Py_ssize_t Index,
                         PyObject *Item) {
  if (!checkLiveProduction(I, Tuple, "PyTuple_SetItem"))
    return -1;
  if (Tuple->Kind != PyKind::Tuple || Index < 0 ||
      static_cast<size_t>(Index) >= Tuple->Items.size()) {
    raiseSystemError(I, "PyTuple_SetItem index out of range");
    if (Item)
      I->decref(Item);
    return -1;
  }
  if (PyObject *Old = Tuple->Items[Index])
    I->decref(Old);
  Tuple->Items[Index] = Item; // steals
  return 0;
}

PyObject *impl_Py_VaBuildValue(PyInterp *I, const char *Fmt, va_list Args) {
  if (!Fmt)
    return nullptr;
  // Subset parser: i, s, [..], (..). Containers may nest.
  struct Parser {
    PyInterp *I;
    const char *P;
    va_list Args; // va_copy'd; consumed across recursive calls
    PyObject *one() {
      switch (*P) {
      case 'i': {
        ++P;
        return impl_PyInt_FromLong(I, va_arg(Args, long));
      }
      case 's': {
        ++P;
        return impl_PyString_FromString(I, va_arg(Args, const char *));
      }
      case '[':
      case '(': {
        char Close = *P == '[' ? ']' : ')';
        ++P;
        PyObject *Out = I->alloc(Close == ']' ? PyKind::List : PyKind::Tuple);
        while (*P && *P != Close) {
          PyObject *Item = one();
          if (!Item) {
            I->decref(Out);
            return nullptr;
          }
          Out->Items.push_back(Item); // container owns the new reference
        }
        if (*P == Close)
          ++P;
        return Out;
      }
      default:
        raiseSystemError(I, formatString("Py_BuildValue: bad format "
                                         "character '%c'",
                                         *P));
        return nullptr;
      }
    }
  };
  Parser Parse;
  Parse.I = I;
  Parse.P = Fmt;
  va_copy(Parse.Args, Args);
  PyObject *Out = Parse.one();
  va_end(Parse.Args);
  return Out;
}

PyObject *impl_Py_BuildValue(PyInterp *I, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  PyObject *Out = I->ActiveApi->Py_VaBuildValue(I, Fmt, Args);
  va_end(Args);
  return Out;
}

void impl_PyErr_SetString(PyInterp *I, PyObject *Type, const char *Message) {
  I->PendingType = Type;
  I->PendingMessage = Message ? Message : "";
}

PyObject *impl_PyErr_Occurred(PyInterp *I) { return I->PendingType; }

void impl_PyErr_Clear(PyInterp *I) {
  I->PendingType = nullptr;
  I->PendingMessage.clear();
}

int impl_PyGILState_Ensure(PyInterp *I) {
  I->GilDepth += 1;
  return I->GilDepth;
}

void impl_PyGILState_Release(PyInterp *I, int Handle) {
  (void)Handle;
  if (I->GilDepth <= 0) {
    I->diags().report(IncidentKind::SimulatedCrash, "pyc",
                      "PyGILState_Release without the GIL");
    return;
  }
  I->GilDepth -= 1;
}

void *impl_PyEval_SaveThread(PyInterp *I) {
  if (I->GilDepth <= 0) {
    I->diags().report(IncidentKind::SimulatedCrash, "pyc",
                      "PyEval_SaveThread without the GIL");
    return nullptr;
  }
  I->GilDepth -= 1;
  return I;
}

void impl_PyEval_RestoreThread(PyInterp *I, void *State) {
  (void)State;
  I->GilDepth += 1;
}

const PyApi DefaultApi = {
#define PY_FN(Name, ...) impl_##Name,
#include "pyc/PyFunctions.def"
#undef PY_FN
};

} // namespace jinn::pyc

const PyApi *jinn::pyc::defaultPyApi() { return &DefaultApi; }

const PyApi *jinn::pyc::activePyApi(PyInterp &Interp) {
  return Interp.ActiveApi;
}

void jinn::pyc::setActivePyApi(PyInterp &Interp, const PyApi *Table) {
  Interp.ActiveApi = Table ? Table : &DefaultApi;
}
