//===- pyc/PyRuntime.h - Miniature Python/C API substrate ----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature Python 2.6-era interpreter core and its C API, sufficient
/// for the paper's §7 generalization: reference-counted objects (ints,
/// strings, lists, tuples, None), a pending-exception slot, the Global
/// Interpreter Lock, and the C API functions the Figure 11 bug exercises.
///
/// Substitution note (paper §7.2): real Python/C has no JVMTI equivalent —
/// the authors replaced C macros with functions, copied interpreter-internal
/// entry points, and wrapped variadic functions to interpose. This
/// reproduction routes every extension-level call through a function table
/// (PyApi), so a checker interposes by table swap exactly as for JNI; the
/// interpreter's internal operations do not go through the table, matching
/// the authors' interpreter-only copies.
///
/// Dangling references are *observable*: deallocated objects go on a free
/// list and are recycled by later allocations, so a stale PyObject* really
/// does alias a different (or dead) object, as in CPython.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PYC_PYRUNTIME_H
#define JINN_PYC_PYRUNTIME_H

#include "support/Diagnostics.h"

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jinn::pyc {

struct PyApi;

/// Object kinds (CPython type objects reduced to an enum).
enum class PyKind : uint8_t { None, Bool, Int, Str, List, Tuple, ExcType };

const char *pyKindName(PyKind Kind);

/// A Python object. Extensions hold raw PyObject* — exactly the unsafe
/// currency of the real Python/C API.
struct PyObject {
  int64_t RefCnt = 0;
  PyKind Kind = PyKind::None;
  bool Freed = true;
  uint32_t Gen = 0; ///< bumped on every (re)allocation of this slot
  /// Dense index of this object's storage, given once when the
  /// interpreter creates it and never reassigned: the singletons take
  /// 0..NumSingletons-1, arena storage follows in creation order.
  /// Recycling keeps the number, so (Slot, Gen) names one allocation.
  uint32_t Slot = 0;

  int64_t IntVal = 0;
  std::string StrVal;
  std::vector<PyObject *> Items; ///< List/Tuple payload (owned references)
};

/// Interpreter statistics.
struct PyStats {
  uint64_t Allocated = 0;
  uint64_t Deallocated = 0;
  uint64_t SlotReuses = 0;
};

/// The interpreter instance.
class PyInterp {
public:
  /// None and the three exception types, which take the first slots.
  static constexpr uint32_t NumSingletons = 4;

  PyInterp();
  ~PyInterp();
  PyInterp(const PyInterp &) = delete;
  PyInterp &operator=(const PyInterp &) = delete;

  //===--------------------------------------------------------------------===
  // Allocation / reference counting (interpreter-internal entry points)
  //===--------------------------------------------------------------------===

  /// Allocates an object with refcount 1, reusing freed slots.
  PyObject *alloc(PyKind Kind);
  void incref(PyObject *Obj);
  /// Decrements; deallocates at zero (recursively releasing container
  /// items) and returns true when the object died.
  bool decref(PyObject *Obj);

  /// True when \p Obj is a live object of this interpreter.
  bool isLive(const PyObject *Obj) const;

  //===--------------------------------------------------------------------===
  // Singletons and exception state
  //===--------------------------------------------------------------------===

  PyObject *none() { return &NoneObj; }
  PyObject *excRuntimeError() { return &RuntimeErrorType; }
  PyObject *excTypeError() { return &TypeErrorType; }
  PyObject *excSystemError() { return &SystemErrorType; }

  /// Pending-exception slot (type + message), as in CPython's thread state.
  PyObject *PendingType = nullptr;
  std::string PendingMessage;

  //===--------------------------------------------------------------------===
  // The GIL
  //===--------------------------------------------------------------------===

  /// Nesting depth of GIL acquisition by the (single simulated) thread.
  int GilDepth = 1;

  DiagnosticSink &diags() { return Diags; }
  const PyStats &stats() const { return Stats; }

  /// Live object count (excluding singletons).
  size_t liveCount() const;

  /// Opaque backpointer for the checker (see pyjinn).
  void *CheckerHandle = nullptr;

  /// The function table extension calls go through (swapped by checkers).
  const PyApi *ActiveApi = nullptr;

private:
  std::vector<std::unique_ptr<PyObject>> Arena;
  std::vector<PyObject *> FreeList;
  PyObject NoneObj;
  PyObject RuntimeErrorType;
  PyObject TypeErrorType;
  PyObject SystemErrorType;
  DiagnosticSink Diags;
  PyStats Stats;
};

//===----------------------------------------------------------------------===
// The extension-facing C API (function table)
//===----------------------------------------------------------------------===

using Py_ssize_t = int64_t;

/// Dense ids of the API functions, in PyFunctions.def (= PyApi) order.
enum class PyFnId : uint8_t {
#define PY_FN(Name, ...) Name,
#include "pyc/PyFunctions.def"
#undef PY_FN
  Count,
};

constexpr size_t NumPyFunctions = static_cast<size_t>(PyFnId::Count);

/// The Python/C function table extensions call through. A checker
/// interposes by replacing the table (cf. JNIEnv function table).
struct PyApi {
#define PY_FN(Name, Ret, Params, ...) Ret(*Name) Params;
#include "pyc/PyFunctions.def"
#undef PY_FN
};

/// The production implementations the default table holds, one per
/// registry row (a checker's wrappers call them directly).
#define PY_FN(Name, Ret, Params, ...) Ret impl_##Name Params;
#include "pyc/PyFunctions.def"
#undef PY_FN

/// The default (unchecked, production) API table.
const PyApi *defaultPyApi();

/// Per-interpreter active table (checkers swap it).
const PyApi *activePyApi(PyInterp &Interp);
void setActivePyApi(PyInterp &Interp, const PyApi *Table);

} // namespace jinn::pyc

#endif // JINN_PYC_PYRUNTIME_H
