//===- perfbench/Pyc.h - Seeded Python/C extension traffic ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded Python/C extension mix sent through pyc::activePyApi: batches
/// of 64 correct calls drawn from five classes. Used by the pyc workload
/// and by the traced run's per-class attribution.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PERFBENCH_PYC_H
#define JINN_PERFBENCH_PYC_H

#include "pyc/PyRuntime.h"
#include "pyjinn/PyChecker.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

constexpr int NumPyClasses = 5;

/// Metric-name spelling of class \p Class ("list_build", ...).
const char *pyClassName(int Class);

/// How an interpreter's extension calls are treated.
enum class PyMode { Production, Interpose, Checked };

/// One interpreter with its table treatment and the objects the extension
/// keeps across calls.
struct PyWorld {
  explicit PyWorld(PyMode Mode);
  ~PyWorld();
  PyWorld(const PyWorld &) = delete;
  PyWorld &operator=(const PyWorld &) = delete;

  jinn::pyc::PyInterp Interp;
  std::unique_ptr<jinn::pyjinn::PyChecker> Checker;
  jinn::pyc::PyObject *Items = nullptr; ///< owned list of 8 ints
  jinn::pyc::PyObject *Names = nullptr; ///< owned tuple of 4 strings
};

struct PyRun {
  uint64_t Ops = 0;
  uint64_t Calls = 0;
  uint64_t Checksum = 0;
};

/// Runs one 64-call-class batch per seed. \p Class < 0 draws each
/// operation's class from the seed.
PyRun runPyBatches(PyWorld &World, const std::vector<int32_t> &Seeds,
                   int Class = -1);

} // namespace perfbench

#endif // JINN_PERFBENCH_PYC_H
