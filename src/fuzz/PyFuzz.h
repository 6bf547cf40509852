//===- fuzz/PyFuzz.h - Python/C-domain fuzzing (§7 generalization) -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fourth oracle domain: the same generate-execute-judge loop applied
/// to the Python/C checker of §7. Sequences of Python/C API idioms run
/// against a fresh PyInterp with PyChecker interposed; clean paths must
/// leave zero violations and zero leaks, bug paths must provoke exactly
/// the declared violation (machine + message fragment). Coverage is
/// accounted over buildPythonModels() — the four machines "Reference
/// ownership", "GIL state", "Exception state", "Type constraints" — with
/// the same epsilon exemptions as the JNI domain.
///
/// Python ops are atomic (GIL excursions and pending-exception windows
/// open and close inside one op), so no cross-op gating is needed and the
/// same Sequence/minimizer machinery applies unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_FUZZ_PYFUZZ_H
#define JINN_FUZZ_PYFUZZ_H

#include "fuzz/Coverage.h"
#include "fuzz/Generator.h"

#include <string>
#include <vector>

namespace jinn::fuzz {

/// Names of the Python-domain ops, clean first then bug ops.
const std::vector<std::string> &pyOpNames();
/// True when \p Name is one of the Python bug ops.
bool isPyBugOp(const std::string &Name);
/// All Python bug op names (campaign drivers iterate these).
std::vector<std::string> pyBugOpNames();

struct PyExecResult {
  bool Pass = false;
  std::vector<std::string> Failures;
  std::vector<std::string> ExecutedOps;
};

/// Executes one py-domain sequence under a fresh interpreter + checker and
/// judges it against the ops' declared expectations.
PyExecResult runPySequence(const Sequence &Seq);

/// Credits executed ops' edges on a Coverage over buildPythonModels().
void coverPySequence(const PyExecResult &Result, Coverage &Cov);

/// Deterministic generators, mirroring Generator's JNI flavor.
Sequence cleanPySequence(uint64_t Seed, uint64_t Index);
Sequence bugPySequence(uint64_t Seed, const std::string &BugOpName,
                       uint64_t Index);

} // namespace jinn::fuzz

#endif // JINN_FUZZ_PYFUZZ_H
