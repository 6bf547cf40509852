//===- perfbench/Dense.h - The benchmark's dense JNI native class --------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A native class owned by the benchmark: each invocation of its static
/// native `batch(II)I` runs 64 seeded, correct JNI operations with no
/// application work in between. The operations come from nine classes
/// that together drive all fourteen Jinn machines. Used by the jni_dense
/// workload and by the traced run's machine x class cost matrix.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_PERFBENCH_DENSE_H
#define JINN_PERFBENCH_DENSE_H

#include "scenarios/Scenarios.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// The nine JNI operation classes of a dense batch.
enum class DenseClass : int {
  StringUse,
  FieldAccess,
  ArrayRegion,
  Callback,
  GlobalRef,
  Monitor,
  PinCritical,
  LocalFrame,
  Exception,
  Count,
};

constexpr int NumDenseClasses = static_cast<int>(DenseClass::Count);
constexpr int DenseOpsPerBatch = 64;

/// Metric-name spelling of \p Class ("string_use", ...).
const char *denseClassName(int Class);

/// Totals of a run of batches.
struct DenseRun {
  uint64_t Ops = 0;
  uint64_t JniCalls = 0;
  uint64_t Checksum = 0;
};

/// Defines the class and its natives in \p World, and creates the shared
/// object and array the operations use (as global references).
void prepareDenseWorld(jinn::scenarios::ScenarioWorld &World);

/// Deletes the global references prepareDenseWorld created, so VM death
/// reports no leak.
void releaseDenseWorld(jinn::scenarios::ScenarioWorld &World);

/// Invokes `batch` once per seed on the main thread. \p Class < 0 draws
/// each operation's class from the seed; otherwise every operation is of
/// that class.
DenseRun runDenseBatches(jinn::scenarios::ScenarioWorld &World,
                         const std::vector<int32_t> &Seeds, int Class = -1);

/// Invokes the empty static native \p Count times (the bare transition).
void runEmptyNatives(jinn::scenarios::ScenarioWorld &World, uint64_t Count);

} // namespace perfbench

#endif // JINN_PERFBENCH_DENSE_H
