//===- mutate/Mutation.h - The mutation-campaign switchboard ---*- C++ -*-===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutant registry and activation switch behind jinn-mutate (DESIGN.md
/// §16). Every mutant in Mutants.def has a guarded site compiled into the
/// substrate or the machine specs; exactly one mutant (or none) is active
/// per process, selected by the JINN_MUTANT environment variable (id or
/// name), by setActiveMutant(), or — for build-pinned campaigns — by the
/// JINN_MUTANT cache variable, which defines JINN_MUTANT_PINNED and bakes
/// the choice in at compile time so the mutated branch is the only branch.
///
/// This library is a leaf below src/jvm: the check at a guarded site is a
/// single relaxed atomic load against a process-wide id (or a constant
/// compare under a pinned build), cheap enough to leave in production
/// binaries where it constant-folds to the untaken branch.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_MUTATE_MUTATION_H
#define JINN_MUTATE_MUTATION_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace jinn::mutate {

/// Stable mutant identifiers; numeric values are the JINN_MUTANT ids and
/// never change meaning (see Mutants.def).
enum class M : int {
  None = 0,
#define JINN_MUTANT_DEF(Id, EnumName, Name, OpClass, Target, Site, Expect,     \
                        Original, Mutated, Rationale)                          \
  EnumName = Id,
#include "mutate/Mutants.def"
};

/// The survivor policy each mutant is annotated with up front: a mutant
/// that must die, a documented equivalent mutant (no oracle *can* see the
/// difference), or a filed blind spot (an oracle *should* see it and the
/// gap is tracked).
enum class Expect : uint8_t { Killed, SurvivesEquivalent, SurvivesBlindSpot };

const char *expectName(Expect E);

/// One registry row, materialized from Mutants.def.
struct MutantInfo {
  int Id = 0;
  M Which = M::None;
  const char *Name = "";
  const char *OpClass = "";
  const char *Target = "";   ///< jvm | jni | pyc | spec | pyspec
  const char *Site = "";
  Expect Expected = Expect::Killed;
  const char *Original = "";
  const char *Mutated = "";
  const char *Rationale = "";
};

/// All registered mutants in id order.
const std::vector<MutantInfo> &allMutants();

/// Lookup by id; nullptr when unknown.
const MutantInfo *findMutant(int Id);
/// Lookup by name or decimal id string; nullptr when unknown.
const MutantInfo *findMutant(const std::string &NameOrId);

namespace detail {
/// The process-wide active mutant id (0 = none). Mutation.cpp initializes
/// it from the JINN_MUTANT environment variable during static
/// initialization, so a guarded site reads it with one plain load and no
/// first-use guard.
extern std::atomic<int> ActiveId;
} // namespace detail

/// Id of the active mutant (0 when running unmutated). Under a pinned
/// build (-DJINN_MUTANT=<id> at configure time) this is a compile-time
/// constant and every guarded site folds to its mutated branch.
inline int activeMutant() {
#ifdef JINN_MUTANT_PINNED
  return JINN_MUTANT_PINNED;
#else
  return detail::ActiveId.load(std::memory_order_relaxed);
#endif
}

/// Selects the active mutant for this process (0 deactivates). Overrides
/// the environment; ignored by guarded sites in a pinned build. The
/// harness toggles this around its baseline-vs-mutant runs, and tests use
/// it to drive a specific guarded site without re-execing.
void setActiveMutant(int Id);

/// The one call every guarded mutation site makes.
inline bool active(M Which) {
  return activeMutant() == static_cast<int>(Which);
}

} // namespace jinn::mutate

#endif // JINN_MUTATE_MUTATION_H
