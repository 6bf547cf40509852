//===- mutate/Mutation.cpp - Mutant registry + activation ----------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mutate/Mutation.h"

#include <cstdio>
#include <cstdlib>

using namespace jinn::mutate;

const char *jinn::mutate::expectName(Expect E) {
  switch (E) {
  case Expect::Killed:
    return "killed";
  case Expect::SurvivesEquivalent:
    return "survives-equivalent";
  case Expect::SurvivesBlindSpot:
    return "survives-blind-spot";
  }
  return "?";
}

const std::vector<MutantInfo> &jinn::mutate::allMutants() {
  static const std::vector<MutantInfo> Mutants = {
#define JINN_MUTANT_DEF(Id, EnumName, Name, OpClass, Target, Site, Expect_,    \
                        Original, Mutated, Rationale)                          \
  MutantInfo{Id,       M::EnumName, Name,    OpClass, Target,                  \
             Site,     Expect::Expect_, Original, Mutated, Rationale},
#include "mutate/Mutants.def"
  };
  return Mutants;
}

const MutantInfo *jinn::mutate::findMutant(int Id) {
  for (const MutantInfo &Info : allMutants())
    if (Info.Id == Id)
      return &Info;
  return nullptr;
}

const MutantInfo *jinn::mutate::findMutant(const std::string &NameOrId) {
  for (const MutantInfo &Info : allMutants())
    if (NameOrId == Info.Name)
      return &Info;
  char *End = nullptr;
  long Id = std::strtol(NameOrId.c_str(), &End, 10);
  if (End && *End == '\0' && !NameOrId.empty())
    return findMutant(static_cast<int>(Id));
  return nullptr;
}

namespace {

/// Parses JINN_MUTANT once, during static initialization. An unknown selector is a hard
/// configuration error: silently running unmutated would record a
/// spurious "survived" verdict.
int initFromEnv() {
  const char *Env = std::getenv("JINN_MUTANT");
  if (!Env || !*Env)
    return 0;
  if (const MutantInfo *Info = jinn::mutate::findMutant(std::string(Env)))
    return Info->Id;
  std::fprintf(stderr, "jinn-mutate: unknown JINN_MUTANT \"%s\"\n", Env);
  std::abort();
}

} // namespace

std::atomic<int> jinn::mutate::detail::ActiveId{initFromEnv()};

void jinn::mutate::setActiveMutant(int Id) {
  detail::ActiveId.store(Id, std::memory_order_relaxed);
}
