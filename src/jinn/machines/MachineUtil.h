//===- jinn/machines/MachineUtil.h - Shared helpers for the machines -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared helpers for the machine definitions. Everything here is
/// read-only inspection through the policy-free peek interface.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JINN_MACHINES_MACHINEUTIL_H
#define JINN_JINN_MACHINES_MACHINEUTIL_H

#include "jinn/Machines.h"
#include "support/Format.h"

namespace jinn::agent {

using spec::Direction;
using spec::FunctionSelector;
using spec::LanguageTransition;
using spec::StateTransition;
using spec::TransitionContext;

/// Peek at a handle from the context thread's perspective (snapshot-backed
/// under replay).
inline jvm::Vm::PeekResult peekRef(TransitionContext &Ctx, uint64_t Word) {
  return Ctx.peek(Word);
}

/// Canonical identity (ObjectId raw) of a live handle, or 0.
inline uint64_t identityOf(TransitionContext &Ctx, uint64_t Word) {
  jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
  if (Peek.S != jvm::Vm::PeekResult::Status::Live)
    return 0;
  return Peek.Target.raw();
}

/// Reports a violation of \p Spec at \p Ctx, with a printf-style message,
/// through Reporter::violation. Cold and out of line: a check's clean path
/// carries none of the code that builds and delivers a report, so it stays
/// a short leaf.
[[gnu::cold, gnu::noinline]] void fail(TransitionContext &Ctx,
                                       const spec::StateMachineSpec &Spec,
                                       const char *Fmt, ...)
    __attribute__((format(printf, 3, 4)));

/// Same, for a message that needs computed strings (thread names,
/// qualified member names): \p Message builds it inside the cold path.
template <typename MessageFn>
[[gnu::cold, gnu::noinline]] void failWith(TransitionContext &Ctx,
                                           const spec::StateMachineSpec &Spec,
                                           MessageFn &&Message) {
  Ctx.reporter().violation(Ctx, Spec, Message());
}

/// Builds a state transition in one expression.
inline StateTransition makeTransition(std::string From, std::string To,
                                      std::vector<LanguageTransition> At,
                                      spec::TransitionAction Action) {
  StateTransition Out;
  Out.From = std::move(From);
  Out.To = std::move(To);
  Out.At = std::move(At);
  Out.Action = std::move(Action);
  return Out;
}

/// Same, for a transition of a counter-carrying (pushdown) machine: \p Op
/// declares how the transition moves the machine's counter so the static
/// passes can interpret it; the action still implements the dynamic
/// semantics against the machine's own depth encoding.
inline StateTransition makeTransition(std::string From, std::string To,
                                      std::vector<LanguageTransition> At,
                                      spec::CounterOp Op,
                                      spec::TransitionAction Action) {
  StateTransition Out = makeTransition(std::move(From), std::move(To),
                                       std::move(At), std::move(Action));
  Out.Counter = Op;
  return Out;
}

} // namespace jinn::agent

#endif // JINN_JINN_MACHINES_MACHINEUTIL_H
