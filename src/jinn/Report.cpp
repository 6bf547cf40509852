//===- jinn/Report.cpp - Jinn's exception-based error reporting ----------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/Report.h"

#include "support/Format.h"

using namespace jinn;
using namespace jinn::agent;

JinnReport jinn::agent::violationReport(spec::TransitionContext &Ctx,
                                        const spec::StateMachineSpec &Machine,
                                        const std::string &Message) {
  return {Machine.Name, Ctx.siteName(),
          formatString("%s in %s.", Message.c_str(), Ctx.siteName().c_str()),
          false};
}

JinnReport jinn::agent::endOfRunReport(const spec::StateMachineSpec &Machine,
                                       const std::string &Message) {
  return {Machine.Name, "<program termination>", Message, true};
}

const std::vector<JinnReport> &JinnReporter::reports() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Reports;
}

void JinnReporter::clearReports() {
  std::lock_guard<std::mutex> Lock(Mu);
  Reports.clear();
}

size_t JinnReporter::reportCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Reports.size();
}

std::map<std::string, uint64_t> JinnReporter::reportCountsByMachine() const {
  std::map<std::string, uint64_t> Counts;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const JinnReport &Report : Reports)
    ++Counts[Report.Machine];
  return Counts;
}

void JinnReporter::violation(spec::TransitionContext &Ctx,
                             const spec::StateMachineSpec &Machine,
                             const std::string &Message) {
  jvm::JThread &Thread = Ctx.thread();
  JinnReport Report = violationReport(Ctx, Machine, Message);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Reports.push_back(Report);
  }
  Vm.diags().report(IncidentKind::Note, "jinn",
                    formatString("[%s] %s", Machine.Name.c_str(),
                                 Report.Message.c_str()));
  if (OnViolation)
    OnViolation(Report);

  // Wrap any pending exception as the cause (Figure 9c's chain), add the
  // synthetic assertFail frame, throw, and suppress the faulting call. The
  // throwable is allocated after Mu is released (DESIGN.md §7).
  jvm::ObjectId Cause = Thread.Pending;
  Thread.Pending = jvm::ObjectId();
  Thread.Stack.push_back({false, "jinn.JNIAssertionFailure.assertFail"});
  jvm::ObjectId Failure =
      Vm.makeThrowable(Thread, JinnExceptionClass, Report.Message, Cause);
  Thread.Stack.pop_back();
  Thread.Pending = Failure;
  Ctx.abortCall();
}

void JinnReporter::endOfRun(const spec::StateMachineSpec &Machine,
                            const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Reports.push_back(endOfRunReport(Machine, Message));
  }
  Vm.diags().report(IncidentKind::LeakReport, "jinn",
                    formatString("[%s] %s", Machine.Name.c_str(),
                                 Message.c_str()));
}

size_t JinnReporter::countFor(std::string_view MachineName) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const JinnReport &Report : Reports)
    if (Report.Machine == MachineName)
      ++N;
  return N;
}
