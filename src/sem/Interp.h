//===-- sem/Interp.h - Concurrent small-step interpreter --------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable small-step operational semantics of the concurrent language
/// (Fig. 9 / App. A.1), extended with procedures, share/unshare, and atomic
/// blocks over resource values. Scheduling nondeterminism is resolved by a
/// pluggable Scheduler; atomic blocks execute in a single scheduler step
/// (rule ATOMIC: the body runs to completion while holding the resource).
///
/// Each shared resource additionally records the ordered log of performed
/// actions, which tests use to validate the commutativity story of
/// Lemma 4.2 (replaying permuted logs must preserve the abstraction).
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SEM_INTERP_H
#define COMMCSL_SEM_INTERP_H

#include "lang/ExprEval.h"
#include "lang/Program.h"
#include "rspec/RSpec.h"
#include "sem/Scheduler.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace commcsl {

/// One recorded action application on a shared resource.
struct ActionLogEntry {
  std::string Action;
  bool Unique = false;
  ValueRef Arg;
  ValueRef Ret; ///< unit if the action has no returns clause
};

/// Runtime state of a shared resource.
struct ResourceState {
  const ResourceSpecDecl *Spec = nullptr;
  ValueRef InitialValue;
  ValueRef Value;
  bool Shared = false; ///< false after unshare
  std::vector<ActionLogEntry> Log;
};

/// Result of running a procedure to completion.
struct RunResult {
  enum class Status {
    Ok,
    Abort,     ///< runtime fault (heap fault, failed ghost assert, ...)
    Deadlock,  ///< all threads blocked on atomic-when
    StepLimit, ///< fuel exhausted
  };

  Status St = Status::Ok;
  std::string AbortReason;
  std::vector<ValueRef> Returns; ///< values of the return variables
  std::vector<ValueRef> Outputs; ///< values emitted by `output` statements
  /// Values released by `declassify` expressions with their sites, in
  /// evaluation order. Two runs whose release logs differ are incomparable
  /// for non-interference purposes: delimited release (the declassify
  /// policy) only relates runs that agree on what was released where (see
  /// sameReleases in hyper/NonInterference.h).
  std::vector<Release> Declassified;
  std::vector<ResourceState> Resources; ///< final resource table (incl. logs)
  uint64_t Steps = 0;

  bool ok() const { return St == Status::Ok; }
};

/// Configuration of a run.
struct RunConfig {
  uint64_t MaxSteps = 2'000'000;
  /// When true, ghost `assert` boolean atoms whose variables are all bound
  /// are checked at runtime and abort the run on failure.
  bool CheckGhostAsserts = true;
  /// When true, every unshare replays the recorded action log from the
  /// initial value and aborts if it does not reproduce the current value —
  /// an executable sanity check of the Sec. 3.5 consistency bookkeeping.
  bool CheckConsistencyOnUnshare = false;
  /// Optional memoization registry for resource-spec evaluation (`alpha`,
  /// `f_a`). When set, every `perform`/`share`/enabledness check reuses the
  /// per-spec cache instead of re-evaluating through the expression
  /// interpreter. The NI harness sets one per sweep and shares it across
  /// the sweep's runs (it is thread-safe); it must not outlive the Program.
  std::shared_ptr<SpecCacheRegistry> SpecCaches;
};

/// Interprets programs. Thread-compatible: each run is independent.
class Interpreter {
public:
  Interpreter(const Program &Prog, RunConfig Config = {});

  /// Runs procedure \p ProcName with the given argument values under
  /// \p Sched. Arguments must match the procedure's parameter count.
  RunResult run(const std::string &ProcName,
                const std::vector<ValueRef> &Args, Scheduler &Sched) const;

private:
  /// The stepping loop, templated on the concrete scheduler so the
  /// per-step pick() devirtualizes and inlines; run() dispatches the
  /// known scheduler types here. Defined (and instantiated) in Interp.cpp.
  template <class SchedT>
  RunResult runWith(const std::string &ProcName,
                    const std::vector<ValueRef> &Args, SchedT &Sched) const;

  const Program &Prog;
  RunConfig Config;
  /// Whether any atomic block in the program carries a `when` action.
  /// Without one, a thread's runnability changes only on spawn/completion
  /// events, so the scheduler's runnable set can be maintained
  /// incrementally instead of being rescanned every step.
  bool HasWhenAtomic;
};

/// Replays an action log against a spec from an initial value; returns the
/// resulting resource value. Used by consistency tests: any permutation of
/// the log that preserves each unique action's relative order must yield
/// the same abstraction (Lemma 4.2).
ValueRef replayLog(const RSpecRuntime &Runtime, const ValueRef &Initial,
                   const std::vector<ActionLogEntry> &Log);

} // namespace commcsl

#endif // COMMCSL_SEM_INTERP_H
