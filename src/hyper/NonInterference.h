//===-- hyper/NonInterference.h - Empirical 2-safety testing ----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Empirical non-interference testing (Def. 2.1): runs a procedure many
/// times with fixed low inputs while varying the high inputs and the
/// scheduler, and checks that every terminating run produces the same low
/// outputs. This dynamically validates the soundness theorem (Sec. 4) for
/// verified programs and produces concrete leak witnesses for rejected
/// ones (e.g. the Fig. 1 internal-timing channel).
///
/// Low inputs/outputs are read off the procedure's contract: a parameter
/// (return variable) is low iff the requires (ensures) clause contains a
/// bare `low(x)` atom for it. Everything else is varied (compared) as high.
///
/// Conditional classifications (`level(x) = if g then low else high`, or
/// equivalently `g ==> low(x)`) induce the relation of the product
/// translation: the guard must agree across the two runs, and when it
/// holds the classified variable must agree too. On the requires side the
/// harness *generates* within that relation (guard inputs are pinned to
/// the reference assignment, the classified parameter is pinned when the
/// guard holds); on the ensures side it *checks* it (guard disagreement is
/// itself a leak of the level). Runs whose `declassify` release logs
/// differ are incomparable — delimited release only relates executions
/// that agree on what was released — and are skipped, not compared.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_HYPER_NONINTERFERENCE_H
#define COMMCSL_HYPER_NONINTERFERENCE_H

#include "lang/Program.h"
#include "sem/Interp.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace commcsl {

/// Whether two runs released the same information: for every `declassify`
/// site, the same multiset of values. Order across sites is dropped, since
/// under `par` it is schedule-dependent; which site released which value is
/// kept, since two sites swapping their values is a different release.
/// The delimited-release rule of both the NI harness and the fuzz oracle.
bool sameReleases(std::vector<Release> A, std::vector<Release> B);

/// Budgets for the harness.
struct NIConfig {
  unsigned Trials = 3;          ///< distinct low-input assignments
  unsigned HighSamples = 4;     ///< high-input assignments per trial
  unsigned RandomSchedules = 4; ///< random-scheduler seeds per assignment
  unsigned BurstLen = 8;        ///< burst scheduler slice length
  uint64_t Seed = 0xD1CE;
  uint64_t MaxSteps = 500'000;
  Type::ScopeParams InputScope{0, 6, 4}; ///< input generation domain
  /// Worker threads for distributing trials. 0 = hardware concurrency;
  /// 1 = sequential. Every trial derives its own RNG stream as
  /// splitmix64(Seed, TrialIndex), so the report (counts, violation) is
  /// identical at every job count.
  unsigned Jobs = 0;
  /// Optional custom trial generator: returns a batch of low-equivalent
  /// input assignments (the harness compares low outputs across the whole
  /// batch). Use when the procedure's precondition relates inputs in ways
  /// the default per-type sampler cannot guarantee (e.g. equal lengths).
  /// May be invoked concurrently from pool workers (with per-trial RNGs),
  /// so it must not mutate shared state.
  using TrialGenerator =
      std::function<std::vector<std::vector<ValueRef>>(std::mt19937_64 &)>;
  TrialGenerator TrialGen;
};

/// A concrete witness of an information leak (or a runtime fault).
struct NIViolation {
  std::string Kind; ///< "low-output mismatch", "abort", "deadlock",
                    ///< "step-limit"
  std::string Detail;
  std::vector<ValueRef> InputsA, InputsB;
  std::string SchedulerA, SchedulerB;
  std::vector<ValueRef> LowOutputsA, LowOutputsB;

  std::string describe() const;
};

/// Outcome of a harness run. Counts reproduce the sequential
/// stop-at-first-violation semantics: trials after the first violating one
/// contribute nothing, regardless of how many ran concurrently.
struct NIReport {
  uint64_t Runs = 0;
  uint64_t PairsCompared = 0;
  std::optional<NIViolation> Violation;
  /// Wall-clock duration of the sweep.
  double WallSeconds = 0;
  /// Aggregate worker time (>= WallSeconds when parallel); the ratio
  /// CpuSeconds / WallSeconds approximates the realized speedup.
  double CpuSeconds = 0;

  bool secure() const { return !Violation.has_value(); }
};

/// Runs the empirical check for one procedure of a (type-checked) program.
class NonInterferenceHarness {
public:
  NonInterferenceHarness(const Program &Prog, std::string ProcName,
                         NIConfig Config = {});

  /// Whether the named procedure exists; `run` must not be called
  /// otherwise.
  bool valid() const { return Proc != nullptr; }

  /// Executes the sweep. Stops at the first violation.
  NIReport run();

  /// The last sweep's alpha/f_a memo (null before the first `run()`).
  SpecCacheRegistry *specCaches() const { return SpecCaches.get(); }

private:
  /// Runs every scheduler over each assignment of the batch; all low
  /// outputs must agree. Returns false when a violation was recorded.
  bool runTrial(const std::vector<std::vector<ValueRef>> &Assignments,
                std::mt19937_64 &Rng, NIReport &Report);

public:

  /// Indices of parameters / returns that the contract marks low.
  const std::vector<size_t> &lowParams() const { return LowParams; }
  const std::vector<size_t> &lowReturns() const { return LowReturns; }

  /// One conditional classification: parameter/return \p Index is low
  /// exactly when \p Guard evaluates to true in-state.
  struct LevelSlot {
    size_t Index;
    ExprRef Guard;
  };
  const std::vector<LevelSlot> &levelParams() const { return LevelParams; }
  const std::vector<LevelSlot> &levelReturns() const { return LevelReturns; }

private:
  const Program &Prog;
  const ProcDecl *Proc;
  NIConfig Config;
  std::vector<size_t> LowParams;
  std::vector<size_t> LowReturns;
  std::vector<LevelSlot> LevelParams;
  std::vector<LevelSlot> LevelReturns;
  /// The sweep's alpha/f_a memo, shared across every trial of one `run()`
  /// call and replaced by a fresh one on the next.
  std::shared_ptr<SpecCacheRegistry> SpecCaches;
};

} // namespace commcsl

#endif // COMMCSL_HYPER_NONINTERFERENCE_H
