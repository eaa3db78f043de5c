//===-- rspec/Validity.h - Resource-spec validity (Def. 3.1) ----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks validity of a resource specification per Def. 3.1 of the paper:
///
///   (A) every action's relational precondition preserves low-ness of the
///       abstract view:  alpha(v) = alpha(v') and pre_a(arg, arg')  imply
///       alpha(f_a(v, arg)) = alpha(f_a(v', arg'));
///   (B) all relevant action pairs commute modulo alpha: for the shared
///       actions paired with everything (including themselves) and unique
///       actions paired with everything except themselves,
///       alpha(v) = alpha(v') implies
///       alpha(f_b(f_a(v, arg), arg')) = alpha(f_a(f_b(v', arg'), arg)).
///
/// The paper discharges these quantified properties with Z3 via Viper; this
/// implementation replaces that with three checking tiers over the pure
/// value domain: the differencing abstract interpreter (src/absint, DESIGN
/// §13), which proves obligations for *unbounded* state/argument domains;
/// bounded-exhaustive enumeration within the spec's declared scope
/// (complete for refutation in scope); and randomized sampling beyond it.
/// Obligations the abstract tier proves are skipped by the concrete tiers;
/// everything it leaves inconclusive (or merely hints is refutable) falls
/// through to them, so reported counterexamples are always concrete.
/// Invalid specifications are refuted with a concrete counterexample.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_RSPEC_VALIDITY_H
#define COMMCSL_RSPEC_VALIDITY_H

#include "absint/Differencing.h"
#include "rspec/RSpec.h"
#include "value/Domain.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace commcsl {

/// Cooperative wall-clock/step budget shared by every validity check one
/// service request runs. The concrete tiers consult it at instance and
/// chunk boundaries, so exhaustion drains gracefully: work already
/// dispatched to pool workers finishes, no new work starts, and nothing is
/// torn down. A cut-short check reports TimedOut, and the verdict memo
/// (verifier/SpecVerdictMemo.h) never stores such a result.
///
/// Steps are concrete check instances (the same unit as BoundedChecks +
/// RandomChecks). The step cap is an atomic counter; the deadline is
/// polled only every few hundred instances because `now()` dwarfs a
/// dense-table instance check.
class CheckBudget {
public:
  /// Either bound may be 0 (unlimited). A budget with both 0 never fires.
  CheckBudget(uint64_t BudgetMs, uint64_t MaxSteps)
      : MaxSteps(MaxSteps), HasDeadline(BudgetMs != 0),
        Deadline(std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(BudgetMs)) {}

  /// Charges \p N check instances; true when the step cap is now exceeded.
  bool charge(uint64_t N) {
    if (Steps.fetch_add(N, std::memory_order_relaxed) + N > MaxSteps &&
        MaxSteps != 0) {
      Fired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True when the wall-clock deadline has passed.
  bool expired() const {
    if (!HasDeadline)
      return false;
    if (std::chrono::steady_clock::now() < Deadline)
      return false;
    Fired.store(true, std::memory_order_relaxed);
    return true;
  }

  /// True when either bound has been hit (does not advance the counter).
  bool exhausted() const {
    if (MaxSteps != 0 &&
        Steps.load(std::memory_order_relaxed) >= MaxSteps) {
      Fired.store(true, std::memory_order_relaxed);
      return true;
    }
    return expired();
  }

  /// True once any bound has ever been observed exhausted — the caller's
  /// "this request timed out" signal, sticky across checks.
  bool fired() const { return Fired.load(std::memory_order_relaxed); }

  uint64_t steps() const { return Steps.load(std::memory_order_relaxed); }

private:
  uint64_t MaxSteps;
  bool HasDeadline;
  std::chrono::steady_clock::time_point Deadline;
  mutable std::atomic<uint64_t> Steps{0};
  mutable std::atomic<bool> Fired{false};
};

/// Budgets for the validity checker's tiers. Every field that can change a
/// result is part of the verifier's verdict-memo key (`verdictKey` in
/// verifier/VerifierImpl.inc); a new such field must be added there.
struct ValidityConfig {
  /// Cap on enumerated resource states.
  size_t MaxStates = 300;
  /// Cap on enumerated action arguments.
  size_t MaxArgs = 50;
  /// Budget of (state-pair, arg-pair) checks per property instance.
  uint64_t MaxChecksPerProperty = 150000;
  /// Number of random samples in the randomized tier.
  unsigned RandomRounds = 1500;
  uint64_t Seed = 0xC0FFEEULL;
  bool RunBoundedTier = true;
  bool RunRandomTier = true;
  /// Run the differencing abstract interpreter first and skip the concrete
  /// tiers for every obligation it proves over the unbounded domain. The
  /// analysis is pure and deterministic, so the verdict and reported
  /// counterexamples are identical with the tier on or off — only
  /// BoundedChecks/RandomChecks (fewer obligations reach them) and the
  /// Absint* counters change.
  bool RunAbsintTier = true;
  /// Budgets and fault-injection knobs for the abstract tier.
  absint::AbsOptions Absint;
  /// Optional cooperative request budget. When it fires, the concrete
  /// tiers stop early and the result comes back TimedOut (Valid = false,
  /// no counterexample) — inconclusive, not refuted. Null = unlimited.
  std::shared_ptr<CheckBudget> Budget;
  /// Worker threads for the bounded tier's instance space. 0 = hardware
  /// concurrency; 1 = fully sequential (no pool involvement). The verdict,
  /// counterexample, and check counts are identical at every setting: the
  /// surviving counterexample is always the one with the lowest global
  /// instance index.
  unsigned Jobs = 0;
};

/// A concrete refutation of validity.
struct ValidityCounterexample {
  enum class Property { Precondition, Commutativity, History, Invariant };
  Property Prop = Property::Commutativity;
  std::string ActionA;
  std::string ActionB; ///< empty for Precondition
  ValueRef V1, V2;     ///< states with equal abstraction
  ValueRef Arg1, Arg2;
  ValueRef AlphaLeft, AlphaRight; ///< the differing abstract results

  /// Human-readable description, used in diagnostics.
  std::string describe() const;
};

/// Outcome of a validity check.
struct ValidityResult {
  bool Valid = true;
  std::optional<ValidityCounterexample> CE;
  uint64_t BoundedChecks = 0;
  uint64_t RandomChecks = 0;
  /// Abstract-tier obligations attempted / proved for the property (one A'
  /// obligation per action, one B1 obligation per relevant pair).
  uint64_t AbsintObligations = 0;
  uint64_t AbsintProved = 0;
  /// Rewrite steps and case splits the abstract analysis spent. The whole
  /// spec is analyzed once (lazily); its cost is attributed to the first
  /// property that ran.
  uint64_t AbsintSteps = 0;
  uint64_t AbsintSplits = 0;
  /// True when the property (for `check()`: the whole spec) was proved for
  /// the *unbounded* state/argument domains — every obligation discharged
  /// by the abstract tier, with no history/invariant clauses left to the
  /// simulation tier. A bounded-only pass never sets this.
  bool Unbounded = false;
  /// True when ValidityConfig::Budget fired and cut the check short. The
  /// verdict is then inconclusive: Valid is false but CE is unset (a
  /// timeout is not a refutation). Counters hold whatever the partial run
  /// accumulated.
  bool TimedOut = false;
  /// The abstract analysis behind the Absint* counters, for certificate
  /// emission; null when the tier was off or never ran.
  std::shared_ptr<const absint::SpecAbsResult> Absint;
  /// Wall-clock duration of the check.
  double WallSeconds = 0;
  /// Aggregate time spent by all workers (>= WallSeconds when parallel);
  /// CpuSeconds / WallSeconds approximates the realized speedup.
  double CpuSeconds = 0;
  /// Counters of the checker's private alpha/f_a memo, cumulative over
  /// every property the checker has run so far. Diagnostic only: hit/miss
  /// splits may vary with thread interleaving.
  CacheStats Cache;
};

/// Runs the Def. 3.1 checks for one resource specification.
class ValidityChecker {
public:
  ValidityChecker(const RSpecRuntime &Runtime, ValidityConfig Config = {});

  /// Checks both properties; stops at the first counterexample.
  ValidityResult check();

  /// Property (A) only.
  ValidityResult checkPreconditions();

  /// Property (B) only.
  ValidityResult checkCommutativity();

  /// Coherence of declared `history` clauses: simulates random sequences of
  /// enabled actions and checks that, for every unique action with a
  /// history clause, history(v) always equals history(v0) extended by the
  /// returns the action actually produced.
  ValidityResult checkHistoryCoherence();

private:
  struct Universe {
    std::vector<ValueRef> States;
    /// Indices of state pairs (I, J) with equal abstraction, I <= J.
    std::vector<std::pair<size_t, size_t>> AlphaPairs;
    std::vector<ValueRef> Args; ///< per-action argument enumerations
  };

  /// Enumerates states and same-alpha state pairs.
  void buildStateUniverse();
  std::vector<ValueRef> argsFor(const ActionDecl &A) const;

  /// Runs the abstract tier once per checker (lazily) and caches the
  /// result; returns null when Config.RunAbsintTier is off or the runtime
  /// has no program. Also folds the analysis-wide step/split counters into
  /// \p R the first time it is called.
  const absint::SpecAbsResult *absintResult(ValidityResult &R);

  bool checkPreInstance(const ActionDecl &A, const ValueRef &V1,
                        const ValueRef &V2, const ValueRef &Arg1,
                        const ValueRef &Arg2, ValidityResult &R);
  bool checkCommInstance(const ActionDecl &A, const ActionDecl &B,
                         const ValueRef &V1, const ValueRef &V2,
                         const ValueRef &ArgA, const ValueRef &ArgB,
                         ValidityResult &R);

  /// Records a property (A) counterexample with the already-computed
  /// abstract results \p L / \p Rt (shared by the direct and dense-table
  /// instance paths, so both produce bit-identical reports).
  void failPre(const ActionDecl &A, const ValueRef &V1, const ValueRef &V2,
               const ValueRef &Arg1, const ValueRef &Arg2, const ValueRef &L,
               const ValueRef &Rt, ValidityResult &R);
  /// Property (B) analogue of failPre.
  void failComm(const ActionDecl &A, const ActionDecl &B, const ValueRef &V1,
                const ValueRef &V2, const ValueRef &ArgA, const ValueRef &ArgB,
                const ValueRef &L, const ValueRef &Rt, ValidityResult &R);

  /// Total weight of the same-alpha state-pair list (diagonal pairs count
  /// one orientation, off-diagonal pairs two); the bounded-tier instance
  /// space for a property is this times its argument-pair count.
  uint64_t weightedPairTotal() const;

  /// Dense property (A) result table: cell [s * Args.size() + a] holds
  /// alpha(f_A(States[s], Args[a])). Built in parallel; every bounded-tier
  /// instance then reduces to two array loads and an interned-pointer
  /// comparison instead of two memo-cache probes.
  std::vector<ValueRef> buildPreTable(const ActionDecl &A,
                                      const std::vector<ValueRef> &Args);

  /// Dense property (B) result tables, both laid out [s][argA][argB]:
  /// TAB holds alpha(f_B(f_A(s, argA), argB)) and TBA holds
  /// alpha(f_A(f_B(s, argB), argA)). Row-major build order lets each row
  /// share the one-action intermediate state across the inner loop.
  void buildCommTables(const ActionDecl &A, const ActionDecl &B,
                       const std::vector<ValueRef> &ArgsA,
                       const std::vector<ValueRef> &ArgsB,
                       std::vector<ValueRef> &TAB, std::vector<ValueRef> &TBA);

  /// Checks one flattened bounded-tier instance: state pair \p StatePair
  /// (swapped orientation when \p Swapped), argument pair \p ArgPair.
  /// Returns false and fills \p Out with a counterexample on failure.
  using BoundedInstanceCheck = std::function<bool(
      size_t StatePair, size_t ArgPair, bool Swapped, ValidityResult &Out)>;

  /// Runs one property's bounded tier over the (same-alpha state pair x
  /// argument pair x orientation) instance space, sharded across the shared
  /// thread pool. Every instance consumes one unit of MaxChecksPerProperty.
  /// Deterministic at any job count: the reported counterexample is the one
  /// with the lowest global instance index, and BoundedChecks advances by
  /// exactly the number of instances the sequential checker would have
  /// visited. Returns true when a counterexample was recorded in \p R.
  /// \p ParWall / \p ParCpu accumulate the region's wall and aggregate
  /// worker time.
  bool runBoundedTier(size_t NumArgPairs, const BoundedInstanceCheck &Check,
                      ValidityResult &R, double &ParWall, double &ParCpu);

  /// The caller's spec and program with the checker's private memo cache;
  /// the caller's runtime is left untouched.
  RSpecRuntime Runtime;
  ValidityConfig Config;
  Type::ScopeParams Scope;

  std::vector<ValueRef> States;
  std::vector<std::pair<size_t, size_t>> SameAlphaPairs;

  /// Lazily-run abstract analysis shared by both properties.
  std::shared_ptr<const absint::SpecAbsResult> Abs;
  bool AbsRan = false;
  bool AbsCostFlushed = false;
};

/// Returns the relevant commuting pairs per Def. 3.1 (B): indices (I, J)
/// into the spec's action list with I <= J, excluding (U, U) for unique U.
std::vector<std::pair<size_t, size_t>>
relevantActionPairs(const ResourceSpecDecl &Spec);

} // namespace commcsl

#endif // COMMCSL_RSPEC_VALIDITY_H
