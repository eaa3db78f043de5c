//===-- fuzz/Shrinker.h - Delta-debugging program shrinker ------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A delta-debugging minimizer for oracle disagreements. Starting from a
/// program the oracle classified as some disagreement class, it applies
/// syntactic reduction passes — statement removal, branch/loop/par
/// flattening, invariant stripping, declaration removal, expression
/// simplification — keeping a candidate only when the oracle still returns
/// the *same* classification. Candidates are produced by re-parsing the
/// current best source, mutating the AST, and pretty-printing it back, so
/// every intermediate witness is a well-formed `.hv` file ready for the
/// regression corpus.
///
/// The process is deterministic (same input, same oracle config, same
/// result) and budgeted by oracle evaluations; passes repeat to a fixpoint
/// or until the budget runs out.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_FUZZ_SHRINKER_H
#define COMMCSL_FUZZ_SHRINKER_H

#include "fuzz/Oracle.h"

#include <cstdint>
#include <string>

namespace commcsl {

/// Budgets for one shrink.
struct ShrinkConfig {
  /// Oracle used to re-check candidates (should match the campaign's, fault
  /// injection included — a synthetic disagreement must be re-checked under
  /// the same fault).
  OracleConfig Oracle;
  /// Hard cap on oracle evaluations, the initial re-check of the input
  /// included. 0 returns the input unchanged with BudgetExhausted set.
  unsigned MaxOracleRuns = 600;
  /// Cap on full fixpoint rounds (each round sweeps every pass once).
  unsigned MaxRounds = 8;
};

/// What one shrink did.
struct ShrinkStats {
  unsigned OracleRuns = 0;  ///< candidate evaluations spent
  unsigned Reductions = 0;  ///< accepted candidates
  unsigned Rounds = 0;      ///< fixpoint rounds completed
  unsigned StatementsBefore = 0;
  unsigned StatementsAfter = 0;
  bool BudgetExhausted = false;
};

/// Result of a shrink: the minimized source still classified as Target.
struct ShrinkResult {
  std::string Source;
  OracleClass Class = OracleClass::Agree; ///< == Target on success
  ShrinkStats Stats;
};

/// Minimizes \p Source while the oracle keeps classifying it as
/// \p Target (with taint verdict \p GenTainted and empirical seed \p Seed,
/// both held fixed). \p Source must already classify as Target; when it
/// does not (or Target is GeneratorInvalid, which is not shrinkable), the
/// input is returned unchanged with Class set to the actual classification.
ShrinkResult shrinkProgram(const std::string &Source, bool GenTainted,
                           OracleClass Target, uint64_t Seed,
                           const ShrinkConfig &Config = ShrinkConfig());

} // namespace commcsl

#endif // COMMCSL_FUZZ_SHRINKER_H
