//===-- verifier/SpecVerdictMemo.h - Validity verdict memo ------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memo of Def. 3.1 validity verdicts keyed by content, so a resource
/// specification that recurs across many programs is proved once. The
/// differential fuzz oracle shares one memo across every program it
/// evaluates: campaign seeds draw from a handful of spec texts, and every
/// shrink candidate keeps its finding's specs.
///
/// The key (built by the verifier) is the printed spec with its name, the
/// printed `function` declarations it may call, and every ValidityConfig /
/// AbsOptions field that can change a verdict, counterexample or
/// certificate unit. Printed text is a sound key because the printer round
/// trips up to `structurallyEqual` (lang/Program.h): equal texts parse to
/// structurally equal declarations, and validity reads nothing else —
/// source locations only place diagnostics, which callers rebuild at the
/// current location on every hit.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_VERIFIER_SPECVERDICTMEMO_H
#define COMMCSL_VERIFIER_SPECVERDICTMEMO_H

#include "cert/Cert.h"
#include "rspec/Validity.h"
#include "support/ComputeOnceMemo.h"

#include <optional>

namespace commcsl {

/// What one validity check decided, as far as the verifier reports it.
struct SpecVerdict {
  bool Valid = false;
  /// The request budget cut the check short (inconclusive). Such a verdict
  /// is handed back to the caller that computed it but never stored.
  bool TimedOut = false;
  std::optional<ValidityCounterexample> CE;
  /// The finished certificate unit (only when certificates are emitted).
  std::optional<cert::CertSpecUnit> Unit;
};

/// Thread-safe map from verdict key to verdict (support/ComputeOnceMemo.h).
/// Lookups bump the stable `validity.verdict_memo.hits` / `.computed`
/// metrics counters; a timed-out verdict is never stored.
class SpecVerdictMemo : public ComputeOnceMemo<SpecVerdict> {
public:
  SpecVerdictMemo()
      : ComputeOnceMemo("validity.verdict_memo.hits",
                        "validity.verdict_memo.computed",
                        [](const SpecVerdict &V) { return !V.TimedOut; }) {}
};

} // namespace commcsl

#endif // COMMCSL_VERIFIER_SPECVERDICTMEMO_H
