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

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

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

/// Thread-safe map from verdict key to verdict. Concurrent misses on one
/// key wait for a single computation, so the number of computations (and
/// every counter they bump) does not depend on thread interleaving.
class SpecVerdictMemo {
public:
  /// Returns the verdict stored under \p Key, or runs \p Compute, stores
  /// its result unless it timed out, and returns it. Bumps the stable
  /// `validity.verdict_memo.hits` / `.computed` metrics counters.
  std::shared_ptr<const SpecVerdict>
  getOrCompute(const std::string &Key,
               const std::function<SpecVerdict()> &Compute);

private:
  std::mutex Mu;
  std::condition_variable Done;
  /// A null verdict marks a key whose computation is in flight.
  std::unordered_map<std::string, std::shared_ptr<const SpecVerdict>> Verdicts;
};

} // namespace commcsl

#endif // COMMCSL_VERIFIER_SPECVERDICTMEMO_H
