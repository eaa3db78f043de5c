//===-- fuzz/Oracle.h - Differential soundness oracle -----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle of the fuzzing campaign. For one generated (or
/// replayed) program it collects four independent verdicts:
///
///   1. the generator's own taint verdict (secure by construction or
///      deliberately leaky),
///   2. the verifier's accept/reject outcome (Theorem 4.3 claims accepted
///      programs satisfy Def. 2.1),
///   3. an empirical non-interference sweep (low-equivalent inputs under
///      many schedulers must agree on low outputs),
///   4. a scheduler-differential run (one fixed input vector executed under
///      every scheduler family; declared-low returns and the public output
///      channel must not depend on the schedule),
///   5. the static information-flow pre-analysis (analysis/Analysis.h):
///      its `provably-low` verdict claims every declared-low return and
///      output is independent of high inputs and the schedule,
///   6. a certificate replay: the verifier's run emits a checkable proof
///      certificate (cert/Cert.h), and the independent checker must be able
///      to re-derive every step of it. Under an injected accept-all fault
///      the forged certificate is the artifact the checker refutes.
///
/// Disagreements are classified (see OracleClass): a verified program that
/// empirically leaks is a soundness violation — the one class that must
/// never occur; a statically provably-low program for which an empirical
/// phase observes a concrete low-output mismatch is an analysis-unsound
/// finding, equally forbidden; a secure-by-construction program the
/// verifier rejects is a completeness gap; nondeterministic infrastructure
/// failures (step-limit exhaustion on a verified program) are flakes.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_FUZZ_ORACLE_H
#define COMMCSL_FUZZ_ORACLE_H

#include "hyper/NonInterference.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace commcsl {

class SpecVerdictMemo;
namespace cert {
class SpecCheckMemo;
}

/// Classification of the four-verdict cross-check.
enum class OracleClass : uint8_t {
  /// All verdicts consistent: untainted & verified & empirically secure,
  /// or tainted & rejected.
  Agree,
  /// The verifier accepted a program that is tainted by construction or
  /// that empirically leaks (NI violation or scheduler-differential
  /// mismatch). Falsifies Theorem 4.3; must never happen.
  SoundnessViolation,
  /// The static pre-analysis classified the program provably-low, yet an
  /// empirical phase observed a concrete low-output mismatch (across
  /// low-equivalent inputs or across schedules). Falsifies the analysis's
  /// soundness claim; must never happen. Aborts, deadlocks, and step-limit
  /// exhaustion are *not* flow evidence and never trigger this class.
  /// Checked before SoundnessViolation: when both the verifier and the
  /// analysis accepted a leaky program, the analysis label wins and the
  /// detail records the verifier's verdict.
  AnalysisUnsound,
  /// The verifier rejected a program that is secure by construction.
  CompletenessGap,
  /// The verifier's own proof certificate fails the independent checker:
  /// the claimed verdict is not backed by re-derivable evidence. Catches
  /// verifier/solver bugs the empirical phases can miss (a wrong proof of
  /// a coincidentally-secure program) — and is how an injected accept-all
  /// fault surfaces when the empirical phases observe no concrete leak.
  /// Campaign-fatal, like the soundness classes. Checked after
  /// SoundnessViolation (a concrete leak is the stronger finding), before
  /// Flake.
  CertInvalid,
  /// Infrastructure noise rather than a verdict: a verified program's
  /// empirical run hit the step budget, so the sweep is inconclusive.
  Flake,
  /// The generated source failed to parse or type-check — a generator bug,
  /// reported separately so it cannot masquerade as agreement.
  GeneratorInvalid,
};

/// Stable lower-case names used in reports and corpus headers
/// ("agree", "soundness-violation", ...).
const char *oracleClassName(OracleClass C);
std::optional<OracleClass> oracleClassByName(const std::string &Name);

/// Fault injection for exercising the disagreement paths (shrinker,
/// corpus writer, CI plumbing) on demand. Test/tooling only — never set in
/// a real campaign.
enum class OracleFault : uint8_t {
  None,
  /// Pretend the verifier accepted everything: every empirically leaky or
  /// tainted program becomes a synthetic soundness violation.
  AcceptAll,
  /// Pretend the verifier rejected everything: every secure program
  /// becomes a synthetic completeness gap.
  RejectAll,
};

const char *oracleFaultName(OracleFault F);
std::optional<OracleFault> oracleFaultByName(const std::string &Name);

/// Budgets and knobs for one oracle evaluation.
struct OracleConfig {
  /// Empirical sweep budgets. The oracle forces Jobs=1 on the inner sweep —
  /// campaign parallelism is across seeds, and single-threaded inner phases
  /// keep every verdict independent of the outer job count.
  NIConfig NI;
  /// Random-scheduler count of the scheduler-differential verdict (plus
  /// one round-robin and one burst schedule).
  unsigned SchedDiffSchedules = 3;
  /// Procedure checked by the empirical phases.
  std::string ProcName = "main";
  /// Injected verifier fault (test/tooling only).
  OracleFault Inject = OracleFault::None;

  OracleConfig() {
    NI.Trials = 2;
    NI.HighSamples = 3;
    NI.RandomSchedules = 3;
    NI.Jobs = 1;
    NI.MaxSteps = 200'000;
  }
};

/// The raw verdicts underlying a classification.
struct OracleVerdicts {
  bool GenTainted = false; ///< verdict 1 (an input, echoed for the record)
  bool ParseOk = false;
  bool Verified = false; ///< verdict 2, after fault injection
  /// True when fault injection overrode the verifier's real outcome.
  bool Injected = false;
  bool NIRan = false;
  bool NISecure = false;  ///< verdict 3
  std::string NIKind;     ///< violation kind when !NISecure
  bool SchedRan = false;
  bool SchedStable = false; ///< verdict 4
  std::string SchedKind;    ///< mismatch kind when !SchedStable
  bool StaticRan = false;
  bool StaticSecure = false;  ///< verdict 5: analysis says provably-low
  std::string StaticDetail;   ///< first analysis diagnostic when !StaticSecure
  bool CertRan = false;
  bool CertOk = false;     ///< verdict 6: cert replays on the checker
  std::string CertError;   ///< first failing checker step when !CertOk
  /// A concrete run-time leak was observed (an NI or scheduler-differential
  /// mismatch that is not step-limit noise). The shrinker holds this bit
  /// fixed: a soundness finding with a concrete leak must keep leaking as
  /// it shrinks — class equality alone would let an
  /// accepted-because-injected program shrink to an empty one.
  bool EmpiricalLeak = false;
};

/// One oracle evaluation.
struct OracleResult {
  OracleClass Class = OracleClass::Agree;
  OracleVerdicts Verdicts;
  /// One-line human-readable explanation of the classification.
  std::string Detail;
};

/// Cross-checks the four verdicts for one program. Deterministic: the same
/// (Source, GenTainted, Seed, Config) always yields the same result.
///
/// Each oracle owns one validity-verdict memo (verifier/SpecVerdictMemo.h)
/// that every driver it builds shares, the forged accept-all run included,
/// so a resource spec recurring across evaluations is proved once, and one
/// spec-unit check memo (cert/Check.h), so a certificate spec unit
/// recurring across evaluations is checked once. Both memos replay results
/// exactly, so results do not depend on what was evaluated before.
/// `evaluate` may run concurrently on one oracle.
class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleConfig Config = OracleConfig());

  /// Evaluates one program. \p GenTainted is the generator's taint verdict
  /// (false for hand-written replays believed secure). \p Seed derives the
  /// randomness of the empirical phases.
  OracleResult evaluate(const std::string &Source, bool GenTainted,
                        uint64_t Seed) const;

  const OracleConfig &config() const { return Config; }

private:
  OracleConfig Config;
  std::shared_ptr<SpecVerdictMemo> Verdicts;
  std::shared_ptr<cert::SpecCheckMemo> CertChecks;
};

} // namespace commcsl

#endif // COMMCSL_FUZZ_ORACLE_H
