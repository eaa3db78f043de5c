//===-- verifier/Verifier.h - CommCSL relational verifier -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CommCSL program verifier: a relational symbolic-execution engine
/// implementing the proof rules of Sec. 3.6 (Share, AtomicShr, AtomicUnq,
/// If1/If2, While1/While2, Par, procedure-modular calls) over the term
/// solver. It enforces the paper's four central properties:
///
///  (1) low initial abstract value at `share`;
///  (2)+(3a) retroactively at `unshare`: the recorded argument collections
///      admit a pre-respecting bijection (`PRE`, Def. 3.2) — recorded
///      applications are discharged eagerly when possible and re-tried at
///      unshare with the facts available then (the paper's retroactive
///      checking, Sec. 2.5);
///  (3b)+(4) via the resource-specification validity checker (Def. 3.1),
///      run once per specification.
///
/// The engine runs both executions of the relational pair in lock-step:
/// each variable carries one term per side, `Low(e)` is provable equality
/// of the two evaluations, high conditionals force unary postconditions by
/// havocing modified state to unrelated symbols, and everything read from
/// a shared resource inside an atomic block is a fresh (high) symbol.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_VERIFIER_VERIFIER_H
#define COMMCSL_VERIFIER_VERIFIER_H

#include "cert/Cert.h"
#include "lang/Program.h"
#include "rspec/Validity.h"
#include "support/Diagnostics.h"
#include "verifier/SpecVerdictMemo.h"

#include <optional>
#include <string>
#include <vector>

namespace commcsl {

/// Configuration of the verifier.
struct VerifierConfig {
  /// Budgets for Def. 3.1 validity checking of resource specifications.
  ValidityConfig Validity;
  /// Skip spec validity (used by unit tests that target program rules).
  bool SkipValidityCheck = false;
  /// Optional content-keyed memo of validity verdicts. When set,
  /// `verifySpec` runs the ValidityChecker only for a spec text, function
  /// set and result-relevant configuration the memo has not seen; a hit
  /// replays the stored verdict, counterexample and certificate unit, with
  /// diagnostics placed at the current declaration. Reports are identical
  /// with or without it. A memoized check builds the certificate unit even
  /// without EmitCert, so requests with and without certificates share one
  /// verdict. Null (the CLI and direct-Verifier default) checks every spec
  /// afresh; the fuzz oracle and each serve program-cache entry set one.
  std::shared_ptr<SpecVerdictMemo> VerdictMemo;
  /// Record proof certificates: per-spec validity evidence and per-proc
  /// entailment derivations (cert/Cert.h), re-checkable by the independent
  /// checker without the solver or verifier libraries.
  bool EmitCert = false;
  /// Fault injection: every entailment query answered under an obligation
  /// reports "proved" and invalid specs are claimed valid. The emitted
  /// certificate records the forged verdicts, which the independent checker
  /// then refutes — the end-to-end demonstration of the trust story (and
  /// the fuzz campaign's `cert-invalid` oracle). Implies EmitCert.
  bool ForgeAcceptAll = false;
};

/// Per-procedure verdict.
struct ProcVerdict {
  std::string Proc;
  bool Ok = false;
  unsigned NumObligations = 0; ///< discharged proof obligations
  /// True when the driver's `--triage` fast path proved the procedure
  /// statically (no relational proof was run).
  bool SkippedByTriage = false;
  /// Certificate unit for this procedure (set when EmitCert).
  std::optional<cert::CertProcUnit> CertUnit;
};

/// Whole-program verification result.
struct VerifyResult {
  bool Ok = false;
  std::vector<ProcVerdict> Procs;
  unsigned NumSpecsChecked = 0;
  /// Certificate units for the checked specs, in program order (set when
  /// EmitCert and validity checking is not skipped).
  std::vector<cert::CertSpecUnit> SpecUnits;
};

/// The CommCSL verifier over one program: `verifySpec` checks a resource
/// specification (Def. 3.1), `verifyProc` a procedure against its
/// contract. The whole-program pipeline over both is the Driver's
/// (hyperviper/Driver.h). Diagnostics carry machine-readable codes
/// (DiagCode) that the negative tests assert on.
class Verifier {
public:
  Verifier(const Program &Prog, DiagnosticEngine &Diags,
           VerifierConfig Config = {});
  ~Verifier();

  /// Verifies one resource specification (validity, Def. 3.1). With
  /// EmitCert or ForgeAcceptAll, a non-null \p Unit receives its
  /// certificate unit.
  bool verifySpec(const ResourceSpecDecl &Spec,
                  std::optional<cert::CertSpecUnit> *Unit = nullptr);

  /// Verifies one procedure against its contract.
  ProcVerdict verifyProc(const ProcDecl &Proc);

private:
  struct Impl;
  const Program &Prog;
  DiagnosticEngine &Diags;
  VerifierConfig Config;
};

} // namespace commcsl

#endif // COMMCSL_VERIFIER_VERIFIER_H
