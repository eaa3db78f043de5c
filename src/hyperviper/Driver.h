//===-- hyperviper/Driver.h - End-to-end verification driver ----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HyperViper-style driver: file in, verdict out. Runs the pipeline
/// parse -> type check -> spec validity (Def. 3.1) -> program verification,
/// with per-phase wall-clock timing, plus source metrics (code lines vs.
/// annotation lines) matching the columns of the paper's Table 1. The CLI
/// and the serve daemon (service/Session.h) both run their verify,
/// validity and NI verbs through this one driver.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_HYPERVIPER_DRIVER_H
#define COMMCSL_HYPERVIPER_DRIVER_H

#include "hyper/NonInterference.h"
#include "lang/Program.h"
#include "support/Diagnostics.h"
#include "verifier/Verifier.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace commcsl {

/// Source metrics in the style of Table 1: LOC counts non-blank,
/// non-comment lines that are not annotations; Annotations counts contract
/// and resource-specification lines.
struct SourceMetrics {
  unsigned LinesOfCode = 0;
  unsigned AnnotationLines = 0;
};

/// Computes source metrics for a `.hv` buffer.
SourceMetrics measureSource(const std::string &Source);

/// A parsed and type-checked source buffer, reusable across verification
/// runs. The serve daemon's program cache stores these so a resubmitted
/// source skips the parse phase.
struct ParsedUnit {
  std::string Name;
  bool Ok = false; ///< no parse or type errors
  SourceMetrics Metrics;
  DiagnosticEngine Diags; ///< parse + type-check diagnostics only
  std::shared_ptr<Program> Prog;
  double ParseSeconds = 0;
};

/// Everything the driver learned about one input.
struct DriverResult {
  std::string Name;
  bool ParseOk = false;
  bool Verified = false;
  SourceMetrics Metrics;
  VerifyResult Verification;
  DiagnosticEngine Diags;
  std::shared_ptr<Program> Prog; ///< retained for downstream use (NI, sem)
  /// Printed proof certificate (VerifierConfig::EmitCert); empty otherwise
  /// or on parse failure. Byte-deterministic at any job count: units are
  /// assembled in program order and each unit's content depends only on
  /// the program text and the (deterministic) per-proc term arenas.
  std::string Cert;

  // Wall-clock seconds per phase.
  double ParseSeconds = 0;
  double ValiditySeconds = 0;
  double VerifySeconds = 0;
  /// Aggregate seconds spent in the static triage analysis (--triage).
  double AnalysisSeconds = 0;
  /// Procedures whose relational proof the triage fast path skipped.
  unsigned TriageSkipped = 0;
  // Aggregate worker seconds for the parallelized phases (>= the wall
  // number when several specs/procedures verify concurrently).
  double ValidityCpuSeconds = 0;
  double VerifyCpuSeconds = 0;

  double totalSeconds() const {
    return ParseSeconds + ValiditySeconds + VerifySeconds;
  }
};

/// Driver options.
struct DriverOptions {
  VerifierConfig Verifier;
  /// Worker threads for spec validity, procedure verification, and the
  /// empirical harness. 0 = hardware concurrency; 1 recovers the fully
  /// sequential behaviour. Verdicts, diagnostics order, counterexamples,
  /// and NI reports are identical at every setting.
  unsigned Jobs = 0;
  /// Static fast path: before verifying a procedure, run the taint
  /// analysis in verifier-approximation mode and skip the relational
  /// proof when it is strict-provably-low (ProcVerdict::SkippedByTriage;
  /// counted in DriverResult::TriageSkipped). Verdicts are identical to
  /// the full pipeline by the strict mode's soundness contract.
  bool Triage = false;
};

/// One resource specification's outcome in the Driver's spec phase.
struct SpecOutcome {
  bool Ok = true;
  DiagnosticEngine Diags; ///< this spec's diagnostics only
  double Seconds = 0;     ///< worker seconds spent on it
  /// Certificate unit (VerifierConfig::EmitCert or ForgeAcceptAll only).
  std::optional<cert::CertSpecUnit> Unit;
};

/// The verify verb's output for one input, split by stream: the CLI
/// prints `Diagnostics` to stderr (unless --quiet) and the rest to stdout,
/// the serve daemon concatenates all three into its report.
struct VerifyVerbOutput {
  std::string Diagnostics; ///< empty unless the input was rejected
  std::string VerdictLine; ///< see formatVerdictLine
  std::string NIBlock;     ///< see formatNIBlock; empty when NI did not run
  bool Ok = false;         ///< verified, and empirically secure if NI ran
};

/// The verification driver. `verifyParsed` runs two phases: the spec
/// phase (`checkSpecs`: Def. 3.1 validity of every resource spec) and the
/// proc phase (the relational proof of every procedure). Each phase runs
/// its independent units concurrently and merges their diagnostics in
/// declaration order, so output is identical at any job count.
class Driver {
public:
  explicit Driver(DriverOptions Options = {}) : Options(Options) {}

  /// Verifies a source buffer. \p Name labels diagnostics. Equivalent to
  /// `verifyParsed(parseAndCheck(Source, Name))`.
  DriverResult verifySource(const std::string &Source,
                            const std::string &Name);

  /// Parses and type-checks a buffer without verifying it.
  ParsedUnit parseAndCheck(const std::string &Source,
                           const std::string &Name);

  /// Verifies a previously parsed unit: replays its parse/type-check
  /// diagnostics, then runs the spec phase (unless
  /// VerifierConfig::SkipValidityCheck) and the proc phase against
  /// `Unit.Prog`. The verdict, diagnostics, and counts are identical to a
  /// fresh `verifySource` of the same buffer.
  DriverResult verifyParsed(const ParsedUnit &Unit);

  /// Reads and verifies a file.
  DriverResult verifyFile(const std::string &Path);

  /// The spec phase: checks every resource spec of \p Prog for validity
  /// (Def. 3.1), one outcome per spec in declaration order.
  std::vector<SpecOutcome> checkSpecs(const Program &Prog);

  /// Runs the empirical non-interference harness on procedure \p ProcName
  /// of a parsed program.
  NIReport runEmpirical(const Program &Prog, const std::string &ProcName,
                        NIConfig Config = {});

  /// The verify verb's output for \p R, labelled \p Name. A non-empty
  /// \p NIProc runs the NI harness on that procedure when \p R parsed.
  VerifyVerbOutput renderVerify(const DriverResult &R, const std::string &Name,
                                const std::string &NIProc);

private:
  /// The verifier configuration both phases run under.
  VerifierConfig verifierConfig() const;
  /// The proc phase: verifies every procedure of `R.Prog` into \p R and
  /// returns whether all of them verified.
  bool verifyProcs(DriverResult &R);

  DriverOptions Options;
};

/// The whole content of the file at \p Path, or nullopt when it cannot be
/// opened. Every verb that takes a `.hv` path reads it through here.
std::optional<std::string> readFile(const std::string &Path);

/// The per-file verdict line of the verify verb: `<Name>: verified` or
/// `<Name>: REJECTED`, newline-terminated. The CLI and the serve daemon
/// both print it through here, so their outputs agree byte for byte.
std::string formatVerdictLine(const std::string &Name, bool Verified);

/// The empirical non-interference block printed under a verdict line:
/// one summary line, followed by the violation's description when the
/// sweep found one.
std::string formatNIBlock(const NIReport &Report);

} // namespace commcsl

#endif // COMMCSL_HYPERVIPER_DRIVER_H
