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
/// annotation lines) matching the columns of the paper's Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_HYPERVIPER_DRIVER_H
#define COMMCSL_HYPERVIPER_DRIVER_H

#include "hyper/NonInterference.h"
#include "lang/Program.h"
#include "support/Diagnostics.h"
#include "verifier/Verifier.h"

#include <memory>
#include <string>

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
/// source skips the parse phase and — because the same `Program` object
/// (hence the same spec-declaration addresses) is reused — its per-spec
/// memo caches stay warm across requests.
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

/// The verification driver.
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
  /// diagnostics, then runs the validity and procedure phases against
  /// `Unit.Prog`. The verdict, diagnostics, and counts are identical to a
  /// fresh `verifySource` of the same buffer.
  DriverResult verifyParsed(const ParsedUnit &Unit);

  /// Reads and verifies a file.
  DriverResult verifyFile(const std::string &Path);

  /// Runs the empirical non-interference harness on a previously verified
  /// (or parsed) result's procedure \p ProcName.
  NIReport runEmpirical(const DriverResult &Result,
                        const std::string &ProcName, NIConfig Config = {});

private:
  DriverOptions Options;
};

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
