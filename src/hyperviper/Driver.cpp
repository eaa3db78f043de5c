//===-- hyperviper/Driver.cpp - End-to-end verification driver -------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include "analysis/Taint.h"
#include "cert/Cert.h"
#include "lang/TypeChecker.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"
#include "support/trace/Stopwatch.h"
#include "support/trace/Trace.h"

#include <fstream>
#include <sstream>
#include <vector>

using namespace commcsl;

namespace {

/// Flushes one verification's outcome into the process-wide metrics
/// registry. Verdict/size tallies are deterministic; phase wall times and
/// cache splits land under `"timings"`.
void flushDriverMetrics(const DriverResult &R) {
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("driver.files").add(1);
  M.counter("driver.files_verified").add(R.Verified ? 1 : 0);
  M.counter("driver.files_rejected").add(R.Verified ? 0 : 1);
  M.counter("driver.parse_errors").add(R.ParseOk ? 0 : 1);
  M.counter("driver.lines_of_code").add(R.Metrics.LinesOfCode);
  M.counter("driver.annotation_lines").add(R.Metrics.AnnotationLines);
  M.counter("driver.specs_checked").add(R.Verification.NumSpecsChecked);
  M.counter("driver.procs_verified").add(R.Verification.Procs.size());
  M.counter("driver.triage_skipped").add(R.TriageSkipped);
  M.gauge("driver.parse_seconds").add(R.ParseSeconds);
  M.gauge("driver.validity_seconds").add(R.ValiditySeconds);
  M.gauge("driver.verify_seconds").add(R.VerifySeconds);
  M.gauge("driver.analysis_seconds").add(R.AnalysisSeconds);
  M.gauge("driver.validity_cpu_seconds").add(R.ValidityCpuSeconds);
  M.gauge("driver.verify_cpu_seconds").add(R.VerifyCpuSeconds);
}

} // namespace

SourceMetrics commcsl::measureSource(const std::string &Source) {
  SourceMetrics M;
  bool InBlockComment = false;
  bool InResource = false;
  int ResourceDepth = 0;
  for (const std::string &RawLine : split(Source, '\n')) {
    // Strip comments but keep code around them: a block comment may close
    // mid-line (`/* c */ x := 1` is a code line), open mid-line, or both,
    // and a `//` comment cuts the rest of the line.
    std::string Code;
    for (size_t I = 0; I < RawLine.size();) {
      if (InBlockComment) {
        size_t Close = RawLine.find("*/", I);
        if (Close == std::string::npos)
          break;
        InBlockComment = false;
        I = Close + 2;
      } else if (RawLine.compare(I, 2, "/*") == 0) {
        InBlockComment = true;
        I += 2;
      } else if (RawLine.compare(I, 2, "//") == 0) {
        break;
      } else {
        Code += RawLine[I++];
      }
    }
    std::string Line = trim(Code);
    if (Line.empty())
      continue;
    // Resource specifications count as annotations in their entirety.
    if (startsWith(Line, "resource ")) {
      InResource = true;
      ResourceDepth = 0;
    }
    bool IsAnnotation =
        InResource || startsWith(Line, "requires") ||
        startsWith(Line, "ensures") || startsWith(Line, "invariant") ||
        startsWith(Line, "assert") || startsWith(Line, "function ");
    if (InResource) {
      for (char C : Line) {
        if (C == '{')
          ++ResourceDepth;
        if (C == '}')
          --ResourceDepth;
      }
      if (ResourceDepth == 0 && Line.find('}') != std::string::npos)
        InResource = false;
    }
    if (IsAnnotation)
      ++M.AnnotationLines;
    else
      ++M.LinesOfCode;
  }
  return M;
}

ParsedUnit Driver::parseAndCheck(const std::string &Source,
                                 const std::string &Name) {
  ParsedUnit U;
  U.Name = Name;
  U.Metrics = measureSource(Source);
  Stopwatch T0;
  {
    TraceSpan Span("driver", "parse");
    U.Prog = std::make_shared<Program>(Parser::parse(Source, U.Diags));
    if (!U.Diags.hasErrors()) {
      TypeChecker Checker(*U.Prog, U.Diags);
      Checker.check();
    }
  }
  U.ParseSeconds = T0.seconds();
  U.Ok = !U.Diags.hasErrors();
  return U;
}

DriverResult Driver::verifySource(const std::string &Source,
                                  const std::string &Name) {
  return verifyParsed(parseAndCheck(Source, Name));
}

VerifierConfig Driver::verifierConfig() const {
  VerifierConfig VC = Options.Verifier;
  if (VC.Validity.Jobs == 0)
    VC.Validity.Jobs = Options.Jobs;
  return VC;
}

DriverResult Driver::verifyParsed(const ParsedUnit &Unit) {
  DriverResult R;
  R.Name = Unit.Name;
  R.Metrics = Unit.Metrics;
  R.Prog = Unit.Prog;
  R.Diags = Unit.Diags; // replayed parse/type-check diagnostics
  R.ParseSeconds = Unit.ParseSeconds;
  R.ParseOk = Unit.Ok;

  TraceSpan FileSpan("driver", [&] { return "verify " + R.Name; });

  if (!R.ParseOk) {
    flushDriverMetrics(R);
    return R;
  }

  Stopwatch T1;
  bool SpecsOk = true;
  if (!Options.Verifier.SkipValidityCheck) {
    for (SpecOutcome &Out : checkSpecs(*R.Prog)) {
      ++R.Verification.NumSpecsChecked;
      SpecsOk &= Out.Ok;
      R.Diags.append(Out.Diags);
      R.ValidityCpuSeconds += Out.Seconds;
      if (Out.Unit)
        R.Verification.SpecUnits.push_back(std::move(*Out.Unit));
    }
  }
  R.ValiditySeconds = T1.seconds();

  Stopwatch T2;
  bool ProcsOk = verifyProcs(R);
  R.VerifySeconds = T2.seconds();

  R.Verification.Ok = SpecsOk && ProcsOk;
  R.Verified = R.Verification.Ok;

  if (Options.Verifier.EmitCert || Options.Verifier.ForgeAcceptAll) {
    cert::Certificate C;
    C.ProgramName = R.Name;
    C.ProgramDigest = cert::fnv64(R.Prog->str());
    C.Verified = R.Verification.Ok;
    C.Specs = R.Verification.SpecUnits;
    for (const ProcVerdict &V : R.Verification.Procs)
      if (V.CertUnit)
        C.Procs.push_back(*V.CertUnit);
    R.Cert = cert::print(C);
  }

  flushDriverMetrics(R);
  return R;
}

std::vector<SpecOutcome> Driver::checkSpecs(const Program &Prog) {
  std::vector<SpecOutcome> Outcomes(Prog.Specs.size());
  if (Outcomes.empty())
    return Outcomes;
  const VerifierConfig VC = verifierConfig();
  TraceSpan Phase("driver", "validity");
  ThreadPool::shared().parallelForChunks(
      Prog.Specs.size(), ThreadPool::effectiveJobs(Options.Jobs),
      [&](uint64_t Begin, uint64_t End, unsigned) {
        for (uint64_t I = Begin; I < End; ++I) {
          const ResourceSpecDecl &Spec = Prog.Specs[I];
          TraceSpan Span("validity", [&] { return "spec " + Spec.Name; });
          Stopwatch S0;
          Outcomes[I].Ok = Verifier(Prog, Outcomes[I].Diags, VC)
                               .verifySpec(Spec, &Outcomes[I].Unit);
          Outcomes[I].Seconds = S0.seconds();
        }
      });
  return Outcomes;
}

bool Driver::verifyProcs(DriverResult &R) {
  const Program &Prog = *R.Prog;
  if (Prog.Procs.empty())
    return true;
  const VerifierConfig VC = verifierConfig();
  // A certificate covers every procedure, so the triage fast path (which
  // skips relational proofs, hence records no derivations) is disabled.
  const bool Triage =
      Options.Triage && !(VC.EmitCert || VC.ForgeAcceptAll);
  TraceSpan Phase("driver", "verify");
  struct ProcOutcome {
    ProcVerdict Verdict;
    DiagnosticEngine Diags;
    double Seconds = 0;
    double AnalysisSeconds = 0;
  };
  std::vector<ProcOutcome> Outcomes(Prog.Procs.size());
  ThreadPool::shared().parallelForChunks(
      Prog.Procs.size(), ThreadPool::effectiveJobs(Options.Jobs),
      [&](uint64_t Begin, uint64_t End, unsigned) {
        for (uint64_t I = Begin; I < End; ++I) {
          const ProcDecl &Proc = Prog.Procs[I];
          TraceSpan Span("verify", [&] { return "proc " + Proc.Name; });
          if (Triage) {
            // Fast path: a strict (verifier-approximating) taint proof
            // subsumes the relational proof on the triage fragment.
            TraceSpan TriageSpan("verify", "triage");
            Stopwatch A0;
            TaintConfig TC;
            TC.VerifierApprox = true;
            ProcTaintResult T = analyzeProcTaint(Prog, Proc, TC, nullptr);
            Outcomes[I].AnalysisSeconds = A0.seconds();
            if (T.Eligible && T.ProvablyLow) {
              Outcomes[I].Verdict.Proc = Proc.Name;
              Outcomes[I].Verdict.Ok = true;
              Outcomes[I].Verdict.SkippedByTriage = true;
              traceInstant("verify", "triage-skip", Proc.Name);
              continue;
            }
          }
          Stopwatch P0;
          Outcomes[I].Verdict =
              Verifier(Prog, Outcomes[I].Diags, VC).verifyProc(Proc);
          Outcomes[I].Seconds = P0.seconds();
        }
      });
  bool ProcsOk = true;
  for (ProcOutcome &Out : Outcomes) {
    ProcsOk &= Out.Verdict.Ok;
    R.Diags.append(Out.Diags);
    R.VerifyCpuSeconds += Out.Seconds;
    R.AnalysisSeconds += Out.AnalysisSeconds;
    R.TriageSkipped += Out.Verdict.SkippedByTriage ? 1 : 0;
    R.Verification.Procs.push_back(std::move(Out.Verdict));
  }
  return ProcsOk;
}

std::optional<std::string> commcsl::readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

DriverResult Driver::verifyFile(const std::string &Path) {
  std::optional<std::string> Source = readFile(Path);
  if (!Source) {
    DriverResult R;
    R.Name = Path;
    R.Diags.error(DiagCode::ParseError, SourceLoc(),
                  "cannot open file '" + Path + "'");
    return R;
  }
  return verifySource(*Source, Path);
}

NIReport Driver::runEmpirical(const Program &Prog,
                              const std::string &ProcName, NIConfig Config) {
  if (Config.Jobs == 0)
    Config.Jobs = Options.Jobs;
  return NonInterferenceHarness(Prog, ProcName, Config).run();
}

VerifyVerbOutput Driver::renderVerify(const DriverResult &R,
                                      const std::string &Name,
                                      const std::string &NIProc) {
  VerifyVerbOutput Out;
  if (!R.Verified)
    Out.Diagnostics = R.Diags.str(Name);
  Out.VerdictLine = formatVerdictLine(Name, R.Verified);
  Out.Ok = R.Verified;
  if (!NIProc.empty() && R.ParseOk) {
    NIReport Report = runEmpirical(*R.Prog, NIProc);
    Out.NIBlock = formatNIBlock(Report);
    Out.Ok &= Report.secure();
  }
  return Out;
}

std::string commcsl::formatVerdictLine(const std::string &Name,
                                       bool Verified) {
  return Name + (Verified ? ": verified\n" : ": REJECTED\n");
}

std::string commcsl::formatNIBlock(const NIReport &Report) {
  if (Report.secure())
    return "  empirical non-interference: no violation in " +
           std::to_string(Report.Runs) + " runs (" +
           std::to_string(Report.PairsCompared) + " pairs)\n";
  return "  empirical non-interference: VIOLATION after " +
         std::to_string(Report.Runs) + " runs\n" +
         Report.Violation->describe();
}
