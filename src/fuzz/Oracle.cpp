//===-- fuzz/Oracle.cpp - Differential soundness oracle --------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/Analysis.h"
#include "cert/Check.h"
#include "hyperviper/Driver.h"
#include "lang/ExprEval.h"
#include "sem/Interp.h"
#include "sem/Scheduler.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <sstream>

using namespace commcsl;

const char *commcsl::oracleClassName(OracleClass C) {
  switch (C) {
  case OracleClass::Agree:
    return "agree";
  case OracleClass::SoundnessViolation:
    return "soundness-violation";
  case OracleClass::AnalysisUnsound:
    return "analysis-unsound";
  case OracleClass::CompletenessGap:
    return "completeness-gap";
  case OracleClass::CertInvalid:
    return "cert-invalid";
  case OracleClass::Flake:
    return "flake";
  case OracleClass::GeneratorInvalid:
    return "generator-invalid";
  }
  return "unknown";
}

std::optional<OracleClass> commcsl::oracleClassByName(const std::string &Name) {
  for (OracleClass C :
       {OracleClass::Agree, OracleClass::SoundnessViolation,
        OracleClass::AnalysisUnsound, OracleClass::CompletenessGap,
        OracleClass::CertInvalid, OracleClass::Flake,
        OracleClass::GeneratorInvalid})
    if (Name == oracleClassName(C))
      return C;
  return std::nullopt;
}

const char *commcsl::oracleFaultName(OracleFault F) {
  switch (F) {
  case OracleFault::None:
    return "none";
  case OracleFault::AcceptAll:
    return "accept-all";
  case OracleFault::RejectAll:
    return "reject-all";
  }
  return "unknown";
}

std::optional<OracleFault> commcsl::oracleFaultByName(const std::string &Name) {
  for (OracleFault F :
       {OracleFault::None, OracleFault::AcceptAll, OracleFault::RejectAll})
    if (Name == oracleFaultName(F))
      return F;
  return std::nullopt;
}

namespace {

/// Verdict 4: one fixed input vector run under every scheduler family. A
/// verified program's declared-low returns and public outputs must be
/// schedule-independent; this complements the NI sweep, which compares
/// across *inputs* and can miss a purely schedule-driven channel when all
/// sampled highs behave alike.
struct SchedDiffOutcome {
  bool Ran = false;
  bool Stable = true;
  std::string Kind; ///< "low-output mismatch", "abort", "deadlock",
                    ///< "step-limit" when !Stable
  std::string Detail;
};

SchedDiffOutcome runSchedulerDifferential(const Program &Prog,
                                          const NonInterferenceHarness &H,
                                          const ProcDecl &Proc,
                                          const OracleConfig &Config,
                                          uint64_t Seed) {
  SchedDiffOutcome Out;
  Out.Ran = true;

  std::mt19937_64 Rng(deriveSeed(Seed, 0x5C4Ed1FFull));
  std::vector<ValueRef> Inputs;
  for (const Param &P : Proc.Params)
    Inputs.push_back(P.Ty->toDomain(Config.NI.InputScope)->sample(Rng));

  std::vector<std::unique_ptr<Scheduler>> Scheds;
  Scheds.push_back(std::make_unique<RoundRobinScheduler>());
  for (unsigned R = 0; R < Config.SchedDiffSchedules; ++R)
    Scheds.push_back(std::make_unique<RandomScheduler>(Rng()));
  Scheds.push_back(std::make_unique<BurstScheduler>(Rng(), Config.NI.BurstLen));

  RunConfig RC;
  RC.MaxSteps = Config.NI.MaxSteps;
  Interpreter Interp(Prog, RC);

  // Conditionally-low returns are compared through their in-state level
  // guards, and runs are related only when they agree on what was
  // declassified (sameReleases): a run whose log differs from the
  // reference is incomparable rather than a mismatch — the NI harness's
  // delimited-release rule.
  bool HaveRef = false;
  std::vector<ValueRef> RefLow, RefCond;
  std::vector<Release> RefReleased;
  std::vector<uint8_t> RefGuards;
  std::string RefSched;
  for (auto &Sched : Scheds) {
    RunResult R = Interp.run(Proc.Name, Inputs, *Sched);
    if (R.St != RunResult::Status::Ok) {
      Out.Stable = false;
      Out.Kind = R.St == RunResult::Status::Deadlock    ? "deadlock"
                 : R.St == RunResult::Status::StepLimit ? "step-limit"
                                                        : "abort";
      Out.Detail = "scheduler " + Sched->name() + ": " + R.AbortReason;
      return Out;
    }
    std::vector<ValueRef> Low;
    for (size_t I : H.lowReturns())
      Low.push_back(R.Returns[I]);
    Low.insert(Low.end(), R.Outputs.begin(), R.Outputs.end());

    EvalEnv Env;
    for (size_t I = 0; I < Proc.Params.size(); ++I)
      Env[Proc.Params[I].Name] = Inputs[I];
    for (size_t I = 0; I < Proc.Returns.size() && I < R.Returns.size(); ++I)
      Env[Proc.Returns[I].Name] = R.Returns[I];
    ExprEvaluator Eval(&Prog);
    std::vector<uint8_t> Guards;
    std::vector<ValueRef> Cond;
    for (const NonInterferenceHarness::LevelSlot &LS : H.levelReturns()) {
      Guards.push_back(Eval.eval(*LS.Guard, Env)->getBool() ? 1 : 0);
      Cond.push_back(R.Returns[LS.Index]);
    }
    std::vector<Release> Released = std::move(R.Declassified);

    if (!HaveRef) {
      HaveRef = true;
      RefLow = std::move(Low);
      RefCond = std::move(Cond);
      RefGuards = std::move(Guards);
      RefReleased = std::move(Released);
      RefSched = Sched->name();
      continue;
    }
    if (!sameReleases(Released, RefReleased))
      continue; // incomparable under delimited release
    bool Equal = Low.size() == RefLow.size();
    for (size_t I = 0; Equal && I < Low.size(); ++I)
      Equal = Value::equal(Low[I], RefLow[I]);
    if (!Equal) {
      Out.Stable = false;
      Out.Kind = "low-output mismatch";
      Out.Detail = "same inputs, schedulers " + RefSched + " vs " +
                   Sched->name() + " disagree on low outputs";
      return Out;
    }
    for (size_t I = 0; I < Guards.size(); ++I) {
      if (Guards[I] != RefGuards[I]) {
        Out.Stable = false;
        Out.Kind = "level guard mismatch";
        Out.Detail = "same inputs, schedulers " + RefSched + " vs " +
                     Sched->name() +
                     " disagree on a conditional level guard";
        return Out;
      }
      if (Guards[I] && !Value::equal(Cond[I], RefCond[I])) {
        Out.Stable = false;
        Out.Kind = "low-output mismatch";
        Out.Detail = "same inputs, schedulers " + RefSched + " vs " +
                     Sched->name() +
                     " disagree on a conditionally-low return";
        return Out;
      }
    }
  }
  return Out;
}

} // namespace

DifferentialOracle::DifferentialOracle(OracleConfig Config)
    : Config(std::move(Config)),
      Verdicts(std::make_shared<SpecVerdictMemo>()),
      CertChecks(std::make_shared<cert::SpecCheckMemo>()) {}

OracleResult DifferentialOracle::evaluate(const std::string &Source,
                                          bool GenTainted,
                                          uint64_t Seed) const {
  OracleResult Res;
  OracleVerdicts &V = Res.Verdicts;
  V.GenTainted = GenTainted;

  DriverOptions DO;
  DO.Jobs = 1; // inner phases sequential; parallelism lives across seeds
  DO.Verifier.EmitCert = true; // verdict 6 replays the certificate
  DO.Verifier.VerdictMemo = Verdicts;
  Driver D(DO);
  DriverResult DR = D.verifySource(Source, "fuzz");
  V.ParseOk = DR.ParseOk;
  if (!DR.ParseOk) {
    Res.Class = OracleClass::GeneratorInvalid;
    std::ostringstream OS;
    OS << "parse/type-check failed";
    for (const Diagnostic &Diag : DR.Diags.diagnostics()) {
      if (Diag.Kind != DiagKind::Error)
        continue;
      OS << ": " << Diag.Message;
      break;
    }
    Res.Detail = OS.str();
    return Res;
  }

  V.Verified = DR.Verified;
  switch (Config.Inject) {
  case OracleFault::None:
    break;
  case OracleFault::AcceptAll:
    V.Injected = !DR.Verified;
    V.Verified = true;
    break;
  case OracleFault::RejectAll:
    V.Injected = DR.Verified;
    V.Verified = false;
    break;
  }

  // Verdict 5: the static pre-analysis. Runs on every well-typed program
  // (accepted or not) so the record is complete; only combines with the
  // empirical phases below. Deterministic, no seed involved.
  {
    ProgramStaticResult A = analyzeProgram(*DR.Prog);
    V.StaticRan = true;
    V.StaticSecure = A.ProvablyLow;
    if (!A.ProvablyLow && !A.Diags.diagnostics().empty())
      V.StaticDetail = A.Diags.diagnostics().front().Message;
  }

  // Verdict 6: certificate replay on the independent checker. Under an
  // injected accept-all fault, the forged run's certificate is the claim
  // on trial — the real verifier's honest certificate would vacuously
  // pass while the injected verdict lies.
  {
    std::string CertText = DR.Cert;
    if (Config.Inject == OracleFault::AcceptAll) {
      DriverOptions FO = DO;
      FO.Verifier.ForgeAcceptAll = true;
      CertText = Driver(FO).verifySource(Source, "fuzz").Cert;
    }
    if (!CertText.empty()) {
      V.CertRan = true;
      std::string PErr;
      std::optional<cert::Certificate> C = cert::parse(CertText, &PErr);
      if (!C) {
        V.CertOk = false;
        V.CertError = "certificate does not parse: " + PErr;
      } else {
        cert::CheckResult CR =
            cert::checkCertificate(*C, *DR.Prog, CertChecks.get());
        V.CertOk = CR.Ok;
        V.CertError = CR.Error;
      }
    }
  }

  NonInterferenceHarness Probe(*DR.Prog, Config.ProcName, Config.NI);
  if (!Probe.valid()) {
    Res.Class = OracleClass::GeneratorInvalid;
    Res.Detail = "no procedure named " + Config.ProcName;
    return Res;
  }

  if (!V.Verified) {
    // A certificate that fails to replay outranks agreement and
    // completeness classification: the emitted evidence contradicts the
    // AST-level re-derivation, which is an emitter or checker bug even
    // when the verdict itself is a (correct) rejection.
    if (V.CertRan && !V.CertOk) {
      Res.Class = OracleClass::CertInvalid;
      Res.Detail = "certificate fails the independent checker: " +
                   V.CertError;
      return Res;
    }
    // Rejected programs get no empirical phases: the rejection is either
    // correct (tainted) or a completeness gap, and neither needs a run to
    // diagnose.
    if (GenTainted) {
      Res.Class = OracleClass::Agree;
      Res.Detail = "tainted and rejected";
    } else {
      Res.Class = OracleClass::CompletenessGap;
      std::ostringstream OS;
      OS << "secure by construction but rejected";
      for (const Diagnostic &Diag : DR.Diags.diagnostics()) {
        if (Diag.Kind != DiagKind::Error)
          continue;
        OS << ": " << Diag.Message;
        break;
      }
      Res.Detail = OS.str();
    }
    return Res;
  }

  // Verified: Theorem 4.3 is now on the line. The empirical phases run
  // even for an accepted-tainted program (already a soundness violation by
  // itself) so the finding records whether a concrete leak was observed —
  // the shrinker preserves that evidence.
  NIConfig NC = Config.NI;
  NC.Seed = deriveSeed(Seed, 0x4E495F53ull);
  NC.Jobs = 1;
  NIReport NI = D.runEmpirical(*DR.Prog, Config.ProcName, NC);
  V.NIRan = true;
  V.NISecure = NI.secure();
  if (NI.Violation)
    V.NIKind = NI.Violation->Kind;

  SchedDiffOutcome SD =
      runSchedulerDifferential(*DR.Prog, Probe, *DR.Prog->findProc(Config.ProcName),
                               Config, Seed);
  V.SchedRan = SD.Ran;
  V.SchedStable = SD.Stable;
  V.SchedKind = SD.Kind;

  bool NILeak = !V.NISecure && V.NIKind != "step-limit";
  bool SchedLeak = !V.SchedStable && V.SchedKind != "step-limit";
  bool StepLimited = (!V.NISecure && V.NIKind == "step-limit") ||
                     (!V.SchedStable && V.SchedKind == "step-limit");
  V.EmpiricalLeak = NILeak || SchedLeak;

  // Verdict 5 cross-check, ahead of the verifier classes: a concrete
  // low-output mismatch on a statically provably-low program falsifies the
  // analysis no matter what the verifier said. Only the mismatch kinds are
  // flow evidence — aborts, deadlocks, and step-limit exhaustion reveal
  // nothing about information flow.
  bool LowMismatch = (!V.NISecure && V.NIKind == "low-output mismatch") ||
                     (!V.SchedStable && V.SchedKind == "low-output mismatch");
  if (V.StaticSecure && LowMismatch) {
    Res.Class = OracleClass::AnalysisUnsound;
    std::ostringstream OS;
    OS << "statically provably-low but ";
    if (!V.NISecure && V.NIKind == "low-output mismatch")
      OS << "NI sweep found " << V.NIKind << ": " << NI.Violation->Detail;
    else
      OS << "scheduler differential found " << V.SchedKind << ": "
         << SD.Detail;
    OS << " (the verifier accepted it too)";
    Res.Detail = OS.str();
    return Res;
  }

  if (GenTainted) {
    Res.Class = OracleClass::SoundnessViolation;
    Res.Detail = V.Injected
                     ? "injected acceptance of a generator-tainted program"
                     : "verifier accepted a generator-tainted program";
    if (NILeak)
      Res.Detail += "; NI sweep found " + V.NIKind;
    else if (SchedLeak)
      Res.Detail += "; scheduler differential found " + V.SchedKind;
    return Res;
  }
  if (NILeak) {
    Res.Class = OracleClass::SoundnessViolation;
    Res.Detail = "verified but NI sweep found " + V.NIKind + ": " +
                 NI.Violation->Detail;
    return Res;
  }
  if (SchedLeak) {
    Res.Class = OracleClass::SoundnessViolation;
    Res.Detail = "verified but scheduler differential found " + V.SchedKind +
                 ": " + SD.Detail;
    return Res;
  }
  // Verdict 6 cross-check, after the concrete-leak classes (a leak is the
  // stronger finding) and before Flake: the claimed acceptance must be
  // backed by a certificate the independent checker re-derives.
  if (V.CertRan && !V.CertOk) {
    Res.Class = OracleClass::CertInvalid;
    Res.Detail =
        "claimed verified but the certificate fails the independent "
        "checker: " +
        V.CertError;
    return Res;
  }
  if (StepLimited) {
    Res.Class = OracleClass::Flake;
    Res.Detail = "empirical phases hit the step budget (inconclusive)";
    return Res;
  }
  Res.Class = OracleClass::Agree;
  Res.Detail = V.Injected ? "injected acceptance of a secure program"
                          : "verified and empirically secure";
  return Res;
}
