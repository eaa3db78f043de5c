//===-- tests/fuzz/OracleTest.cpp - Differential oracle tests --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classification matrix of the differential oracle: every reachable
/// (taint, verifier outcome, empirical outcome) combination maps to the
/// documented OracleClass, fault injection flips the verifier verdict
/// without touching the empirical phases, and evaluation is deterministic.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "support/trace/Metrics.h"
#include "testgen/ProgramGen.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;

namespace {

/// Verifies and runs clean: low output computed from the low input only.
const char *SecureProgram = R"(
procedure main(l: int, h: int) returns (out: int)
  requires low(l)
  ensures low(out)
{
  var x: int := l + 1;
  out := x * 2;
}
)";

/// Direct leak: the verifier must reject it, and when fault injection
/// forces acceptance the NI sweep observes the leak.
const char *LeakyProgram = R"(
procedure main(l: int, h: int) returns (out: int)
  requires low(l)
  ensures low(out)
{
  out := h;
}
)";

/// Secure in every execution (out is always 1, a ring identity that also
/// holds under wrap-around) but beyond the entailment engine: the rewrite
/// rules collect like terms yet never distribute a product of sums, so
/// `(h+1)*(h+1)` stays an opaque atom and `low(out)` is unprovable. A
/// *genuine* completeness gap, unlike LeakyProgram above. The one shape
/// where an injected accept-all fault leaves no empirical trace — the
/// forged certificate is then the only witness.
const char *SecureButRejectedProgram = R"(
procedure main(l: int, h: int) returns (out: int)
  requires low(l)
  ensures low(out)
{
  out := (h + 1) * (h + 1) - h * h - 2 * h;
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Name round-trips (used by reports and corpus headers).
//===----------------------------------------------------------------------===//

TEST(OracleNamesTest, ClassNamesRoundTrip) {
  for (OracleClass C :
       {OracleClass::Agree, OracleClass::SoundnessViolation,
        OracleClass::CompletenessGap, OracleClass::CertInvalid,
        OracleClass::Flake, OracleClass::GeneratorInvalid}) {
    auto Back = oracleClassByName(oracleClassName(C));
    ASSERT_TRUE(Back.has_value()) << oracleClassName(C);
    EXPECT_EQ(*Back, C);
  }
  EXPECT_FALSE(oracleClassByName("bogus").has_value());
}

TEST(OracleNamesTest, FaultNamesRoundTrip) {
  for (OracleFault F :
       {OracleFault::None, OracleFault::AcceptAll, OracleFault::RejectAll}) {
    auto Back = oracleFaultByName(oracleFaultName(F));
    ASSERT_TRUE(Back.has_value()) << oracleFaultName(F);
    EXPECT_EQ(*Back, F);
  }
  EXPECT_FALSE(oracleFaultByName("bogus").has_value());
}

//===----------------------------------------------------------------------===//
// The classification matrix.
//===----------------------------------------------------------------------===//

TEST(OracleTest, SecureUntaintedAgrees) {
  DifferentialOracle Oracle;
  OracleResult R = Oracle.evaluate(SecureProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(R.Class, OracleClass::Agree) << R.Detail;
  EXPECT_TRUE(R.Verdicts.ParseOk);
  EXPECT_TRUE(R.Verdicts.Verified);
  EXPECT_FALSE(R.Verdicts.Injected);
  EXPECT_TRUE(R.Verdicts.NIRan);
  EXPECT_TRUE(R.Verdicts.NISecure);
  EXPECT_TRUE(R.Verdicts.SchedRan);
  EXPECT_TRUE(R.Verdicts.SchedStable);
  EXPECT_FALSE(R.Verdicts.EmpiricalLeak);
}

TEST(OracleTest, LeakyTaintedRejectedAgrees) {
  // Tainted + rejected is the other agreement cell: the verifier did its
  // job. No empirical phase runs on a rejected program.
  DifferentialOracle Oracle;
  OracleResult R = Oracle.evaluate(LeakyProgram, /*GenTainted=*/true, 7);
  EXPECT_EQ(R.Class, OracleClass::Agree) << R.Detail;
  EXPECT_FALSE(R.Verdicts.Verified);
  EXPECT_FALSE(R.Verdicts.NIRan);
  EXPECT_FALSE(R.Verdicts.SchedRan);
}

TEST(OracleTest, RejectedUntaintedIsCompletenessGap) {
  // A secure-by-claim program the verifier rejects: here the "claim" is
  // wrong on purpose (the program leaks), but the oracle only knows the
  // taint bit it is handed, so this exercises the completeness-gap cell.
  DifferentialOracle Oracle;
  OracleResult R = Oracle.evaluate(LeakyProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(R.Class, OracleClass::CompletenessGap) << R.Detail;
  EXPECT_NE(R.Detail.find("rejected"), std::string::npos) << R.Detail;
}

TEST(OracleTest, InjectedAcceptanceOfLeakIsSoundnessViolation) {
  OracleConfig Config;
  Config.Inject = OracleFault::AcceptAll;
  DifferentialOracle Oracle(Config);
  OracleResult R = Oracle.evaluate(LeakyProgram, /*GenTainted=*/true, 7);
  EXPECT_EQ(R.Class, OracleClass::SoundnessViolation) << R.Detail;
  EXPECT_TRUE(R.Verdicts.Injected);
  EXPECT_TRUE(R.Verdicts.Verified); // post-injection verdict
  // The empirical phases run even though the taint bit alone settles the
  // class: the concrete-leak evidence is what the shrinker preserves.
  EXPECT_TRUE(R.Verdicts.NIRan);
  EXPECT_TRUE(R.Verdicts.EmpiricalLeak);
  EXPECT_NE(R.Detail.find("injected"), std::string::npos) << R.Detail;
}

TEST(OracleTest, InjectedAcceptanceOfSecureProgramStillAgrees) {
  // AcceptAll on an already-verified secure program changes nothing: the
  // injection bit stays false-positive-free.
  OracleConfig Config;
  Config.Inject = OracleFault::AcceptAll;
  DifferentialOracle Oracle(Config);
  OracleResult R = Oracle.evaluate(SecureProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(R.Class, OracleClass::Agree) << R.Detail;
  EXPECT_FALSE(R.Verdicts.Injected);
}

TEST(OracleTest, InjectedRejectionOfSecureProgramIsCompletenessGap) {
  OracleConfig Config;
  Config.Inject = OracleFault::RejectAll;
  DifferentialOracle Oracle(Config);
  OracleResult R = Oracle.evaluate(SecureProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(R.Class, OracleClass::CompletenessGap) << R.Detail;
  EXPECT_TRUE(R.Verdicts.Injected);
  EXPECT_FALSE(R.Verdicts.Verified);
}

TEST(OracleTest, HonestCertificatesReplayClean) {
  // Verdict 6 in the quiet case: every honest evaluation emits a
  // certificate and the independent checker re-derives it — on accepted
  // and on rejected programs alike.
  DifferentialOracle Oracle;
  OracleResult A = Oracle.evaluate(SecureProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(A.Class, OracleClass::Agree) << A.Detail;
  EXPECT_TRUE(A.Verdicts.CertRan);
  EXPECT_TRUE(A.Verdicts.CertOk) << A.Verdicts.CertError;

  OracleResult B = Oracle.evaluate(LeakyProgram, /*GenTainted=*/true, 7);
  EXPECT_TRUE(B.Verdicts.CertRan);
  EXPECT_TRUE(B.Verdicts.CertOk) << B.Verdicts.CertError;
}

TEST(OracleTest, ForgedAcceptanceWithoutEmpiricalLeakIsCertInvalid) {
  // Honest baseline: a genuine completeness gap whose rejection
  // certificate checks out.
  DifferentialOracle Honest;
  OracleResult H =
      Honest.evaluate(SecureButRejectedProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(H.Class, OracleClass::CompletenessGap) << H.Detail;
  EXPECT_TRUE(H.Verdicts.CertRan);
  EXPECT_TRUE(H.Verdicts.CertOk) << H.Verdicts.CertError;

  // Accept-all injection on the same program: the empirical phases see
  // nothing (it really is secure), so without certificate replay the
  // fault would vanish into "agree". The forged certificate fails the
  // checker and the class is campaign-fatal cert-invalid.
  OracleConfig Config;
  Config.Inject = OracleFault::AcceptAll;
  DifferentialOracle Oracle(Config);
  OracleResult R =
      Oracle.evaluate(SecureButRejectedProgram, /*GenTainted=*/false, 7);
  EXPECT_EQ(R.Class, OracleClass::CertInvalid) << R.Detail;
  EXPECT_TRUE(R.Verdicts.Injected);
  EXPECT_TRUE(R.Verdicts.Verified);
  EXPECT_FALSE(R.Verdicts.EmpiricalLeak);
  EXPECT_TRUE(R.Verdicts.CertRan);
  EXPECT_FALSE(R.Verdicts.CertOk);
  EXPECT_FALSE(R.Verdicts.CertError.empty());
  EXPECT_NE(R.Detail.find("checker"), std::string::npos) << R.Detail;
}

TEST(OracleTest, UnparseableSourceIsGeneratorInvalid) {
  DifferentialOracle Oracle;
  OracleResult R = Oracle.evaluate("procedure main( {", false, 7);
  EXPECT_EQ(R.Class, OracleClass::GeneratorInvalid);
  EXPECT_FALSE(R.Verdicts.ParseOk);
  EXPECT_NE(R.Detail.find("parse"), std::string::npos) << R.Detail;
}

TEST(OracleTest, MissingEntryProcIsGeneratorInvalid) {
  DifferentialOracle Oracle;
  OracleResult R = Oracle.evaluate(R"(
    procedure helper() returns (out: int) { out := 0; }
  )",
                                   false, 7);
  EXPECT_EQ(R.Class, OracleClass::GeneratorInvalid);
  EXPECT_NE(R.Detail.find("main"), std::string::npos) << R.Detail;
}

//===----------------------------------------------------------------------===//
// Determinism and generated-program agreement.
//===----------------------------------------------------------------------===//

TEST(OracleTest, EvaluationIsDeterministic) {
  DifferentialOracle Oracle;
  for (uint64_t Seed : {1ull, 42ull, 999ull}) {
    OracleResult A = Oracle.evaluate(SecureProgram, false, Seed);
    OracleResult B = Oracle.evaluate(SecureProgram, false, Seed);
    EXPECT_EQ(A.Class, B.Class);
    EXPECT_EQ(A.Detail, B.Detail);
    EXPECT_EQ(A.Verdicts.EmpiricalLeak, B.Verdicts.EmpiricalLeak);
  }
}

TEST(OracleTest, RepeatedEvaluationReplaysMemoizedVerdicts) {
  // A shared counter: its spec is proved on the first evaluation and
  // replayed from the oracle's verdict memo on the second.
  const char *Shared = R"(
resource Counter {
  state: int;
  alpha(v) = v;
  shared action Add(a: int) {
    apply(v, a) = v + a;
    requires low(a);
  }
}

procedure main(l: int, h: int) returns (out: int)
  requires low(l)
  ensures low(out)
{
  share c: Counter := 0;
  par {
    atomic c { perform c.Add(l); }
  } and {
    atomic c { perform c.Add(1); }
  }
  out := unshare c;
}
)";
  MetricsRegistry &M = MetricsRegistry::global();
  Metric_Counter &Computed = M.counter("validity.verdict_memo.computed");
  Metric_Counter &Hits = M.counter("validity.verdict_memo.hits");
  DifferentialOracle Oracle;

  uint64_t C0 = Computed.value(), H0 = Hits.value();
  OracleResult A = Oracle.evaluate(Shared, false, 7);
  uint64_t C1 = Computed.value(), H1 = Hits.value();
  OracleResult B = Oracle.evaluate(Shared, false, 7);
  EXPECT_EQ(C1 - C0, 1u);
  EXPECT_EQ(H1 - H0, 0u);
  EXPECT_EQ(Computed.value(), C1) << "second evaluation re-proved the spec";
  EXPECT_EQ(Hits.value() - H1, 1u);

  EXPECT_EQ(A.Class, OracleClass::Agree) << A.Detail;
  EXPECT_TRUE(A.Verdicts.Verified);
  EXPECT_TRUE(A.Verdicts.CertRan);
  EXPECT_EQ(A.Class, B.Class);
  EXPECT_EQ(A.Detail, B.Detail);
  const OracleVerdicts &VA = A.Verdicts, &VB = B.Verdicts;
  EXPECT_EQ(VA.GenTainted, VB.GenTainted);
  EXPECT_EQ(VA.ParseOk, VB.ParseOk);
  EXPECT_EQ(VA.Verified, VB.Verified);
  EXPECT_EQ(VA.Injected, VB.Injected);
  EXPECT_EQ(VA.NIRan, VB.NIRan);
  EXPECT_EQ(VA.NISecure, VB.NISecure);
  EXPECT_EQ(VA.NIKind, VB.NIKind);
  EXPECT_EQ(VA.SchedRan, VB.SchedRan);
  EXPECT_EQ(VA.SchedStable, VB.SchedStable);
  EXPECT_EQ(VA.SchedKind, VB.SchedKind);
  EXPECT_EQ(VA.StaticRan, VB.StaticRan);
  EXPECT_EQ(VA.StaticSecure, VB.StaticSecure);
  EXPECT_EQ(VA.StaticDetail, VB.StaticDetail);
  EXPECT_EQ(VA.CertRan, VB.CertRan);
  EXPECT_EQ(VA.CertOk, VB.CertOk);
  EXPECT_EQ(VA.CertError, VB.CertError);
  EXPECT_EQ(VA.EmpiricalLeak, VB.EmpiricalLeak);
}

TEST(OracleTest, GeneratedSeedsAgree) {
  // A miniature campaign inline: generator taint and verifier verdict must
  // agree on every seed, leaky and secure alike.
  DifferentialOracle Oracle;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GenConfig GC;
    GC.Seed = Seed * 7919 + 1;
    GC.AllowLeakyOutput = true;
    GeneratedProgram GP = generateProgram(GC);
    OracleResult R = Oracle.evaluate(GP.Source, GP.OutputTainted, GC.Seed);
    EXPECT_EQ(R.Class, OracleClass::Agree)
        << "seed " << GC.Seed << " (" << oracleClassName(R.Class)
        << "): " << R.Detail << "\n"
        << GP.Source;
  }
}
