//===-- tests/integration/ClassificationAgreementTest.cpp ------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Agreement suite for the value-dependent-classification examples,
/// mirroring AbsintAgreementTest for the conditional-level fragment: the
/// relational verifier and the empirical NI harness must agree on every
/// conditional-level program, the NI report must be byte-identical at any
/// job count (level guards are evaluated in-state on both runs of the
/// product, so no schedule or thread count may change a verdict), and
/// `--triage` must be a pure fast path — identical verdicts and
/// diagnostics with the static analysis on or off.
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;

namespace {

struct ClassCase {
  const char *File;
  bool ExpectVerified;
};

/// The conditional-classification family: secure programs exercising
/// `level(x) = if .. then low else high` and `declassify`, plus the broken
/// variants (consent_ignored leaks only through a statically-unknown level
/// guard; the other two leak beside a legitimate declassification).
const ClassCase Cases[] = {
    {"value_dependent.hv", true},
    {"consent_telemetry.hv", true},
    {"sealed_auction.hv", true},
    {"vote_tally.hv", true},
    {"broken/consent_ignored.hv", false},
    {"broken/auction_bid_leak.hv", false},
    {"broken/tally_ballot_leak.hv", false},
};

std::string pathOf(const char *File) {
  return std::string(COMMCSL_EXAMPLES_DIR) + "/" + File;
}

NIConfig smokeConfig(unsigned Jobs) {
  NIConfig C;
  C.Trials = 4;
  C.HighSamples = 3;
  C.RandomSchedules = 2;
  C.Jobs = Jobs;
  return C;
}

class ClassificationCase : public ::testing::TestWithParam<ClassCase> {};

} // namespace

/// The verifier's verdict and the empirical harness agree: a proved
/// conditional-level program has no observable violation, at any job
/// count. (Rejected programs carry no agreement obligation — the harness
/// samples, it does not decide — but the sweep must still complete.)
TEST_P(ClassificationCase, VerifierAndHarnessAgree) {
  const ClassCase &C = GetParam();
  Driver D;
  DriverResult R = D.verifyFile(pathOf(C.File));
  ASSERT_TRUE(R.ParseOk) << R.Diags.str(C.File);
  EXPECT_EQ(R.Verified, C.ExpectVerified) << R.Diags.str(C.File);

  for (unsigned Jobs : {1u, 3u}) {
    NIReport Rep = D.runEmpirical(*R.Prog, "main", smokeConfig(Jobs));
    EXPECT_GT(Rep.Runs, 0u) << C.File;
    if (C.ExpectVerified)
      EXPECT_TRUE(Rep.secure())
          << C.File << " Jobs=" << Jobs << ": "
          << (Rep.Violation ? Rep.Violation->describe() : "");
  }
}

/// Byte-identity of the empirical report across job counts: same run and
/// pair counts, same violation (down to its rendered description) — the
/// trial RNG streams are keyed by trial index, not by worker.
TEST_P(ClassificationCase, NIReportIdenticalAcrossJobCounts) {
  const ClassCase &C = GetParam();
  Driver D;
  DriverResult R = D.verifyFile(pathOf(C.File));
  ASSERT_TRUE(R.ParseOk);

  NIReport R1 = D.runEmpirical(*R.Prog, "main", smokeConfig(1));
  NIReport R3 = D.runEmpirical(*R.Prog, "main", smokeConfig(3));
  EXPECT_EQ(R1.Runs, R3.Runs) << C.File;
  EXPECT_EQ(R1.PairsCompared, R3.PairsCompared) << C.File;
  ASSERT_EQ(R1.Violation.has_value(), R3.Violation.has_value()) << C.File;
  if (R1.Violation)
    EXPECT_EQ(R1.Violation->describe(), R3.Violation->describe()) << C.File;
}

/// Triage is a pure fast path: verdict and diagnostics are identical with
/// the static analysis on or off, at every job count. Conditional-level
/// procedures and declassify bodies are triage-ineligible by construction,
/// so triage must never skip its way into a different answer on this
/// family.
TEST_P(ClassificationCase, TriageOnOffVerdictsIdentical) {
  const ClassCase &C = GetParam();
  DriverOptions Off;
  Off.Jobs = 1;
  DriverResult Ref = Driver(Off).verifyFile(pathOf(C.File));
  ASSERT_TRUE(Ref.ParseOk);

  for (unsigned Jobs : {1u, 3u}) {
    DriverOptions On;
    On.Triage = true;
    On.Jobs = Jobs;
    DriverResult R = Driver(On).verifyFile(pathOf(C.File));
    EXPECT_EQ(R.Verified, Ref.Verified) << C.File << " Jobs=" << Jobs;
    EXPECT_EQ(R.Diags.str(C.File), Ref.Diags.str(C.File))
        << C.File << " Jobs=" << Jobs;
    // This family never qualifies for the strict-provably-low fast path:
    // its levels are value-dependent, which is exactly what the static
    // fragment refuses to decide.
    EXPECT_EQ(R.TriageSkipped, 0u) << C.File;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ClassificationCase,
                         ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<ClassCase> &I) {
                           std::string N = I.param.File;
                           for (char &C : N)
                             if (C == '/' || C == '.')
                               C = '_';
                           return N;
                         });
