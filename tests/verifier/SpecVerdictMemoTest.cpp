//===-- tests/verifier/SpecVerdictMemoTest.cpp - Verdict memo tests --------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-keyed validity-verdict memo: a repeated spec is proved once
/// and replays the same verdict and certificate; every result-relevant
/// input is part of the key; diagnostics follow the current declaration;
/// budget timeouts are never stored; concurrent misses compute once, and a
/// caller that may not wait computes privately.
///
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "hyperviper/Driver.h"
#include "support/trace/Metrics.h"
#include "tests/common/TestUtil.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

/// Valid: the abstraction goes through a function that forgets the state.
const char *ForgetfulSpec = R"(
function view(x: int): int = 0;

resource Racy {
  state: int;
  alpha(v) = view(v);
  unique action SetL(a: unit) { apply(v, a) = 3; }
  unique action SetR(a: unit) { apply(v, a) = 4; }
}
)";

/// Invalid (Def. 3.1 (B)): last write wins under the identity view.
const char *RacySpec = R"(
resource Racy {
  state: int;
  alpha(v) = v;
  unique action SetL(a: unit) { apply(v, a) = 3; }
  unique action SetR(a: unit) { apply(v, a) = 4; }
}
)";

/// Checks the first spec of \p Source; collects its diagnostics.
bool checkSpec(const std::string &Source, const VerifierConfig &Cfg,
               DiagnosticEngine &Diags) {
  Program P = parseChecked(Source);
  Verifier V(P, Diags, Cfg);
  return V.verifySpec(P.Specs.front());
}

bool checkSpec(const std::string &Source, const VerifierConfig &Cfg) {
  DiagnosticEngine Diags;
  return checkSpec(Source, Cfg, Diags);
}

VerifierConfig memoConfig() {
  VerifierConfig Cfg;
  Cfg.VerdictMemo = std::make_shared<SpecVerdictMemo>();
  return Cfg;
}

std::string replace(std::string S, const std::string &From,
                    const std::string &To) {
  size_t At = S.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  return S.replace(At, From.size(), To);
}

/// Reads the memo's counters from the metrics registry, zeroed per test.
class SpecVerdictMemoTest : public ::testing::Test {
protected:
  void SetUp() override {
    computedCounter().reset();
    hitsCounter().reset();
  }
  static Metric_Counter &computedCounter() {
    return MetricsRegistry::global().counter("validity.verdict_memo.computed");
  }
  static Metric_Counter &hitsCounter() {
    return MetricsRegistry::global().counter("validity.verdict_memo.hits");
  }
  static uint64_t computed() { return computedCounter().value(); }
  static uint64_t hits() { return hitsCounter().value(); }
};

} // namespace

TEST_F(SpecVerdictMemoTest, RepeatedSpecIsProvedOnceWithIdenticalCertificate) {
  // The same spec under two different procedures: one computation, and the
  // replayed certificate unit is byte-identical to a memo-less run.
  const std::string A = std::string(ForgetfulSpec) + R"(
procedure main(h: int) returns (s: int) ensures low(s) { s := 1; }
)";
  const std::string B = std::string(ForgetfulSpec) + R"(
procedure main(h: int) returns (s: int) ensures low(s) { s := 2; }
)";
  DriverOptions Plain;
  Plain.Jobs = 1;
  Plain.Verifier.EmitCert = true;
  DriverOptions Memo = Plain;
  Memo.Verifier.VerdictMemo = std::make_shared<SpecVerdictMemo>();
  for (const std::string &Src : {A, B}) {
    DriverResult Ref = Driver(Plain).verifySource(Src, "p");
    DriverResult Got = Driver(Memo).verifySource(Src, "p");
    EXPECT_TRUE(Got.Verified) << Got.Diags.str();
    EXPECT_EQ(Got.Verified, Ref.Verified);
    EXPECT_EQ(Got.Diags.str(), Ref.Diags.str());
    EXPECT_EQ(Got.Cert, Ref.Cert);
  }
  EXPECT_EQ(computed(), 1u);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(SpecVerdictMemoTest, ResultRelevantChangesRecompute) {
  VerifierConfig Cfg = memoConfig();
  EXPECT_TRUE(checkSpec(ForgetfulSpec, Cfg));
  ASSERT_EQ(computed(), 1u);

  // Knobs documented not to change a result share the entry, as does a
  // budget that never fires.
  VerifierConfig Same = Cfg;
  Same.Validity.Jobs = 3;
  Same.Validity.Budget = std::make_shared<CheckBudget>(0, 0);
  EXPECT_TRUE(checkSpec(ForgetfulSpec, Same));
  EXPECT_EQ(computed(), 1u);

  // A scope bound.
  checkSpec(replace(ForgetfulSpec, "alpha(v) = view(v);",
                    "alpha(v) = view(v);\n  scope int -1 .. 1;"),
            Cfg);
  EXPECT_EQ(computed(), 2u);

  // The body of a called function: now the view keeps the racy state.
  EXPECT_FALSE(checkSpec(replace(ForgetfulSpec, "= 0;", "= x;"), Cfg));
  EXPECT_EQ(computed(), 3u);

  // Abstract-tier fault injection (it corrupts the certificate unit).
  VerifierConfig Inject = Cfg;
  Inject.Validity.Absint.InjectUnsound = true;
  checkSpec(ForgetfulSpec, Inject);
  EXPECT_EQ(computed(), 4u);

  // The accept-all fault: the invalid spec is computed honestly once, then
  // again for the forged claim.
  EXPECT_FALSE(checkSpec(RacySpec, Cfg));
  EXPECT_EQ(computed(), 5u);
  VerifierConfig Forge = Cfg;
  Forge.ForgeAcceptAll = true;
  EXPECT_TRUE(checkSpec(RacySpec, Forge));
  EXPECT_EQ(computed(), 6u);
  EXPECT_FALSE(checkSpec(RacySpec, Cfg));
  EXPECT_EQ(computed(), 6u);
}

TEST_F(SpecVerdictMemoTest, InvalidSpecReportsItsCurrentLocation) {
  VerifierConfig Cfg = memoConfig();
  const std::string Moved = "\n\n\n" + replace(RacySpec, "resource Racy",
                                               "   resource Racy");
  DiagnosticEngine First, Second;
  EXPECT_FALSE(checkSpec(RacySpec, Cfg, First));
  EXPECT_FALSE(checkSpec(Moved, Cfg, Second));
  EXPECT_EQ(computed(), 1u);
  EXPECT_EQ(hits(), 1u);

  ASSERT_EQ(First.diagnostics().size(), 1u);
  ASSERT_EQ(Second.diagnostics().size(), 1u);
  const Diagnostic &D1 = First.diagnostics().front();
  const Diagnostic &D2 = Second.diagnostics().front();
  EXPECT_EQ(D1.Code, DiagCode::SpecInvalidCommutes);
  EXPECT_EQ(D2.Code, D1.Code);
  EXPECT_EQ(D2.Message, D1.Message);
  EXPECT_EQ(D1.Loc.Line, 2u);
  EXPECT_EQ(D1.Loc.Column, 1u);
  EXPECT_EQ(D2.Loc.Line, 5u);
  EXPECT_EQ(D2.Loc.Column, 4u);
}

TEST_F(SpecVerdictMemoTest, TimedOutCheckIsNotStored) {
  const char *Counter = R"(
resource Counter {
  state: int;
  alpha(v) = v;
  shared action Add(a: int) {
    apply(v, a) = v + a;
    requires low(a);
  }
}
)";
  VerifierConfig Cfg = memoConfig();
  Cfg.Validity.RunAbsintTier = false; // the concrete tiers do the work
  VerifierConfig Budgeted = Cfg;
  Budgeted.Validity.Budget = std::make_shared<CheckBudget>(0, 1);

  DiagnosticEngine Diags;
  EXPECT_FALSE(checkSpec(Counter, Budgeted, Diags));
  EXPECT_TRUE(Diags.hasErrorWithCode(DiagCode::SpecCheckTimeout))
      << Diags.str();
  EXPECT_EQ(computed(), 1u);

  // Same key without a budget: the real verdict, computed afresh, and
  // stored from then on.
  EXPECT_TRUE(checkSpec(Counter, Cfg));
  EXPECT_EQ(computed(), 2u);
  EXPECT_TRUE(checkSpec(Counter, Budgeted));
  EXPECT_EQ(computed(), 2u);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(SpecVerdictMemoTest, ConcurrentMissesComputeOnce) {
  SpecVerdictMemo Memo;
  std::atomic<unsigned> Runs{0};
  auto Compute = [&] {
    ++Runs;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    SpecVerdict V;
    V.Valid = true;
    return V;
  };
  constexpr unsigned Threads = 8;
  std::vector<std::shared_ptr<const SpecVerdict>> Got(Threads);
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&, I] { Got[I] = Memo.getOrCompute("k", Compute); });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Runs.load(), 1u);
  EXPECT_EQ(computed(), 1u);
  EXPECT_EQ(hits(), Threads - 1);
  for (const auto &V : Got) {
    ASSERT_TRUE(V);
    EXPECT_EQ(V, Got.front());
    EXPECT_TRUE(V->Valid);
  }
}

TEST_F(SpecVerdictMemoTest, CallerThatMayNotWaitComputesPrivately) {
  // A budgeted caller must not wait on another caller's computation: it
  // computes on its own and stores nothing. The owner's value is stored.
  SpecVerdictMemo Memo;
  std::mutex Mu;
  std::condition_variable Cv;
  bool OwnerStarted = false, Release = false;
  std::thread Owner([&] {
    Memo.getOrCompute("k", [&] {
      std::unique_lock<std::mutex> Lock(Mu);
      OwnerStarted = true;
      Cv.notify_all();
      // Bounded, so a memo that made the caller below wait shows up as a
      // wrong value rather than a hang.
      Cv.wait_for(Lock, std::chrono::seconds(10), [&] { return Release; });
      SpecVerdict V;
      V.Valid = true;
      return V;
    });
  });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return OwnerStarted; });
  }

  std::shared_ptr<const SpecVerdict> Private = Memo.getOrCompute(
      "k", [] { return SpecVerdict(); }, /*MayWait=*/false);
  ASSERT_TRUE(Private);
  EXPECT_FALSE(Private->Valid);
  EXPECT_EQ(computed(), 2u);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    Release = true;
  }
  Cv.notify_all();
  Owner.join();
  std::shared_ptr<const SpecVerdict> Stored =
      Memo.getOrCompute("k", [] { return SpecVerdict(); });
  EXPECT_TRUE(Stored->Valid);
  EXPECT_EQ(computed(), 2u);
  EXPECT_EQ(hits(), 1u);
}
