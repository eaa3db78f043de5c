//===-- tests/service/SessionTest.cpp - Service session unit tests ---------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests of the serve daemon's Session layer: CLI-byte-identity
/// of reports, warm program and validity-verdict reuse across requests,
/// LRU eviction, and the per-verb surfaces. Wire-level
/// behavior lives in tests/hyperviper/ServeTest.cpp; this file pins the
/// semantics the wire merely transports.
///
//===----------------------------------------------------------------------===//

#include "service/Session.h"

#include "cert/Cert.h"
#include "cert/Check.h"
#include "hyperviper/Analyze.h"
#include "parser/Parser.h"
#include "support/trace/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace commcsl;

namespace {

const char *VerifiedProgram = R"(
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
  }
  procedure main(l: int) returns (out: int)
    requires low(l)
    ensures low(out)
  {
    share r: Counter := 0;
    atomic r { perform r.Add(l); }
    out := unshare r;
  }
)";

/// Like VerifiedProgram, but the action carries an `enabled` clause: the
/// differencing tier deliberately leaves enabled pairs to the bounded
/// tiers (enabledness restricts which interleavings are reachable), so a
/// cold request runs a real bounded validity check.
const char *MemoProgram = R"(
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) {
      apply(v, a) = v + a;
      enabled(v) = true;
      requires low(a);
    }
  }
  procedure main(l: int) returns (out: int)
    requires low(l)
    ensures low(out)
  {
    share r: Counter := 0;
    atomic r { perform r.Add(l); }
    out := unshare r;
  }
)";

const char *RejectedProgram =
    "procedure main(h: int) returns (out: int) ensures low(out) "
    "{ out := h; }";

const char *ParseErrorProgram = "procedure main( {";

/// The stable verdict-memo counters every Session request feeds.
uint64_t verdictsComputed() {
  return MetricsRegistry::global()
      .counter("validity.verdict_memo.computed")
      .value();
}
uint64_t verdictHits() {
  return MetricsRegistry::global().counter("validity.verdict_memo.hits").value();
}

ServiceRequest verifyRequest(const char *Source, const char *Name) {
  ServiceRequest R;
  R.V = ServiceRequest::Verb::Verify;
  R.Source = Source;
  R.Name = Name;
  return R;
}

} // namespace

TEST(SessionTest, VerifyReportMatchesOneShotDriverOutput) {
  // The contract: the session's Report is byte-identical to what the
  // one-shot CLI prints — assembled here from the independent Driver path.
  Session S;
  ServiceResponse Resp = S.handle(verifyRequest(VerifiedProgram, "ok.hv"));
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_EQ(Resp.Report, "ok.hv: verified\n");

  Driver D;
  DriverResult R = D.verifySource(RejectedProgram, "bad.hv");
  ASSERT_FALSE(R.Verified);
  ServiceResponse Bad = S.handle(verifyRequest(RejectedProgram, "bad.hv"));
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Exit, 1);
  EXPECT_EQ(Bad.Report, R.Diags.str("bad.hv") + "bad.hv: REJECTED\n");
}

TEST(SessionTest, WarmRequestsReplayProgramAndValidityVerdict) {
  Session S;
  uint64_t Computed0 = verdictsComputed(), Hits0 = verdictHits();
  ServiceResponse Cold = S.handle(verifyRequest(MemoProgram, "a.hv"));
  EXPECT_FALSE(Cold.ProgramCacheHit);
  ASSERT_TRUE(Cold.Ok);
  EXPECT_EQ(verdictsComputed(), Computed0 + 1); // the cold pass proved it
  EXPECT_EQ(verdictHits(), Hits0);

  Driver D;
  DriverResult R = D.verifySource(MemoProgram, "a.hv");
  ASSERT_TRUE(R.Verified);
  ServiceResponse Warm = S.handle(verifyRequest(MemoProgram, "a.hv"));
  EXPECT_TRUE(Warm.ProgramCacheHit);
  EXPECT_EQ(Warm.Report, Cold.Report); // byte-identical warm vs cold
  EXPECT_EQ(Warm.Report, formatVerdictLine("a.hv", R.Verified));
  // The one-shot driver above computed its own verdict; the warm request
  // replayed the session's.
  EXPECT_EQ(verdictsComputed(), Computed0 + 1);
  EXPECT_EQ(verdictHits(), Hits0 + 1);

  SessionStats Stats = S.stats();
  EXPECT_EQ(Stats.Requests, 2u);
  EXPECT_EQ(Stats.ProgramCacheHits, 1u);
  EXPECT_EQ(Stats.ProgramCacheMisses, 1u);
  EXPECT_EQ(Stats.ProgramsCached, 1u);
}

TEST(SessionTest, VerifyCertAndValidityVerbsShareOneVerdict) {
  // The verdict key leaves out EmitCert, so the three verbs the serve
  // stream sends for one source prove its spec once between them.
  Session S;
  uint64_t Computed0 = verdictsComputed(), Hits0 = verdictHits();
  ASSERT_TRUE(S.handle(verifyRequest(MemoProgram, "a.hv")).Ok);
  ServiceRequest C = verifyRequest(MemoProgram, "a.hv");
  C.EmitCert = true;
  ServiceResponse Cert = S.handle(C);
  ServiceRequest V = verifyRequest(MemoProgram, "a.hv");
  V.V = ServiceRequest::Verb::Validity;
  EXPECT_TRUE(S.handle(V).Ok);
  EXPECT_EQ(verdictsComputed(), Computed0 + 1);
  EXPECT_EQ(verdictHits(), Hits0 + 2);

  DriverOptions O;
  O.Verifier.EmitCert = true;
  EXPECT_EQ(Cert.Cert, Driver(O).verifySource(MemoProgram, "a.hv").Cert);
}

TEST(SessionTest, EvictedProgramRecomputesItsVerdict) {
  // The verdict memo lives in the program-cache entry: evicting the entry
  // frees it, so daemon memory stays bounded by MaxCachedPrograms.
  SessionOptions Opts;
  Opts.MaxCachedPrograms = 1;
  Session S(Opts);
  ServiceResponse First = S.handle(verifyRequest(MemoProgram, "a.hv"));
  ASSERT_TRUE(First.Ok);
  S.handle(verifyRequest(VerifiedProgram, "b.hv")); // evicts a.hv
  uint64_t Computed0 = verdictsComputed();
  ServiceResponse Again = S.handle(verifyRequest(MemoProgram, "a.hv"));
  EXPECT_FALSE(Again.ProgramCacheHit);
  EXPECT_EQ(verdictsComputed(), Computed0 + 1);
  EXPECT_EQ(Again.Report, First.Report);
}

TEST(SessionTest, ReportsIdenticalAtEveryJobCount) {
  Session S;
  ServiceRequest R1 = verifyRequest(VerifiedProgram, "j.hv");
  R1.Jobs = 1;
  ServiceRequest R3 = R1;
  R3.Jobs = 3;
  ServiceResponse A = S.handle(R1);
  ServiceResponse B = S.handle(R3);
  ServiceResponse C = S.handle(R1); // warm again at jobs 1
  EXPECT_EQ(A.Report, B.Report);
  EXPECT_EQ(A.Report, C.Report);
  EXPECT_EQ(A.Exit, B.Exit);
}

TEST(SessionTest, ConcurrentClientsGetIdenticalReports) {
  Session S;
  constexpr unsigned Clients = 4;
  std::vector<ServiceResponse> Resps(Clients);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      ServiceRequest R = verifyRequest(VerifiedProgram, "c.hv");
      R.Jobs = 1 + I % 3;
      Resps[I] = S.handle(R);
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I < Clients; ++I) {
    EXPECT_TRUE(Resps[I].Ok);
    EXPECT_EQ(Resps[I].Report, Resps[0].Report);
  }
  EXPECT_EQ(S.stats().Requests, Clients);
  EXPECT_EQ(S.stats().ProgramsCached, 1u); // racing parses collapse to one
}

TEST(SessionTest, LruEvictsStalestProgram) {
  // Capacity 0 caches nothing: every request parses afresh, and the
  // request that triggered the eviction still gets its answer.
  for (size_t Capacity : {1u, 0u}) {
    SessionOptions Opts;
    Opts.MaxCachedPrograms = Capacity;
    Session S(Opts);
    EXPECT_TRUE(S.handle(verifyRequest(VerifiedProgram, "a.hv")).Ok);
    S.handle(verifyRequest(RejectedProgram, "b.hv")); // evicts a.hv
    EXPECT_EQ(S.stats().ProgramsCached, Capacity);
    ServiceResponse Again = S.handle(verifyRequest(VerifiedProgram, "a.hv"));
    EXPECT_FALSE(Again.ProgramCacheHit) << Capacity; // evicted, re-parsed
    EXPECT_TRUE(Again.Ok) << Capacity;
  }
}

TEST(SessionTest, ValidityVerbReportsPerSpecVerdicts) {
  Session S;
  ServiceRequest R;
  R.V = ServiceRequest::Verb::Validity;
  R.Source = VerifiedProgram;
  R.Name = "v.hv";
  ServiceResponse Resp = S.handle(R);
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Report, "spec Counter: valid\n");

  R.Source = ParseErrorProgram;
  ServiceResponse Err = S.handle(R);
  EXPECT_FALSE(Err.Ok);
  EXPECT_EQ(Err.Exit, 1);
  EXPECT_NE(Err.Report.find("v.hv: REJECTED"), std::string::npos);
}

TEST(SessionTest, AnalyzeVerbMatchesAnalyzeSourceBlock) {
  Session S;
  ServiceRequest R;
  R.V = ServiceRequest::Verb::Analyze;
  R.Source = RejectedProgram;
  R.Name = "an.hv";
  ServiceResponse Resp = S.handle(R);
  AnalyzeResult Expected;
  Expected.Files.push_back(analyzeSourceBlock(RejectedProgram, "an.hv"));
  EXPECT_EQ(Resp.Report, Expected.str());
  EXPECT_EQ(Resp.Exit, 0); // analyze reports, it does not gate
}

TEST(SessionTest, NiVerbMatchesDriverEmpiricalBlock) {
  Session S;
  ServiceRequest R;
  R.V = ServiceRequest::Verb::NI;
  R.Source = VerifiedProgram;
  R.Name = "ni.hv";
  R.Proc = "main";
  ServiceResponse Resp = S.handle(R);
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_NE(
      Resp.Report.find("  empirical non-interference: no violation in"),
      std::string::npos);

  // Verify-with-NI appends the same block after the verdict line, exactly
  // as `hyperviper --ni main` does.
  ServiceRequest V = verifyRequest(VerifiedProgram, "ni.hv");
  V.Proc = "main";
  ServiceResponse Both = S.handle(V);
  EXPECT_EQ(Both.Report, std::string("ni.hv: verified\n") + Resp.Report);
}

TEST(SessionTest, WarmCertByteIdenticalToColdAndChecks) {
  // The warm-cache contract extends to certificates: a resubmitted source
  // (warm Program + memoized verdict) must return the exact bytes the
  // cold request produced, at any job count.
  Session S;
  ServiceRequest R = verifyRequest(VerifiedProgram, "cert.hv");
  R.EmitCert = true;
  ServiceResponse Cold = S.handle(R);
  ASSERT_TRUE(Cold.Ok);
  EXPECT_FALSE(Cold.ProgramCacheHit);
  ASSERT_FALSE(Cold.Cert.empty());

  ServiceResponse Warm = S.handle(R);
  EXPECT_TRUE(Warm.ProgramCacheHit);
  EXPECT_EQ(Warm.Cert, Cold.Cert);

  ServiceRequest R3 = R;
  R3.Jobs = 3;
  EXPECT_EQ(S.handle(R3).Cert, Cold.Cert);

  // And the bytes the service hands out survive the independent checker.
  std::string Err;
  std::optional<cert::Certificate> C = cert::parse(Cold.Cert, &Err);
  ASSERT_TRUE(C) << Err;
  Driver D;
  ParsedUnit Unit = D.parseAndCheck(VerifiedProgram, "cert.hv");
  ASSERT_TRUE(Unit.Ok);
  cert::CheckResult CR = cert::checkCertificate(*C, *Unit.Prog);
  EXPECT_TRUE(CR.Ok) << CR.Error;

  // Certificates are opt-in: a plain verify request carries none.
  EXPECT_TRUE(
      S.handle(verifyRequest(VerifiedProgram, "cert.hv")).Cert.empty());
}

TEST(SessionTest, RejectedProgramCertRecordsRejection) {
  Session S;
  ServiceRequest R = verifyRequest(RejectedProgram, "bad-cert.hv");
  R.EmitCert = true;
  ServiceResponse Resp = S.handle(R);
  EXPECT_FALSE(Resp.Ok);
  ASSERT_FALSE(Resp.Cert.empty());
  std::string Err;
  std::optional<cert::Certificate> C = cert::parse(Resp.Cert, &Err);
  ASSERT_TRUE(C) << Err;
  EXPECT_FALSE(C->Verified);

  // Parse failures have nothing to certify.
  ServiceRequest P = verifyRequest(ParseErrorProgram, "parse-err.hv");
  P.EmitCert = true;
  EXPECT_TRUE(S.handle(P).Cert.empty());
}

TEST(SessionTest, ResetCachesForcesColdPath) {
  Session S;
  S.handle(verifyRequest(VerifiedProgram, "r.hv"));
  S.resetCaches();
  EXPECT_EQ(S.stats().ProgramsCached, 0u);
  ServiceResponse Resp = S.handle(verifyRequest(VerifiedProgram, "r.hv"));
  EXPECT_FALSE(Resp.ProgramCacheHit);
  EXPECT_TRUE(Resp.Ok);
}

TEST(SessionTest, ResetUnderConcurrentLoadIsSafeAndDeterministic) {
  // `reset` may land while requests are in flight. Cached entries are
  // shared_ptrs, so an in-flight request keeps its program (and verdict
  // memo) alive even after the map is cleared — verdicts and report
  // bytes must be unaffected, only the cache temperature may change.
  Session S;
  ServiceResponse Reference = S.handle(verifyRequest(VerifiedProgram, "r.hv"));
  ASSERT_TRUE(Reference.Ok);

  constexpr unsigned Clients = 4;
  constexpr unsigned Rounds = 8;
  std::vector<std::vector<ServiceResponse>> Resps(
      Clients, std::vector<ServiceResponse>(Rounds));
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      for (unsigned J = 0; J < Rounds; ++J)
        Resps[I][J] = S.handle(verifyRequest(VerifiedProgram, "r.hv"));
    });
  std::thread Resetter([&] {
    for (unsigned J = 0; J < Rounds * 2; ++J) {
      S.resetCaches();
      std::this_thread::yield();
    }
  });
  for (std::thread &T : Threads)
    T.join();
  Resetter.join();

  for (unsigned I = 0; I < Clients; ++I)
    for (unsigned J = 0; J < Rounds; ++J) {
      EXPECT_TRUE(Resps[I][J].Ok);
      EXPECT_EQ(Resps[I][J].Report, Reference.Report);
    }
  // The session stays serviceable afterwards and the stats are coherent.
  EXPECT_EQ(S.stats().Requests, 1u + Clients * Rounds);
  ServiceResponse After = S.handle(verifyRequest(VerifiedProgram, "r.hv"));
  EXPECT_TRUE(After.Ok);
  EXPECT_EQ(After.Report, Reference.Report);
}

TEST(SessionTest, MaxStepsBudgetTimesOutAndLeavesCachesWarm) {
  Session S;
  // MemoProgram's enabled action forces the concrete tiers to run, so a
  // one-step cap must fire before they reach a verdict.
  ServiceRequest Budgeted = verifyRequest(MemoProgram, "b.hv");
  Budgeted.MaxSteps = 1;
  ServiceResponse Resp = S.handle(Budgeted);
  EXPECT_TRUE(Resp.TimedOut);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Exit, 1);

  // The parsed program stays cached, the cut-short verdict was not stored,
  // and an unbudgeted retry computes the normal verdict warm.
  uint64_t Computed0 = verdictsComputed();
  ServiceResponse Retry = S.handle(verifyRequest(MemoProgram, "b.hv"));
  EXPECT_TRUE(Retry.ProgramCacheHit);
  EXPECT_EQ(verdictsComputed(), Computed0 + 1);
  EXPECT_FALSE(Retry.TimedOut);
  EXPECT_TRUE(Retry.Ok);
  EXPECT_EQ(Retry.Report, "b.hv: verified\n");
}

TEST(SessionTest, GenerousBudgetDoesNotFire) {
  Session S;
  ServiceRequest R = verifyRequest(MemoProgram, "c.hv");
  R.BudgetMs = 600000;
  R.MaxSteps = 1000000000;
  ServiceResponse Resp = S.handle(R);
  EXPECT_FALSE(Resp.TimedOut);
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Report, "c.hv: verified\n");
}

TEST(SessionTest, ValidityVerbHonorsBudget) {
  Session S;
  ServiceRequest R = verifyRequest(MemoProgram, "d.hv");
  R.V = ServiceRequest::Verb::Validity;
  R.MaxSteps = 1;
  ServiceResponse Resp = S.handle(R);
  EXPECT_TRUE(Resp.TimedOut);
  EXPECT_FALSE(Resp.Ok);

  ServiceRequest Unbudgeted = verifyRequest(MemoProgram, "d.hv");
  Unbudgeted.V = ServiceRequest::Verb::Validity;
  ServiceResponse Ok = S.handle(Unbudgeted);
  EXPECT_FALSE(Ok.TimedOut);
  EXPECT_TRUE(Ok.Ok);
  EXPECT_NE(Ok.Report.find("spec Counter: valid"), std::string::npos);
}

TEST(SessionTest, NestingLimitIsAParseErrorAndAtLimitVerifies) {
  const unsigned Max = Parser::MaxNesting;
  auto Main = [](const std::string &Body) {
    return "procedure main(l: int) returns (out: int)\n"
           "  requires low(l)\n  ensures low(out)\n{\n  " +
           Body + "\n}\n";
  };
  // The statement, its right-hand side and each parenthesis open a level.
  auto Parens = [&](unsigned N) {
    return Main("out := " + std::string(N, '(') + "l" + std::string(N, ')') +
                ";");
  };
  auto Ifs = [&](unsigned N) {
    std::string Open, Close;
    for (unsigned I = 0; I < N; ++I) {
      Open += "if (l < 0) { ";
      Close += " }";
    }
    return Main("out := l; " + Open + "out := l;" + Close);
  };
  Session S;
  for (const std::string &At : {Parens(Max - 2), Ifs(Max - 2)}) {
    ServiceRequest R = verifyRequest(At.c_str(), "at.hv");
    R.Proc = "main";
    ServiceResponse Ok = S.handle(R);
    EXPECT_TRUE(Ok.Ok) << Ok.Report;
    EXPECT_EQ(Ok.Report.rfind("at.hv: verified\n", 0), 0u) << Ok.Report;
  }

  const std::string Limit = ": error [parse]: nesting exceeds the limit of " +
                            std::to_string(Max) + " levels\n";
  for (const std::string &Over : {Parens(Max - 1), Parens(20000)}) {
    ServiceResponse Bad = S.handle(verifyRequest(Over.c_str(), "over.hv"));
    EXPECT_FALSE(Bad.Ok);
    EXPECT_EQ(Bad.Exit, 1);
    EXPECT_EQ(Bad.Report, "over.hv:5:" + std::to_string(Max + 9) + Limit +
                              "over.hv: REJECTED\n");
  }
  ServiceResponse Bad = S.handle(verifyRequest(Ifs(5000).c_str(), "if.hv"));
  EXPECT_EQ(Bad.Exit, 1);
  EXPECT_NE(Bad.Report.find(Limit), std::string::npos);
}
