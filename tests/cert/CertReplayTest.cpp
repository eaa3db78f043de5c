//===-- tests/cert/CertReplayTest.cpp - Incremental replay and memo tests --===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker's two shortcuts against what they shortcut:
///
///  - the incremental query replay (`ProcReplay`: one undo-trail solver per
///    proc) against a reference that replays every query on a fresh
///    `CheckSolver`, over every committed certificate and a generated
///    campaign: identical verdicts and identical final pool sizes, and a
///    mutated certificate (flipped verdict, dropped or swapped context
///    fact) fails at the same query with the same message in both modes;
///  - the spec-unit check memo: a forged unit never hits a genuine entry,
///    and a hit returns the error text a recomputation would;
///
/// plus the count-based scaling contract: checking a long run of loops
/// assumes each fact about once, not once per query that sees it.
///
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"
#include "cert/Check.h"

#include "hyperviper/Driver.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"
#include "testgen/ProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace commcsl;
using namespace commcsl::cert;

namespace {

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

struct Case {
  std::string Name;
  std::shared_ptr<Program> Prog;
  Certificate Cert;
};

/// Every committed `*.hv.cert` with its program.
std::vector<Case> committedCases() {
  std::vector<Case> Cases;
  const std::filesystem::path Examples(COMMCSL_EXAMPLES_DIR);
  Driver D;
  for (const std::filesystem::path &Dir :
       {Examples, Examples / "broken",
        std::filesystem::path(COMMCSL_CORPUS_DIR)}) {
    std::vector<std::filesystem::path> Certs;
    for (const auto &DE : std::filesystem::directory_iterator(Dir))
      if (DE.is_regular_file() && DE.path().extension() == ".cert")
        Certs.push_back(DE.path());
    std::sort(Certs.begin(), Certs.end());
    for (const std::filesystem::path &CertPath : Certs) {
      std::filesystem::path ProgPath = CertPath;
      ProgPath.replace_extension(); // x.hv.cert -> x.hv
      ParsedUnit U = D.parseAndCheck(slurp(ProgPath), ProgPath.string());
      EXPECT_TRUE(U.Ok) << ProgPath;
      std::string Err;
      std::optional<Certificate> C = parse(slurp(CertPath), &Err);
      EXPECT_TRUE(C) << CertPath << ": " << Err;
      if (U.Ok && C)
        Cases.push_back({CertPath.filename().string(), U.Prog, std::move(*C)});
    }
  }
  return Cases;
}

/// The certificates of a 50-seed campaign (base seed 1), as the fuzz
/// oracle emits them.
std::vector<Case> campaignCases() {
  std::vector<Case> Cases;
  DriverOptions O;
  O.Jobs = 1;
  O.Verifier.EmitCert = true;
  for (uint64_t I = 0; I < 50; ++I) {
    GenConfig GC;
    GC.Seed = deriveSeed(1, I);
    GeneratedProgram GP = generateProgram(GC);
    DriverResult R = Driver(O).verifySource(GP.Source, "fuzz");
    EXPECT_TRUE(R.ParseOk) << "seed " << I;
    if (!R.ParseOk || R.Cert.empty())
      continue;
    std::string Err;
    std::optional<Certificate> C = parse(R.Cert, &Err);
    EXPECT_TRUE(C) << "seed " << I << ": " << Err;
    if (C)
      Cases.push_back({"seed " + std::to_string(I), R.Prog, std::move(*C)});
  }
  return Cases;
}

/// The reference replay: every query on a fresh solver that assumes the
/// query's whole context.
bool decideFresh(const CertProcUnit &P, const CertQuery &Q, TermPool &Pool) {
  CheckSolver S(Pool);
  for (uint32_t F : Q.Ctx)
    S.assume(P.Facts[F]);
  return Q.IsEq ? S.provesEq(Q.A, Q.B) : S.provesTrue(Q.A);
}

struct Replayed {
  std::vector<bool> Verdicts;
  size_t PoolSize = 0;
};

Replayed replayFresh(const CertProcUnit &P) {
  Replayed Out;
  TermPool Pool = P.Pool;
  for (const CertObligation &Ob : P.Obligations)
    for (const CertQuery &Q : Ob.Queries)
      Out.Verdicts.push_back(decideFresh(P, Q, Pool));
  Out.PoolSize = Pool.size();
  return Out;
}

Replayed replayIncremental(const CertProcUnit &P) {
  Replayed Out;
  TermPool Pool = P.Pool;
  ProcReplay Replay(P, Pool);
  for (const CertObligation &Ob : P.Obligations)
    for (const CertQuery &Q : Ob.Queries)
      Out.Verdicts.push_back(Replay.decide(Q));
  Out.PoolSize = Pool.size();
  return Out;
}

/// The first proc-unit failure a checker built on fresh replay reports
/// (empty when every proc unit checks), in the checker's wording.
std::string firstProcFailureFresh(const Certificate &C) {
  for (const CertProcUnit &P : C.Procs) {
    std::string Where = "proc '" + P.Name + "': ";
    TermPool Pool = P.Pool;
    bool AllObOk = true;
    for (const CertObligation &Ob : P.Obligations) {
      bool AllProved = true;
      for (size_t QI = 0; QI < Ob.Queries.size(); ++QI) {
        const CertQuery &Q = Ob.Queries[QI];
        bool Got = decideFresh(P, Q, Pool);
        if (Got != Q.Proved)
          return Where + "obligation '" + Ob.Label + "' query " +
                 std::to_string(QI) + " replays as " +
                 (Got ? "proved" : "refuted") + " but was recorded " +
                 (Q.Proved ? "proved" : "refuted");
        AllProved &= Q.Proved;
      }
      if (Ob.Ok != AllProved)
        return Where + "obligation '" + Ob.Label +
               "' status contradicts its queries";
      AllObOk &= Ob.Ok;
    }
    if (P.Ok != (AllObOk && !P.StructuralFail))
      return Where + "proc status contradicts its obligations";
  }
  return "";
}

void expectSameReplay(const Case &K) {
  for (const CertProcUnit &P : K.Cert.Procs) {
    Replayed Fresh = replayFresh(P);
    Replayed Incr = replayIncremental(P);
    EXPECT_EQ(Fresh.Verdicts, Incr.Verdicts) << K.Name << " proc " << P.Name;
    EXPECT_EQ(Fresh.PoolSize, Incr.PoolSize) << K.Name << " proc " << P.Name;
  }
}

/// Addresses one query of a certificate.
struct QueryAt {
  size_t Proc, Ob, Query;
};

std::vector<QueryAt> allQueries(const Certificate &C) {
  std::vector<QueryAt> Out;
  for (size_t P = 0; P < C.Procs.size(); ++P)
    for (size_t O = 0; O < C.Procs[P].Obligations.size(); ++O)
      for (size_t Q = 0; Q < C.Procs[P].Obligations[O].Queries.size(); ++Q)
        Out.push_back({P, O, Q});
  return Out;
}

template <typename Cert> auto &queryAt(Cert &C, const QueryAt &At) {
  return C.Procs[At.Proc].Obligations[At.Ob].Queries[At.Query];
}

/// Checks a mutated certificate with the real (incremental) checker and
/// expects the fresh-replay reference's outcome. Returns whether the
/// mutation was rejected.
bool expectSameOutcome(const Certificate &Mutated, const Case &K,
                       SpecCheckMemo &Memo, const std::string &What) {
  std::string Want = firstProcFailureFresh(Mutated);
  CheckResult Got = checkCertificate(Mutated, *K.Prog, &Memo);
  EXPECT_EQ(Got.Ok, Want.empty()) << K.Name << " " << What << ": "
                                  << Got.Error;
  if (!Want.empty()) {
    EXPECT_EQ(Got.Error, Want) << K.Name << " " << What;
  }
  return !Got.Ok;
}

struct MutationTally {
  unsigned Flips = 0, FlipsRejected = 0;
  unsigned Drops = 0, DropsRejected = 0;
  unsigned Swaps = 0;
};

/// Mutates up to three queries of \p K (first, middle, last): flips the
/// recorded verdict, drops a context fact, and swaps two context facts.
void mutateAndCompare(const Case &K, SpecCheckMemo &Memo, MutationTally &T) {
  std::vector<QueryAt> Qs = allQueries(K.Cert);
  if (Qs.empty())
    return;
  std::vector<QueryAt> Picks = {Qs.front(), Qs[Qs.size() / 2], Qs.back()};
  for (const QueryAt &At : Picks) {
    std::string Where = "query " + std::to_string(At.Proc) + "/" +
                        std::to_string(At.Ob) + "/" +
                        std::to_string(At.Query);
    Certificate M = K.Cert;
    queryAt(M, At).Proved = !queryAt(M, At).Proved;
    ++T.Flips;
    T.FlipsRejected += expectSameOutcome(M, K, Memo, "flip " + Where);

    size_t N = queryAt(K.Cert, At).Ctx.size();
    if (N >= 1) {
      M = K.Cert;
      std::vector<uint32_t> &Ctx = queryAt(M, At).Ctx;
      Ctx.erase(Ctx.begin() + N / 2);
      ++T.Drops;
      T.DropsRejected += expectSameOutcome(M, K, Memo, "drop " + Where);
    }
    if (N >= 2) {
      M = K.Cert;
      std::vector<uint32_t> &Ctx = queryAt(M, At).Ctx;
      std::swap(Ctx.front(), Ctx.back());
      ++T.Swaps;
      expectSameOutcome(M, K, Memo, "swap " + Where);
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Incremental replay equals fresh replay
//===----------------------------------------------------------------------===//

TEST(CertReplayTest, CommittedCertificatesReplayIdenticallyInBothModes) {
  std::vector<Case> Cases = committedCases();
  ASSERT_GE(Cases.size(), 40u) << "committed certificates went missing";
  for (const Case &K : Cases) {
    expectSameReplay(K);
    CheckResult R = checkCertificate(K.Cert, *K.Prog);
    EXPECT_TRUE(R.Ok) << K.Name << ": " << R.Error;
  }
}

TEST(CertReplayTest, CampaignCertificatesReplayIdenticallyInBothModes) {
  std::vector<Case> Cases = campaignCases();
  ASSERT_EQ(Cases.size(), 50u);
  for (const Case &K : Cases) {
    expectSameReplay(K);
    CheckResult R = checkCertificate(K.Cert, *K.Prog);
    EXPECT_TRUE(R.Ok) << K.Name << ": " << R.Error;
  }
}

TEST(CertReplayTest, MutatedCertificatesFailAlikeInBothModes) {
  std::vector<Case> Cases = committedCases();
  for (Case &K : campaignCases())
    Cases.push_back(std::move(K));
  SpecCheckMemo Memo; // spec units are untouched: check each once
  MutationTally T;
  for (const Case &K : Cases)
    mutateAndCompare(K, Memo, T);
  // A flipped verdict is always caught; dropping a context fact must be
  // caught somewhere, or the drop cases above test nothing.
  EXPECT_GT(T.Flips, 100u);
  EXPECT_EQ(T.FlipsRejected, T.Flips);
  EXPECT_GT(T.Drops, 50u);
  EXPECT_GT(T.DropsRejected, 0u);
  EXPECT_GT(T.Swaps, 20u);
}

TEST(CertReplayTest, UndoRestoresStateAcrossAssumptions) {
  // x = y is assumed, decided under, and undone; the solver must then
  // decide exactly as a fresh one, including after a contradiction.
  TermPool P;
  uint32_t X = P.sym(0, "x"), Y = P.sym(1, "y");
  uint32_t Fx = P.unary(UnaryOp::Neg, X), Fy = P.unary(UnaryOp::Neg, Y);
  CheckSolver S(P);
  CheckSolver::Mark M = S.mark();
  S.assumeEq(X, Y);
  EXPECT_TRUE(S.provesEq(Fx, Fy));
  S.assumeEq(X, P.intConst(1));
  S.assumeEq(Y, P.intConst(2));
  EXPECT_TRUE(S.inContradiction());
  S.undo(M);
  EXPECT_FALSE(S.inContradiction());
  EXPECT_FALSE(S.provesEq(Fx, Fy));
  EXPECT_FALSE(S.provesEq(X, P.intConst(1)));
  S.assumeLe(X, Y, 1);
  EXPECT_TRUE(S.provesTrue(P.mkNot(P.binary(BinaryOp::Le, Y, X))));
  S.undo(M);
  EXPECT_FALSE(S.provesTrue(P.mkNot(P.binary(BinaryOp::Le, Y, X))));
}

//===----------------------------------------------------------------------===//
// The spec-unit check memo
//===----------------------------------------------------------------------===//

namespace {

const char *ValidSpecProgram = R"(
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

/// Invalid (Def. 3.1 (B)): last write wins under the identity view.
const char *InvalidSpecProgram = R"(
  resource Racy {
    state: int;
    alpha(v) = v;
    unique action SetL(a: unit) { apply(v, a) = 3; }
    unique action SetR(a: unit) { apply(v, a) = 4; }
  }
  procedure main(l: int) returns (out: int) ensures low(out) { out := l; }
)";

struct Emitted {
  std::shared_ptr<Program> Prog;
  Certificate Cert;
};

Emitted emit(const char *Source) {
  DriverOptions O;
  O.Verifier.EmitCert = true;
  DriverResult R = Driver(O).verifySource(Source, "memo.hv");
  EXPECT_TRUE(R.ParseOk);
  std::string Err;
  std::optional<Certificate> C = parse(R.Cert, &Err);
  EXPECT_TRUE(C) << Err;
  return {R.Prog, C ? std::move(*C) : Certificate()};
}

class SpecCheckMemoTest : public ::testing::Test {
protected:
  void SetUp() override {
    counter("cert.spec_check_memo.hits").reset();
    counter("cert.spec_check_memo.computed").reset();
  }
  static Metric_Counter &counter(const char *Name) {
    return MetricsRegistry::global().counter(Name);
  }
  static uint64_t hits() {
    return counter("cert.spec_check_memo.hits").value();
  }
  static uint64_t computed() {
    return counter("cert.spec_check_memo.computed").value();
  }
};

} // namespace

TEST_F(SpecCheckMemoTest, ForgedDigestAfterGenuineUnitIsStillRejected) {
  Emitted E = emit(ValidSpecProgram);
  ASSERT_EQ(E.Cert.Specs.size(), 1u);
  SpecCheckMemo Memo;
  EXPECT_TRUE(checkCertificate(E.Cert, *E.Prog, &Memo).Ok);
  EXPECT_TRUE(checkCertificate(E.Cert, *E.Prog, &Memo).Ok);
  EXPECT_EQ(computed(), 1u);
  EXPECT_EQ(hits(), 1u);

  Certificate Forged = E.Cert;
  Forged.Specs[0].SampleDigest ^= 1;
  CheckResult Recomputed = checkCertificate(Forged, *E.Prog);
  ASSERT_FALSE(Recomputed.Ok);
  EXPECT_NE(Recomputed.Error.find("sample digest"), std::string::npos)
      << Recomputed.Error;

  CheckResult Miss = checkCertificate(Forged, *E.Prog, &Memo);
  EXPECT_EQ(computed(), 2u); // the forged unit has its own key
  CheckResult Hit = checkCertificate(Forged, *E.Prog, &Memo);
  EXPECT_EQ(hits(), 2u);
  EXPECT_FALSE(Miss.Ok);
  EXPECT_FALSE(Hit.Ok);
  EXPECT_EQ(Miss.Error, Recomputed.Error);
  EXPECT_EQ(Hit.Error, Recomputed.Error);
}

TEST_F(SpecCheckMemoTest, ForgedCounterexampleAfterGenuineUnitIsRejected) {
  Emitted E = emit(InvalidSpecProgram);
  ASSERT_EQ(E.Cert.Specs.size(), 1u);
  ASSERT_TRUE(E.Cert.Specs[0].CE.has_value());
  SpecCheckMemo Memo;
  CheckResult Genuine = checkCertificate(E.Cert, *E.Prog, &Memo);
  EXPECT_TRUE(Genuine.Ok) << Genuine.Error;

  // Both actions set the same constant: the pair commutes, so the
  // recorded counterexample no longer re-executes as a violation.
  Certificate Forged = E.Cert;
  Forged.Specs[0].CE->ActionB = Forged.Specs[0].CE->ActionA;
  CheckResult Recomputed = checkCertificate(Forged, *E.Prog);
  ASSERT_FALSE(Recomputed.Ok);
  EXPECT_NE(Recomputed.Error.find("counterexample"), std::string::npos)
      << Recomputed.Error;
  for (int Round = 0; Round < 2; ++Round) {
    CheckResult R = checkCertificate(Forged, *E.Prog, &Memo);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, Recomputed.Error);
  }
  EXPECT_EQ(computed(), 2u);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(SpecCheckMemoTest, DeclarationAndFunctionsArePartOfTheKey) {
  // The program digest normally rejects a certificate for another program
  // before any unit is checked; rebinding the digest reaches the memo with
  // a genuine unit against a different declaration or function set.
  Emitted E = emit(ValidSpecProgram);
  SpecCheckMemo Memo;
  EXPECT_TRUE(checkCertificate(E.Cert, *E.Prog, &Memo).Ok);
  EXPECT_EQ(computed(), 1u);

  auto Rebound = [&](const std::string &Source) {
    ParsedUnit U = Driver().parseAndCheck(Source, "memo.hv");
    EXPECT_TRUE(U.Ok);
    Certificate C = E.Cert;
    C.ProgramDigest = fnv64(U.Prog->str());
    return checkCertificate(C, *U.Prog, &Memo);
  };
  std::string Src = ValidSpecProgram;
  std::string Rescoped = Src;
  Rescoped.insert(Rescoped.find("shared action"), "scope int -2 .. 3;\n    ");
  CheckResult R = Rebound(Rescoped);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("scope"), std::string::npos) << R.Error;
  EXPECT_EQ(computed(), 2u);

  R = Rebound("function unused(x: int): int = x;\n" + Src);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(computed(), 3u);
  EXPECT_EQ(hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Scaling: assumptions are counted, not timed
//===----------------------------------------------------------------------===//

TEST(CertReplayScalingTest, LoopRunAssumesEachFactAboutOnce) {
  // 200 sequential loops (the perfbench `loops` family's shape): each
  // loop's queries see every earlier loop's facts, so a fresh solver per
  // query would assume a quadratic number of facts.
  std::string Source = "procedure main(l: int, h: int) returns (out: int)\n"
                       "  requires low(l)\n  ensures low(out)\n{\n"
                       "  var x: int := 0;\n";
  for (int I = 0; I < 200; ++I) {
    std::string V = "i" + std::to_string(I);
    Source += "  var " + V + ": int := 0;\n  while (" + V + " < l) invariant low(" +
              V + ") && low(x) { x := x + " + std::to_string(1 + I % 8) +
              "; " + V + " := " + V + " + 1; }\n";
  }
  Source += "  out := x;\n}\n";
  Emitted E = emit(Source.c_str());
  ASSERT_EQ(E.Cert.Procs.size(), 1u);
  const CertProcUnit &P = E.Cert.Procs[0];
  uint64_t Queries = 0, ContextFacts = 0;
  for (const CertObligation &Ob : P.Obligations)
    for (const CertQuery &Q : Ob.Queries) {
      ++Queries;
      ContextFacts += Q.Ctx.size();
    }
  ASSERT_GT(Queries, 200u);

  Metric_Counter &Assumed =
      MetricsRegistry::global().counter("cert.check.facts_assumed");
  Metric_Counter &Replayed =
      MetricsRegistry::global().counter("cert.check.queries");
  Assumed.reset();
  Replayed.reset();
  CheckResult R = checkCertificate(E.Cert, *E.Prog);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Replayed.value(), Queries);
  EXPECT_LE(Assumed.value(), 2 * (P.Facts.size() + Queries));
  // The bound is meaningful: fresh replay would assume every context.
  EXPECT_GT(ContextFacts, 20 * (P.Facts.size() + Queries));
}
