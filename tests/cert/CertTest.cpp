//===-- tests/cert/CertTest.cpp - Certificate format unit tests ------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the certificate subsystem: term-pool interning, canonical
/// printing and parsing (including malformed-input rejection), the
/// CheckSolver decision procedure, and — the trust story in miniature —
/// that tampering with any layer of an emitted certificate (digest, query
/// verdicts, spec validity, final verdict) makes the independent checker
/// reject it. The full-corpus round-trip and golden-byte properties live
/// in CertRoundTripTest.cpp and CertGoldenTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"
#include "cert/Check.h"

#include "hyperviper/Driver.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::cert;

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

const char *RejectedProgram =
    "procedure main(h: int) returns (out: int) ensures low(out) "
    "{ out := h; }";

/// Emits a certificate for \p Source and hands back both the parsed
/// document and the type-checked program it certifies.
std::optional<Certificate> emitCert(const char *Source, const char *Name,
                                    std::shared_ptr<Program> &ProgOut,
                                    bool Forge = false,
                                    bool InjectUnsound = false) {
  DriverOptions O;
  O.Verifier.EmitCert = true;
  O.Verifier.ForgeAcceptAll = Forge;
  O.Verifier.Validity.Absint.InjectUnsound = InjectUnsound;
  DriverResult R = Driver(O).verifySource(Source, Name);
  ProgOut = R.Prog;
  if (R.Cert.empty())
    return std::nullopt;
  std::string Err;
  std::optional<Certificate> C = parse(R.Cert, &Err);
  EXPECT_TRUE(C) << Err;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Term pool
//===----------------------------------------------------------------------===//

TEST(TermPoolTest, InterningSharesStructurallyEqualTerms) {
  TermPool P;
  uint32_t Three = P.intConst(3);
  EXPECT_EQ(P.intConst(3), Three);
  EXPECT_NE(P.intConst(4), Three);

  uint32_t X = P.sym(7, "x");
  EXPECT_EQ(P.sym(7, "x"), X);
  uint32_t Sum = P.binary(BinaryOp::Add, X, Three);
  EXPECT_EQ(P.binary(BinaryOp::Add, X, Three), Sum);
  EXPECT_NE(P.binary(BinaryOp::Add, Three, X), Sum); // no AC at intern time
  EXPECT_NE(P.binary(BinaryOp::Sub, X, Three), Sum);
}

TEST(TermPoolTest, MkNotReplicatesArenaNormalization) {
  TermPool P;
  EXPECT_TRUE(P.at(P.mkNot(P.boolConst(true))).isFalse());
  EXPECT_TRUE(P.at(P.mkNot(P.boolConst(false))).isTrue());
  uint32_t X = P.sym(1, "b");
  uint32_t NotX = P.mkNot(X);
  EXPECT_NE(NotX, X);
  EXPECT_EQ(P.mkNot(NotX), X); // double negation strips
  EXPECT_EQ(P.mkNot(X), NotX); // and interns stably
}

//===----------------------------------------------------------------------===//
// Printer / parser
//===----------------------------------------------------------------------===//

namespace {

/// A handcrafted certificate exercising every document feature: both unit
/// kinds, all three fact kinds, eq and truth queries with contexts, an
/// algebraic family, arg counts, and a counterexample.
Certificate sampleCert() {
  Certificate C;
  C.ProgramName = "sample.hv";
  C.ProgramDigest = 0x1234abcd5678ef00ULL;
  C.Verified = false;

  CertSpecUnit S;
  S.Name = "Counter";
  S.Valid = false;
  S.StatesCap = MinStatesCap;
  S.ArgsCap = MinArgsCap;
  S.NumStates = 5;
  S.NumAlphaPairs = 25;
  S.ArgCounts = {{"Add", 5}, {"Reset", 1}};
  S.SampleCount = SampleDraws;
  S.SampleDigest = 0xfeedULL;
  S.Fam = Family::AcUpdate;
  S.FamilyOp = "+";
  S.BoundedChecks = 40;
  CertCE CE;
  CE.P = CertCE::Prop::Commutativity;
  CE.ActionA = "Add";
  CE.ActionB = "Reset";
  S.CE = CE;
  CertAbsSection AS;
  AS.Unbounded = false;
  AS.NumComps = 2;
  AS.Templates = {{"Add", "(pair (+ %arg %g0) %g1)"}};
  CertAbsOb Ob1;
  Ob1.IsPre = true;
  Ob1.ActionA = "Add";
  Ob1.Tree = {"(= %x %x')", "", ""};
  AS.Obligations.push_back(std::move(Ob1));
  CertAbsOb Ob2;
  Ob2.IsPre = false;
  Ob2.ActionA = "Add";
  Ob2.ActionB = "Reset";
  Ob2.Tree = {""};
  AS.Obligations.push_back(std::move(Ob2));
  S.Absint = std::move(AS);
  C.Specs.push_back(std::move(S));

  CertProcUnit P;
  P.Name = "main";
  P.Ok = true;
  uint32_t X = P.Pool.sym(0, "x");
  uint32_t Y = P.Pool.sym(1, "y");
  uint32_t Three = P.Pool.intConst(3);
  P.Facts.push_back({CertFact::Kind::Eq, X, Three, 0});
  P.Facts.push_back({CertFact::Kind::True, P.Pool.boolConst(true), 0, 0});
  P.Facts.push_back({CertFact::Kind::Le, X, Y, -2});
  CertObligation Ob;
  Ob.Label = "postcondition";
  Ob.Ok = true;
  Ob.Queries.push_back({true, X, Three, true, {0, 2}});
  Ob.Queries.push_back(
      {false, P.Pool.binary(BinaryOp::Le, X, Y), 0, true, {2}});
  P.Obligations.push_back(std::move(Ob));
  C.Procs.push_back(std::move(P));
  return C;
}

} // namespace

TEST(CertPrintTest, RoundTripIsStructurallyEqualAndCanonical) {
  Certificate C = sampleCert();
  std::string Text = print(C);
  std::string Err;
  std::optional<Certificate> Back = parse(Text, &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_TRUE(structurallyEqual(C, *Back));
  // Canonical: re-printing the parse reproduces the exact bytes.
  EXPECT_EQ(print(*Back), Text);
}

TEST(CertPrintTest, StructuralEqualitySeesThroughPoolIdLayout) {
  Certificate A = sampleCert();
  Certificate B = sampleCert();
  EXPECT_TRUE(structurallyEqual(A, B));
  B.Procs[0].Facts[2].Bias = -1;
  EXPECT_FALSE(structurallyEqual(A, B));
  B = sampleCert();
  B.Specs[0].SampleDigest ^= 1;
  EXPECT_FALSE(structurallyEqual(A, B));
  B = sampleCert();
  B.Procs[0].Obligations[0].Queries[0].Proved = false;
  EXPECT_FALSE(structurallyEqual(A, B));
  B = sampleCert();
  B.Specs[0].Absint->Templates[0].second = "(+ %arg %g0)";
  EXPECT_FALSE(structurallyEqual(A, B));
  B = sampleCert();
  B.Specs[0].Absint->Obligations[0].Tree[0] = "(= %x %y)";
  EXPECT_FALSE(structurallyEqual(A, B));
}

TEST(CertParseTest, MalformedInputsAreErrorsNotCrashes) {
  std::string Err;
  EXPECT_FALSE(parse("", &Err));
  EXPECT_FALSE(parse("not a certificate", &Err));
  EXPECT_FALSE(parse("(cert", &Err)); // truncated
  std::string Text = print(sampleCert());
  EXPECT_FALSE(parse(Text.substr(0, Text.size() / 2), &Err));
  EXPECT_FALSE(Err.empty());
  // A dangling term back-reference must be caught, not dereferenced.
  EXPECT_FALSE(parse("(cert (name \"x\") (digest 0) (verified 0) "
                     "(proc (name \"p\") (ok 1) (pool) "
                     "(fact true @99)))",
                     &Err));
}

TEST(CertParseTest, IntegersMustBeWholeInRangeDecimals) {
  std::string Text = print(sampleCert());
  size_t At = Text.find("(caps ");
  ASSERT_NE(At, std::string::npos);
  At += 6;
  size_t Len = Text.find(' ', At) - At;
  for (const char *Bad : {"12x", "99999999999999999999", "-", "0x10"}) {
    std::string Err;
    std::string Forged = Text;
    Forged.replace(At, Len, Bad);
    EXPECT_FALSE(parse(Forged, &Err)) << Bad;
    EXPECT_NE(Err.find(std::string("bad integer '") + Bad + "'"),
              std::string::npos)
        << Err;
  }
}

//===----------------------------------------------------------------------===//
// CheckSolver
//===----------------------------------------------------------------------===//

TEST(CheckSolverTest, CongruenceClosurePropagatesThroughOperators) {
  TermPool P;
  CheckSolver S(P);
  uint32_t X = P.sym(0, "x");
  uint32_t Y = P.sym(1, "y");
  uint32_t Fx = P.unary(UnaryOp::Neg, X);
  uint32_t Fy = P.unary(UnaryOp::Neg, Y);
  EXPECT_FALSE(S.provesEq(Fx, Fy));
  S.assumeEq(X, Y);
  EXPECT_TRUE(S.provesEq(Fx, Fy));
  EXPECT_TRUE(S.provesEq(P.binary(BinaryOp::Add, X, X),
                         P.binary(BinaryOp::Add, Y, X)));
}

TEST(CheckSolverTest, DistinctConstantsContradict) {
  TermPool P;
  CheckSolver S(P);
  uint32_t X = P.sym(0, "x");
  S.assumeEq(X, P.intConst(3));
  EXPECT_FALSE(S.inContradiction());
  EXPECT_TRUE(S.provesEq(X, P.intConst(3)));
  EXPECT_FALSE(S.provesEq(X, P.intConst(4)));
  S.assumeEq(X, P.intConst(4));
  EXPECT_TRUE(S.inContradiction());
}

TEST(CheckSolverTest, DifferenceBoundsComposeAcrossTwoFacts) {
  TermPool P;
  CheckSolver S(P);
  uint32_t X = P.sym(0, "x");
  uint32_t Y = P.sym(1, "y");
  uint32_t Z = P.sym(2, "z");
  S.assumeLe(X, Y, 1); // x + 1 <= y
  S.assumeLe(Y, Z, 0); // y <= z
  EXPECT_TRUE(S.provesTrue(P.binary(BinaryOp::Le, X, Z)));
  // Strict comparisons reach the checker only in the arena's normalized
  // shapes: !(z <= x) <=> x + 1 <= z, composed from both facts.
  EXPECT_TRUE(S.provesTrue(P.mkNot(P.binary(BinaryOp::Le, Z, X))));
  EXPECT_FALSE(S.provesTrue(P.binary(BinaryOp::Le, Z, X)));
}

TEST(CheckSolverTest, ProvesTrueOfAssumedAndConstantFormulas) {
  TermPool P;
  CheckSolver S(P);
  EXPECT_TRUE(S.provesTrue(P.boolConst(true)));
  EXPECT_FALSE(S.provesTrue(P.boolConst(false)));
  uint32_t B = P.sym(0, "b");
  EXPECT_FALSE(S.provesTrue(B));
  S.assumeTrue(B);
  EXPECT_TRUE(S.provesTrue(B));
  EXPECT_FALSE(S.provesTrue(P.mkNot(B)));
}

//===----------------------------------------------------------------------===//
// Tamper resistance
//===----------------------------------------------------------------------===//

TEST(CertCheckTest, EmittedCertificatesPassBothVerdicts) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  EXPECT_TRUE(C->Verified);
  CheckResult R = checkCertificate(*C, *Prog);
  EXPECT_TRUE(R.Ok) << R.Error;

  std::shared_ptr<Program> BadProg;
  std::optional<Certificate> B =
      emitCert(RejectedProgram, "bad.hv", BadProg);
  ASSERT_TRUE(B && BadProg);
  EXPECT_FALSE(B->Verified);
  R = checkCertificate(*B, *BadProg);
  EXPECT_TRUE(R.Ok) << R.Error; // a *rejection* certificate also checks
}

TEST(CertCheckTest, TamperedDigestIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  C->ProgramDigest ^= 1;
  EXPECT_FALSE(checkCertificate(*C, *Prog).Ok);
}

TEST(CertCheckTest, TamperedQueryVerdictIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  ASSERT_FALSE(C->Procs.empty());
  bool Flipped = false;
  for (CertProcUnit &P : C->Procs)
    for (CertObligation &Ob : P.Obligations)
      for (CertQuery &Q : Ob.Queries)
        if (!Flipped && Q.Proved) {
          Q.Proved = false; // claim the solver failed where it succeeded
          Flipped = true;
        }
  ASSERT_TRUE(Flipped);
  CheckResult R = checkCertificate(*C, *Prog);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("query"), std::string::npos) << R.Error;
}

TEST(CertCheckTest, TamperedSpecValidityIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  ASSERT_FALSE(C->Specs.empty());
  C->Specs[0].Valid = false; // claim invalid without a counterexample
  EXPECT_FALSE(checkCertificate(*C, *Prog).Ok);
}

TEST(CertCheckTest, ShrunkUniverseCapsAreRejected) {
  // A forged certificate must not be able to weaken its own evidence base
  // by claiming a smaller swept universe than the checker's floors.
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  ASSERT_FALSE(C->Specs.empty());
  C->Specs[0].StatesCap = MinStatesCap - 1;
  EXPECT_FALSE(checkCertificate(*C, *Prog).Ok);
}

TEST(CertCheckTest, TamperedFinalVerdictIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(RejectedProgram, "bad.hv", Prog);
  ASSERT_TRUE(C && Prog);
  C->Verified = true; // units still record the rejection
  EXPECT_FALSE(checkCertificate(*C, *Prog).Ok);
}

TEST(CertCheckTest, ForgedAcceptAllCertificateIsRefuted) {
  // The end-to-end fault-injection contract: --inject accept-all makes the
  // verifier claim this leaky program verified, and the forged certificate
  // it emits cannot survive the independent checker.
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C =
      emitCert(RejectedProgram, "forged.hv", Prog, /*Forge=*/true);
  ASSERT_TRUE(C && Prog);
  EXPECT_TRUE(C->Verified); // the forged claim...
  CheckResult R = checkCertificate(*C, *Prog);
  EXPECT_FALSE(R.Ok) << "checker accepted a forged certificate";
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Differencing-tier evidence
//===----------------------------------------------------------------------===//

TEST(CertCheckTest, UnboundedCertificateIsAcceptedWithNoConcreteChecks) {
  // The flagship claim: the counter spec is proved for the *unbounded*
  // domains, the certificate records the proof, and the checker re-derives
  // and replays it — with the concrete tiers never having run.
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  ASSERT_FALSE(C->Specs.empty());
  ASSERT_TRUE(C->Specs[0].Absint.has_value());
  EXPECT_TRUE(C->Specs[0].Absint->Unbounded);
  EXPECT_EQ(C->Specs[0].BoundedChecks, 0u);
  EXPECT_EQ(C->Specs[0].RandomChecks, 0u);
  EXPECT_FALSE(C->Specs[0].Absint->Templates.empty());
  CheckResult R = checkCertificate(*C, *Prog);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(CertCheckTest, InjectedUnsoundTemplateIsRefuted) {
  // The seeded-fault contract for the differencing tier: --inject
  // absint-unsound corrupts the recorded update template after the proof
  // ran, so the verifier's verdict is honest but the certificate's
  // evidence is not — and re-derivation catches it.
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "unsound.hv", Prog,
                                          /*Forge=*/false,
                                          /*InjectUnsound=*/true);
  ASSERT_TRUE(C && Prog);
  ASSERT_FALSE(C->Specs.empty());
  ASSERT_TRUE(C->Specs[0].Absint.has_value());
  CheckResult R = checkCertificate(*C, *Prog);
  EXPECT_FALSE(R.Ok) << "checker accepted a corrupted update template";
  EXPECT_NE(R.Error.find("template"), std::string::npos) << R.Error;
}

TEST(CertCheckTest, TamperedAbsintEvidenceIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  ASSERT_TRUE(C && Prog);
  ASSERT_TRUE(C->Specs[0].Absint.has_value());
  ASSERT_FALSE(C->Specs[0].Absint->Obligations.empty());

  Certificate T = *C;
  T.Specs[0].Absint->NumComps += 1;
  EXPECT_FALSE(checkCertificate(T, *Prog).Ok);

  T = *C; // truncated split tree: structurally malformed, not replayable
  T.Specs[0].Absint->Obligations[0].Tree.clear();
  CheckResult R = checkCertificate(T, *Prog);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("tree"), std::string::npos) << R.Error;

  T = *C; // drop a proof while keeping the unbounded claim
  T.Specs[0].Absint->Obligations.clear();
  EXPECT_FALSE(checkCertificate(T, *Prog).Ok);

  T = *C; // rewrite a template to a constant (hand-rolled unsoundness)
  ASSERT_FALSE(T.Specs[0].Absint->Templates.empty());
  T.Specs[0].Absint->Templates[0].second = "42";
  EXPECT_FALSE(checkCertificate(T, *Prog).Ok);
}

TEST(CertCheckTest, CertificateBoundToOtherProgramIsRejected) {
  std::shared_ptr<Program> Prog;
  std::optional<Certificate> C = emitCert(VerifiedProgram, "ok.hv", Prog);
  std::shared_ptr<Program> Other;
  Driver D;
  ParsedUnit U = D.parseAndCheck(RejectedProgram, "other.hv");
  ASSERT_TRUE(U.Ok);
  ASSERT_TRUE(C && U.Prog);
  EXPECT_FALSE(checkCertificate(*C, *U.Prog).Ok);
}
