//===-- tests/support/SupportTest.cpp - Support library tests --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Frac.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace commcsl;

//===----------------------------------------------------------------------===//
// Frac
//===----------------------------------------------------------------------===//

TEST(FracTest, NormalizationOnConstruction) {
  Frac F = Frac::make(2, 4);
  EXPECT_EQ(F.Num, 1);
  EXPECT_EQ(F.Den, 2);
  EXPECT_EQ(F.str(), "1/2");
}

TEST(FracTest, Arithmetic) {
  Frac Half = Frac::make(1, 2);
  Frac Third = Frac::make(1, 3);
  Frac Sum = Half + Third;
  EXPECT_EQ(Sum, Frac::make(5, 6));
  EXPECT_EQ(Sum - Third, Half);
  EXPECT_TRUE((Half + Half).isOne());
  EXPECT_TRUE((Half - Half).isZero());
}

TEST(FracTest, DeepSplitsStayExact) {
  // The guard shares of a 32-deep par nest: cross-multiplying the
  // denominators (2^63) would overflow int64.
  Frac A = Frac::make(1, int64_t(1) << 31);
  Frac B = Frac::make(1, int64_t(1) << 32);
  EXPECT_EQ(A + B, Frac::make(3, int64_t(1) << 32));
  EXPECT_EQ((A + B) - B, A);
  EXPECT_EQ(Frac::make(1, int64_t(1) << 61).splitInto(2),
            Frac::make(1, int64_t(1) << 62));
}

TEST(FracTest, UnrepresentableResultsOverflow) {
  // 1/p + 1/q for coprime p, q near 2^62 needs a 124-bit denominator.
  Frac P = Frac::make(1, (int64_t(1) << 62) - 1);
  Frac Q = Frac::make(1, (int64_t(1) << 62) + 1);
  Frac Sum = P + Q;
  EXPECT_TRUE(Sum.isOverflow());
  EXPECT_EQ(Sum.str(), "<overflow>");
  // Overflow propagates and never satisfies a guard check.
  EXPECT_TRUE((Sum - Q).isOverflow());
  EXPECT_FALSE(Sum == Sum);
  EXPECT_FALSE(Sum < Frac::one());
  EXPECT_FALSE(Frac::one() < Sum);
  EXPECT_FALSE(Sum.isValidAmount());
  EXPECT_FALSE(Sum.isZero());
  EXPECT_TRUE(Frac::make(1, int64_t(1) << 62).splitInto(2).isOverflow());
}

TEST(FracTest, Ordering) {
  EXPECT_TRUE(Frac::make(1, 3) < Frac::make(1, 2));
  EXPECT_FALSE(Frac::make(1, 2) < Frac::make(1, 2));
  EXPECT_TRUE(Frac::make(1, 2) <= Frac::make(1, 2));
}

TEST(FracTest, ValidAmountRange) {
  EXPECT_TRUE(Frac::make(1, 2).isValidAmount());
  EXPECT_TRUE(Frac::one().isValidAmount());
  EXPECT_FALSE(Frac::zero().isValidAmount());
  EXPECT_FALSE(Frac::make(3, 2).isValidAmount());
}

TEST(FracTest, NegativeDenominatorNormalization) {
  // The sign moves onto the numerator; the denominator stays positive, so
  // every cross-multiplying comparison keeps its direction.
  Frac F = Frac::make(1, -2);
  EXPECT_EQ(F.Num, -1);
  EXPECT_EQ(F.Den, 2);
  EXPECT_EQ(F.str(), "-1/2");
  EXPECT_FALSE(F.isValidAmount());
  EXPECT_TRUE(F < Frac::zero());
  EXPECT_TRUE(F < Frac::make(1, 2));

  Frac G = Frac::make(-3, -6);
  EXPECT_EQ(G.Num, 1);
  EXPECT_EQ(G.Den, 2);
  EXPECT_EQ(G, Frac::make(1, 2));

  Frac Z = Frac::make(0, -5);
  EXPECT_EQ(Z.Num, 0);
  EXPECT_EQ(Z.Den, 1);
  EXPECT_TRUE(Z.isZero());
}

TEST(FracTest, OrderingNoOverflow) {
  // a ~ sqrt(2^63): naive int64 cross products overflow and flip the
  // comparison; the 128-bit compare stays exact. (a-1)/a < a/(a+1) since
  // (a-1)(a+1) = a^2 - 1 < a^2.
  const int64_t A = 3037000500;
  Frac Lo = Frac::make(A - 1, A);
  Frac Hi = Frac::make(A, A + 1);
  EXPECT_TRUE(Lo < Hi);
  EXPECT_FALSE(Hi < Lo);
  EXPECT_TRUE(Lo <= Hi);
  EXPECT_FALSE(Hi <= Lo);
}

TEST(FracTest, SplitIntoNths) {
  // 1 split into 4 quarters reassembles exactly — the par guard algebra.
  Frac Quarter = Frac::make(1, 4);
  Frac Acc = Frac::zero();
  for (int I = 0; I < 4; ++I)
    Acc = Acc + Quarter;
  EXPECT_TRUE(Acc.isOne());
}

//===----------------------------------------------------------------------===//
// String utilities
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  std::vector<std::string> Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("requires low(x)", "requires"));
  EXPECT_FALSE(startsWith("req", "requires"));
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, ErrorCountingAndCodes) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(DiagCode::TypeError, SourceLoc(1, 2), "w");
  EXPECT_FALSE(D.hasErrors());
  D.error(DiagCode::VerifyEntailment, SourceLoc(3, 4), "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::VerifyEntailment));
  EXPECT_FALSE(D.hasErrorWithCode(DiagCode::TypeError)); // only a warning
}

TEST(DiagnosticsTest, Rendering) {
  DiagnosticEngine D;
  D.error(DiagCode::ParseError, SourceLoc(7, 9), "unexpected token");
  std::string S = D.str("file.hv");
  EXPECT_NE(S.find("file.hv:7:9"), std::string::npos);
  EXPECT_NE(S.find("[parse]"), std::string::npos);
  EXPECT_NE(S.find("unexpected token"), std::string::npos);
}

TEST(DiagnosticsTest, EveryCodeHasAName) {
  for (int C = 0; C <= static_cast<int>(DiagCode::RuntimeAbort); ++C) {
    const char *Name = diagCodeName(static_cast<DiagCode>(C));
    EXPECT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "unknown");
  }
}

TEST(SourceLocTest, Printing) {
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(3, 14).str(), "3:14");
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_FALSE(SourceLoc().isValid());
}
