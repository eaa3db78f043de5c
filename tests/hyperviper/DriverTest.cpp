//===-- tests/hyperviper/DriverTest.cpp - Driver tests --------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include <gtest/gtest.h>

using namespace commcsl;

//===----------------------------------------------------------------------===//
// Source metrics (the Table 1 LOC / Ann. columns)
//===----------------------------------------------------------------------===//

TEST(DriverTest, MetricsCountAnnotationsSeparately) {
  SourceMetrics M = measureSource(R"(
    // a comment line (ignored)
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }

    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var x: int := l;   /* trailing block comment line counts as code */
      assert x == l;
      out := x;
    }
  )");
  // Annotations: 5 resource lines + requires + ensures + assert = 8.
  EXPECT_EQ(M.AnnotationLines, 8u);
  // Code: procedure header, braces, var decl, assignment = 5.
  EXPECT_EQ(M.LinesOfCode, 5u);
}

TEST(DriverTest, MetricsSkipBlockComments) {
  SourceMetrics M = measureSource("/* a\nb\nc */\nprocedure main() { skip; }");
  EXPECT_EQ(M.LinesOfCode, 1u);
  EXPECT_EQ(M.AnnotationLines, 0u);
}

TEST(DriverTest, MetricsCountCodeAfterClosingBlockComment) {
  // Regression: code following `*/` on the same line used to be dropped
  // entirely, skewing the Table 1 LOC column.
  SourceMetrics M = measureSource("/* c */ x := 1;");
  EXPECT_EQ(M.LinesOfCode, 1u);
  EXPECT_EQ(M.AnnotationLines, 0u);

  // The multi-line variant: the closing line carries code.
  SourceMetrics M2 = measureSource("/* a\nb */ x := 1;\ny := 2;");
  EXPECT_EQ(M2.LinesOfCode, 2u);

  // Annotations after a comment are classified as annotations.
  SourceMetrics M3 = measureSource("/* why */ requires low(x)");
  EXPECT_EQ(M3.AnnotationLines, 1u);
  EXPECT_EQ(M3.LinesOfCode, 0u);

  // A line that is swallowed whole by comments still counts as nothing,
  // and a comment opening mid-line keeps the preceding code.
  SourceMetrics M4 = measureSource("x := 1; /* open\nstill comment\n*/");
  EXPECT_EQ(M4.LinesOfCode, 1u);

  // Several comments on one code line.
  SourceMetrics M5 = measureSource("/* a */ x /* b */ := 1; // done");
  EXPECT_EQ(M5.LinesOfCode, 1u);
}

TEST(DriverTest, MissingFileReported) {
  Driver D;
  DriverResult R = D.verifyFile("/nonexistent/path.hv");
  EXPECT_FALSE(R.ParseOk);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(DriverTest, PhaseTimingsArePopulated) {
  Driver D;
  DriverResult R = D.verifySource(R"(
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
  )",
                                   "t");
  ASSERT_TRUE(R.Verified) << R.Diags.str("t");
  EXPECT_GT(R.ValiditySeconds, 0.0);
  EXPECT_GT(R.totalSeconds(), 0.0);
  EXPECT_EQ(R.Verification.NumSpecsChecked, 1u);
  ASSERT_EQ(R.Verification.Procs.size(), 1u);
  EXPECT_GT(R.Verification.Procs[0].NumObligations, 0u);
}

TEST(DriverTest, RejectionKeepsDiagnostics) {
  Driver D;
  DriverResult R = D.verifySource(
      "procedure main(h: int) returns (out: int) ensures low(out) "
      "{ out := h; }",
      "t");
  EXPECT_FALSE(R.Verified);
  EXPECT_TRUE(R.Diags.hasErrorWithCode(DiagCode::VerifyEntailment));
}

