//===-- tests/fuzz/ShrinkerTest.cpp - Delta-debugging shrinker tests -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shrinker's contract: minimized witnesses keep the oracle class AND
/// the concrete-leak evidence bit, stay parseable source, shrink a
/// fault-injected finding well below the acceptance bar (<= 25% of the
/// original statement count), and respect the oracle-run budget.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "testgen/ProgramGen.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;

namespace {

/// Finds a generated program that is leaky by construction and — under an
/// AcceptAll fault — classifies as a soundness violation with a concrete
/// observed leak. This is the canonical shrinker workload.
struct InjectedFinding {
  std::string Source;
  uint64_t Seed = 0;
  unsigned Statements = 0;
};

InjectedFinding findInjectedLeak(const DifferentialOracle &Oracle) {
  for (uint64_t Seed = 1; Seed <= 32; ++Seed) {
    GenConfig GC;
    GC.Seed = Seed * 6151 + 11;
    GC.AllowLeakyOutput = true;
    GeneratedProgram GP = generateProgram(GC);
    if (!GP.OutputTainted)
      continue;
    OracleResult R = Oracle.evaluate(GP.Source, true, GC.Seed);
    if (R.Class == OracleClass::SoundnessViolation &&
        R.Verdicts.EmpiricalLeak)
      return {GP.Source, GC.Seed, GP.Statements};
  }
  return {};
}

} // namespace

TEST(ShrinkerTest, InjectedSoundnessFindingShrinksBelowQuarter) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  DifferentialOracle Oracle(Config.Oracle);

  InjectedFinding F = findInjectedLeak(Oracle);
  ASSERT_FALSE(F.Source.empty())
      << "no leaky generated seed produced an empirically observable leak";
  ASSERT_GE(F.Statements, 8u) << "workload too small to make the bar meaningful";

  ShrinkResult R = shrinkProgram(F.Source, /*GenTainted=*/true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  EXPECT_EQ(R.Class, OracleClass::SoundnessViolation);
  EXPECT_GT(R.Stats.Reductions, 0u);
  EXPECT_LE(R.Stats.OracleRuns, Config.MaxOracleRuns);
  // The acceptance bar: a minimized witness at most a quarter of the
  // original statement count.
  EXPECT_LE(R.Stats.StatementsAfter * 4, R.Stats.StatementsBefore)
      << "before=" << R.Stats.StatementsBefore
      << " after=" << R.Stats.StatementsAfter << "\n"
      << R.Source;

  // The witness is well-formed source and still reproduces class AND
  // evidence: the concrete leak survived minimization.
  OracleResult Replay = Oracle.evaluate(R.Source, true, F.Seed);
  EXPECT_EQ(Replay.Class, OracleClass::SoundnessViolation) << R.Source;
  EXPECT_TRUE(Replay.Verdicts.EmpiricalLeak) << R.Source;
}

TEST(ShrinkerTest, MinimizedWitnessIsParseableAndPrinted) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  DifferentialOracle Oracle(Config.Oracle);
  InjectedFinding F = findInjectedLeak(Oracle);
  ASSERT_FALSE(F.Source.empty());

  ShrinkResult R = shrinkProgram(F.Source, true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  DiagnosticEngine Diags;
  Program P = Parser::parse(R.Source, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str() << "\n" << R.Source;
  // The shrinker emits printer-normalized source: re-printing is a no-op.
  EXPECT_EQ(P.str(), R.Source);
}

TEST(ShrinkerTest, CompletenessGapShrinksUnderRejectAll) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::RejectAll;
  const char *Source = R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var a: int := l + 1;
      var b: int := a * 2;
      if (l > 0) { a := a + b; } else { a := b; }
      while (b > 0)
        invariant low(b)
      {
        b := b - 1;
      }
      out := a + b;
    }
  )";
  ShrinkResult R = shrinkProgram(Source, /*GenTainted=*/false,
                                 OracleClass::CompletenessGap, 5, Config);
  EXPECT_EQ(R.Class, OracleClass::CompletenessGap);
  EXPECT_LT(R.Stats.StatementsAfter, R.Stats.StatementsBefore);
}

TEST(ShrinkerTest, MismatchedTargetReportsActualClass) {
  // A secure program does not classify as a soundness violation; the
  // shrinker must refuse to start and report what it actually saw.
  const char *Source = R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := l;
    }
  )";
  ShrinkResult R = shrinkProgram(Source, false,
                                 OracleClass::SoundnessViolation, 5);
  EXPECT_EQ(R.Class, OracleClass::Agree);
  EXPECT_EQ(R.Stats.Reductions, 0u);
}

TEST(ShrinkerTest, UnparseableInputIsGeneratorInvalid) {
  ShrinkResult R = shrinkProgram("not a program", false,
                                 OracleClass::SoundnessViolation, 5);
  EXPECT_EQ(R.Class, OracleClass::GeneratorInvalid);
  EXPECT_EQ(R.Source, "not a program");
}

TEST(ShrinkerTest, OracleBudgetIsRespected) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.MaxOracleRuns = 3;
  DifferentialOracle Oracle(Config.Oracle);
  InjectedFinding F = findInjectedLeak(Oracle);
  ASSERT_FALSE(F.Source.empty());

  ShrinkResult R = shrinkProgram(F.Source, true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  EXPECT_LE(R.Stats.OracleRuns, 3u);
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  // Whatever the budget allowed, the result is still a valid witness.
  DiagnosticEngine Diags;
  Parser::parse(R.Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << R.Source;
}

TEST(ShrinkerTest, ZeroBudgetRunsNoOracle) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.MaxOracleRuns = 0;
  DifferentialOracle Oracle(Config.Oracle);
  InjectedFinding F = findInjectedLeak(Oracle);
  ASSERT_FALSE(F.Source.empty());

  ShrinkResult R = shrinkProgram(F.Source, true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  EXPECT_EQ(R.Stats.OracleRuns, 0u);
  EXPECT_TRUE(R.Stats.BudgetExhausted);
  EXPECT_EQ(R.Stats.Reductions, 0u);
  EXPECT_EQ(R.Source, F.Source);
  EXPECT_EQ(R.Class, OracleClass::SoundnessViolation);
}

TEST(ShrinkerTest, ShrinkIsDeterministic) {
  ShrinkConfig Config;
  Config.Oracle.Inject = OracleFault::AcceptAll;
  Config.MaxOracleRuns = 120; // keep the repeat affordable
  DifferentialOracle Oracle(Config.Oracle);
  InjectedFinding F = findInjectedLeak(Oracle);
  ASSERT_FALSE(F.Source.empty());

  ShrinkResult A = shrinkProgram(F.Source, true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  ShrinkResult B = shrinkProgram(F.Source, true,
                                 OracleClass::SoundnessViolation, F.Seed,
                                 Config);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Stats.OracleRuns, B.Stats.OracleRuns);
  EXPECT_EQ(A.Stats.Reductions, B.Stats.Reductions);
}
