//===-- tests/testgen/FuzzTest.cpp - Generator-driven fuzzing --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzzing with randomly generated well-typed programs:
///
///  - generated programs always parse and type-check;
///  - programs the generator certifies secure are accepted (completeness);
///  - programs with a tainted output or an illegal action argument are
///    rejected;
///  - **soundness sweep**: anything the verifier accepts must pass the
///    empirical non-interference harness — the fuzz analogue of
///    Theorem 4.3.
///
//===----------------------------------------------------------------------===//

#include "testgen/ProgramGen.h"

#include "hyper/NonInterference.h"
#include "hyperviper/Driver.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

class GenSeedTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(GenSeedTest, GeneratedProgramsParseAndTypeCheck) {
  GenConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.AllowLeakyOutput = true;
  GeneratedProgram G = generateProgram(Cfg);
  DiagnosticEngine Diags;
  Program P = Parser::parse(G.Source, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str() << "\n" << G.Source;
  TypeChecker Checker(P, Diags);
  EXPECT_TRUE(Checker.check()) << Diags.str() << "\n" << G.Source;
}

TEST_P(GenSeedTest, UntaintedProgramsVerify) {
  GenConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.AllowLeakyOutput = false; // secure by construction
  GeneratedProgram G = generateProgram(Cfg);
  ASSERT_FALSE(G.OutputTainted);
  Driver D;
  DriverResult R = D.verifySource(G.Source, "gen");
  EXPECT_TRUE(R.Verified) << R.Diags.str("gen") << "\n" << G.Source;
}

TEST_P(GenSeedTest, TaintedProgramsAreRejected) {
  GenConfig Cfg;
  Cfg.Seed = GetParam() * 7919 + 13;
  Cfg.AllowLeakyOutput = true;
  GeneratedProgram G = generateProgram(Cfg);
  if (!G.OutputTainted)
    GTEST_SKIP() << "seed produced a secure program";
  Driver D;
  DriverResult R = D.verifySource(G.Source, "gen");
  EXPECT_FALSE(R.Verified)
      << "tainted program unexpectedly verified:\n"
      << G.Source;
}

TEST_P(GenSeedTest, SoundnessSweep) {
  // Whatever the verifier accepts must be empirically non-interferent.
  GenConfig Cfg;
  Cfg.Seed = GetParam() * 31 + 5;
  Cfg.AllowLeakyOutput = true; // exercise both verdicts
  GeneratedProgram G = generateProgram(Cfg);
  Driver D;
  DriverResult R = D.verifySource(G.Source, "gen");
  ASSERT_TRUE(R.ParseOk) << R.Diags.str("gen");
  if (!R.Verified)
    GTEST_SKIP() << "rejected; soundness claim only covers accepted ones";
  NIConfig NICfg;
  NICfg.Trials = 2;
  NICfg.HighSamples = 3;
  NICfg.RandomSchedules = 3;
  NIReport Report = D.runEmpirical(*R.Prog, "main", NICfg);
  EXPECT_TRUE(Report.secure())
      << "VERIFIED program leaks!\n"
      << Report.Violation->describe() << "\n"
      << G.Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenSeedTest,
                         ::testing::Range<uint64_t>(1, 26));

TEST(GenConfigTest, DeterministicPerSeed) {
  GenConfig Cfg;
  Cfg.Seed = 42;
  EXPECT_EQ(generateProgram(Cfg).Source, generateProgram(Cfg).Source);
  GenConfig Cfg2 = Cfg;
  Cfg2.Seed = 43;
  EXPECT_NE(generateProgram(Cfg).Source, generateProgram(Cfg2).Source);
}

TEST(GenConfigTest, SizeScalesWithTarget) {
  GenConfig Small, Large;
  Small.Seed = Large.Seed = 9;
  Small.TargetStatements = 5;
  Large.TargetStatements = 80;
  EXPECT_LT(generateProgram(Small).Source.size(),
            generateProgram(Large).Source.size());
}

TEST(GenConfigTest, SequentialOnlyHasNoResources) {
  GenConfig Cfg;
  Cfg.Seed = 3;
  Cfg.EnableConcurrency = false;
  GeneratedProgram G = generateProgram(Cfg);
  EXPECT_EQ(G.Source.find("share "), std::string::npos);
  EXPECT_EQ(G.Source.find("par "), std::string::npos);
}
