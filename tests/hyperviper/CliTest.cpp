//===-- tests/hyperviper/CliTest.cpp - hyperviper CLI contract tests -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the installed `hyperviper` binary (path injected as
/// COMMCSL_HYPERVIPER_BIN): the unified `--jobs` contract across the
/// verify / analyze / fuzz / suggest-spec subcommands, strict numeric
/// option values, and the observability flags —
/// `--trace` emits Chrome trace-event JSON, `--metrics-json` emits a
/// registry dump whose "counts" object is identical at any job count —
/// and the parser's nesting limit.
///
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

namespace {

struct CmdResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, interleaved
};

/// Runs \p Args under the shell with stderr folded into stdout.
CmdResult run(const std::string &Args) {
  std::string Cmd = std::string(COMMCSL_HYPERVIPER_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  CmdResult R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(P);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "hyperviper-cli-" + Name;
}

std::string example(const std::string &Name) {
  return std::string(COMMCSL_EXAMPLES_DIR) + "/" + Name;
}

/// The `"counts"` object of a metrics export — the part contracted to be
/// identical at every `--jobs` setting.
std::string countsSection(const std::string &Json) {
  size_t Begin = Json.find("\"counts\"");
  size_t End = Json.find("\"timings\"");
  EXPECT_NE(Begin, std::string::npos);
  EXPECT_NE(End, std::string::npos);
  return Json.substr(Begin, End - Begin);
}

} // namespace

TEST(CliJobsTest, VerifyRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2", "+4", "abc", "4294967296"}) {
    CmdResult R = run(std::string("--jobs ") + Bad + " " +
                      example("figure1.hv"));
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, AnalyzeRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2"}) {
    CmdResult R = run(std::string("analyze --jobs ") + Bad + " " +
                      example("figure1.hv"));
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, FuzzRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2"}) {
    CmdResult R = run(std::string("fuzz --seeds 1 --jobs ") + Bad);
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, SuggestSpecRejectsBadJobsValues) {
  for (const char *Bad : {"4x", "0", "-2", "4294967296"}) {
    CmdResult R = run(std::string("suggest-spec --jobs ") + Bad + " " +
                      example("figure1.hv"));
    EXPECT_EQ(R.Exit, 2) << Bad;
    EXPECT_NE(R.Output.find(std::string("invalid --jobs value '") + Bad),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, NumericOptionsRejectBadValues) {
  // Malformed values and values too large for the setting are usage
  // errors, never a silent "no budget" or a truncated count. Each command
  // ends in the flag under test.
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"fuzz --seeds 1 --time-budget", "abc"},
      {"fuzz --seeds 1 --time-budget", "-5"},
      {"fuzz --seeds 1 --time-budget", "1.2.3"},
      {"fuzz --seeds", "4294967297"},
      {"fuzz --seeds 1 --target-statements", "4294967296"},
      {"fuzz --seeds 1 --shrink-budget", "4294967296"},
      {"suggest-spec " + example("figure1.hv") + " --max", "4294967296"},
  };
  for (const auto &[Cmd, Bad] : Cases) {
    std::string Flag = Cmd.substr(Cmd.rfind(' ') + 1);
    CmdResult R = run(Cmd + " " + Bad);
    EXPECT_EQ(R.Exit, 2) << Cmd << " " << Bad;
    EXPECT_NE(R.Output.find("invalid " + Flag + " value '" + Bad + "'"),
              std::string::npos)
        << R.Output;
  }
}

TEST(CliJobsTest, MissingJobsValueIsAnError) {
  EXPECT_EQ(run("--jobs").Exit, 2);
  EXPECT_EQ(run("analyze --jobs").Exit, 2);
  EXPECT_EQ(run("fuzz --jobs").Exit, 2);
  EXPECT_EQ(run("suggest-spec --jobs").Exit, 2);
}

TEST(CliJobsTest, ValidJobsValueAcceptedEverywhere) {
  EXPECT_EQ(run("--quiet --jobs 2 " + example("figure1.hv")).Exit, 0);
  EXPECT_EQ(run("analyze --jobs 2 " + example("figure1.hv")).Exit, 0);
  EXPECT_EQ(run("suggest-spec --jobs 2 " + example("figure1.hv")).Exit, 0);
  // Fuzz exit reflects the campaign's findings (0 clean, 1 findings);
  // what matters here is that a valid --jobs is not a usage error.
  int FuzzExit = run("fuzz --seeds 2 --jobs 2 --no-shrink --report " +
                     tmpPath("fuzz-jobs.json"))
                     .Exit;
  EXPECT_TRUE(FuzzExit == 0 || FuzzExit == 1) << FuzzExit;
}

TEST(CliObservabilityTest, TraceFlagEmitsChromeTraceJson) {
  std::string Trace = tmpPath("verify.trace.json");
  CmdResult R = run("--quiet --trace " + Trace + " " + example("figure1.hv"));
  EXPECT_EQ(R.Exit, 0) << R.Output;
  std::string Json = slurp(Trace);
  EXPECT_EQ(Json.rfind("{", 0), 0u);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // The verify pipeline's phases appear as spans.
  EXPECT_NE(Json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(CliObservabilityTest, MetricsCountsIdenticalAcrossJobCounts) {
  std::string M1 = tmpPath("metrics-j1.json");
  std::string M3 = tmpPath("metrics-j3.json");
  std::string Files = example("figure1.hv") + " " + example("figure2.hv") +
                      " " + example("count_purchases.hv");
  EXPECT_EQ(
      run("--quiet --jobs 1 --metrics-json " + M1 + " " + Files).Exit, 0);
  EXPECT_EQ(
      run("--quiet --jobs 3 --metrics-json " + M3 + " " + Files).Exit, 0);
  std::string A = slurp(M1), B = slurp(M3);
  EXPECT_EQ(countsSection(A), countsSection(B));
  // Both carry a timings object too (whose values legitimately differ).
  EXPECT_NE(A.find("\"timings\""), std::string::npos);
}

TEST(CliObservabilityTest, FuzzMetricsCountsIdenticalAcrossJobCounts) {
  std::string M1 = tmpPath("fuzz-metrics-j1.json");
  std::string M2 = tmpPath("fuzz-metrics-j2.json");
  std::string Common = "fuzz --seeds 6 --base-seed 7 --no-shrink --report ";
  int E1 = run(Common + tmpPath("fuzz-r1.json") + " --jobs 1 --metrics-json " +
               M1)
               .Exit;
  int E2 = run(Common + tmpPath("fuzz-r2.json") + " --jobs 2 --metrics-json " +
               M2)
               .Exit;
  EXPECT_EQ(E1, E2); // the campaign verdict itself is jobs-independent
  EXPECT_TRUE(E1 == 0 || E1 == 1) << E1;
  EXPECT_EQ(countsSection(slurp(M1)), countsSection(slurp(M2)));
}

TEST(CliObservabilityTest, CorruptCorpusSeedReportsParseFailure) {
  // End-to-end regression for the `// seed: abc` crash: a corrupt header
  // must be a parse failure, not an uncaught exception.
  std::string Bad = tmpPath("bad-corpus.hv");
  {
    std::ofstream Out(Bad);
    Out << "// fuzz-corpus v1\n// class: soundness-violation\n"
           "// seed: abc\n\nvar x: Int := 0;\n";
  }
  // The corpus parser is only reachable from tests/tools; what must hold
  // here is that the verifier front door treats the file as ordinary
  // (broken) source rather than dying on the malformed header.
  CmdResult R = run(Bad);
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find("REJECTED"), std::string::npos) << R.Output;
}

TEST(CliSuggestSpecTest, RanksDeclaredSpecAndFlagsInvalidCandidates) {
  CmdResult R = run("suggest-spec " + example("debt_sum.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  // The declared abstraction (reveal only the running sum) must rank first
  // with an unbounded proof; the identity abstraction must surface as
  // invalid (it would leak the individual debts).
  EXPECT_NE(R.Output.find("1. alpha(v) = snd(v) [declared] -- valid "
                          "(unbounded)"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("alpha(v) = v -- invalid"), std::string::npos)
      << R.Output;
}

TEST(CliSuggestSpecTest, OutputIsDeterministicAcrossRuns) {
  CmdResult A = run("suggest-spec " + example("sick_employee_names.hv"));
  CmdResult B = run("suggest-spec " + example("sick_employee_names.hv"));
  ASSERT_EQ(A.Exit, 0) << A.Output;
  EXPECT_EQ(A.Output, B.Output);
}

TEST(CliSuggestSpecTest, UsageErrors) {
  EXPECT_EQ(run("suggest-spec").Exit, 2);
  EXPECT_EQ(run("suggest-spec --spec NoSuch " + example("figure1.hv")).Exit,
            2);
  EXPECT_EQ(run("suggest-spec " + example("public_stats.hv")).Exit, 2);
  EXPECT_EQ(run("suggest-spec --help").Exit, 0);
}

TEST(CliSuggestSpecTest, MaxZeroLiftsTheCap) {
  // `--max 0` means no cap: every enumerated candidate is tried and the
  // report is never marked truncated.
  CmdResult R = run("suggest-spec --max 0 " + example("figure1.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_EQ(R.Output.find("(truncated)"), std::string::npos) << R.Output;
}

TEST(CliSuggestSpecTest, JobsDoNotChangeReportBytes) {
  CmdResult J1 = run("suggest-spec --jobs 1 " + example("figure1.hv"));
  CmdResult J3 = run("suggest-spec --jobs 3 " + example("figure1.hv"));
  ASSERT_EQ(J1.Exit, 0) << J1.Output;
  ASSERT_EQ(J3.Exit, 0) << J3.Output;
  EXPECT_EQ(J1.Output, J3.Output);
}

TEST(CliSuggestSpecTest, MaxTruncatesDeterministically) {
  CmdResult R = run("suggest-spec --max 3 " + example("debt_sum.hv"));
  ASSERT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("tried 3 candidates (truncated)"),
            std::string::npos)
      << R.Output;
}

namespace {

/// Writes `main`, whose body holds \p Body, and returns the file's path.
std::string writeMain(const std::string &Name, const std::string &Body) {
  std::string Path = tmpPath(Name);
  std::ofstream(Path) << "procedure main(l: int) returns (out: int)\n"
                         "  requires low(l)\n  ensures low(out)\n{\n  "
                      << Body << "\n}\n";
  return Path;
}

/// `out := ((...(l)...));`: the statement, its right-hand side and each
/// parenthesis open one level.
std::string parens(unsigned N) {
  return "out := " + std::string(N, '(') + "l" + std::string(N, ')') + ";";
}

/// \p N nested ifs around `out := l;`, which opens two more levels.
std::string nestedIfs(unsigned N) {
  std::string Open, Close;
  for (unsigned I = 0; I < N; ++I) {
    Open += "if (l < 0) { ";
    Close += " }";
  }
  return "out := l; " + Open + "out := l;" + Close;
}

} // namespace

TEST(CliNestingTest, OverTheLimitIsAParseErrorNotACrash) {
  const unsigned Max = commcsl::Parser::MaxNesting;
  for (const std::string &At : {parens(Max - 2), nestedIfs(Max - 2)}) {
    CmdResult R = run("--ni main " + writeMain("at.hv", At));
    EXPECT_EQ(R.Exit, 0) << R.Output;
    EXPECT_NE(R.Output.find(": verified"), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("no violation"), std::string::npos) << R.Output;
  }

  const std::string Limit = "error [parse]: nesting exceeds the limit of " +
                            std::to_string(Max) + " levels";
  for (const std::string &Over :
       {parens(Max - 1), parens(20000), nestedIfs(Max - 1), nestedIfs(5000)}) {
    CmdResult R = run(writeMain("over.hv", Over));
    EXPECT_EQ(R.Exit, 1); // REJECTED, not SIGSEGV
    EXPECT_NE(R.Output.find(Limit), std::string::npos)
        << R.Output.substr(0, 300);
  }
  // analyze shows the offending line with a caret under column Max + 9,
  // the token inside the innermost allowed paren (the block and the
  // snippet each indent by two).
  CmdResult R = run("analyze " + writeMain("over.hv", parens(20000)));
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Output.find(": parse-error\n"), std::string::npos);
  EXPECT_NE(R.Output.find("\n" + std::string(Max + 12, ' ') + "^\n"),
            std::string::npos);
}
