//===-- hyperviper/Analyze.cpp - `hyperviper analyze` verb ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "hyperviper/Analyze.h"

#include "analysis/Analysis.h"
#include "analysis/Lint.h"
#include "hyperviper/Driver.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"
#include "support/trace/Stopwatch.h"
#include "support/trace/Trace.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace commcsl;

std::vector<std::pair<std::string, std::string>>
commcsl::expandHvInputs(const std::vector<std::string> &Inputs) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> Paths;
  for (const std::string &Input : Inputs) {
    std::error_code EC;
    if (!fs::is_directory(Input, EC)) {
      Paths.emplace_back(Input, Input);
      continue;
    }
    // A directory recurses, sorted by relative path so the report order is
    // stable.
    const size_t First = Paths.size();
    for (const auto &DE : fs::recursive_directory_iterator(Input, EC))
      if (DE.is_regular_file() && DE.path().extension() == ".hv")
        Paths.emplace_back(fs::relative(DE.path(), Input).generic_string(),
                           DE.path().string());
    std::sort(Paths.begin() + First, Paths.end());
  }
  return Paths;
}

AnalyzeFileResult commcsl::analyzeSourceBlock(const std::string &Source,
                                              const std::string &Display) {
  AnalyzeFileResult R;
  R.Display = Display;

  ParsedUnit U = Driver().parseAndCheck(Source, Display);
  if (U.Ok) {
    ProgramStaticResult A = analyzeProgram(*U.Prog);
    R.Verdict = A.ProvablyLow ? "provably-low" : "candidate-leak";
    R.Block =
        "verdict: " + R.Verdict + "\n" + A.Diags.strWithSnippets(Source);
    return R;
  }
  // The type checker runs only on a parsed program and reports no lexer
  // or parser codes, so those codes tell the two failures apart.
  DiagnosticEngine Diags = U.Diags;
  if (Diags.hasErrorWithCode(DiagCode::LexError) ||
      Diags.hasErrorWithCode(DiagCode::ParseError)) {
    R.Verdict = "parse-error";
  } else {
    // Ill-typed programs still get the AST/CFG lints (they need no types);
    // the taint analysis is skipped — its levels assume resolved names.
    lintProgram(*U.Prog, Diags);
    R.Verdict = "type-error";
  }
  R.Block = "verdict: " + R.Verdict + "\n" + Diags.strWithSnippets(Source);
  return R;
}

std::string AnalyzeResult::str() const {
  std::ostringstream OS;
  for (const AnalyzeFileResult &F : Files) {
    OS << F.Display << ": " << F.Verdict
       << (F.SidecarOk ? "" : "  [SIDECAR MISMATCH]") << "\n";
    // Indent the diagnostics under the file header; the block's first line
    // repeats the verdict, skip it.
    std::istringstream In(F.Block);
    std::string Line;
    bool First = true;
    while (std::getline(In, Line)) {
      if (First) {
        First = false;
        continue;
      }
      OS << "  " << Line << "\n";
    }
  }
  return OS.str();
}

AnalyzeResult commcsl::runAnalyze(const std::vector<std::string> &Inputs,
                                  const AnalyzeOptions &Options) {
  std::vector<std::pair<std::string, std::string>> Paths =
      expandHvInputs(Inputs);

  AnalyzeResult R;
  R.Files.resize(Paths.size());
  unsigned Jobs = ThreadPool::effectiveJobs(Options.Jobs);
  Stopwatch T0;
  {
    TraceSpan Phase("analyze", [&] {
      return "analyze (" + std::to_string(Paths.size()) + " files)";
    });
    ThreadPool::shared().parallelForChunks(
        Paths.size(), Jobs, [&](uint64_t Begin, uint64_t End, unsigned) {
          for (uint64_t I = Begin; I < End; ++I) {
            TraceSpan Span("analyze",
                           [&] { return "file " + Paths[I].first; });
            std::optional<std::string> Source = readFile(Paths[I].second);
            if (!Source) {
              AnalyzeFileResult F;
              F.Display = Paths[I].first;
              F.Path = Paths[I].second;
              F.Verdict = "read-error";
              F.Block = "verdict: read-error\n";
              R.Files[I] = std::move(F);
              continue;
            }
            AnalyzeFileResult F = analyzeSourceBlock(*Source, Paths[I].first);
            F.Path = Paths[I].second;
            R.Files[I] = std::move(F);
          }
        });
  }

  // Verdict tallies are deterministic: the file list is sorted and each
  // block is a pure function of its source.
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("analyze.files").add(R.Files.size());
  auto CountVerdict = [&](const char *Name, const char *Verdict) {
    uint64_t N = 0;
    for (const AnalyzeFileResult &F : R.Files)
      N += F.Verdict == Verdict ? 1 : 0;
    M.counter(std::string("analyze.") + Name).add(N);
  };
  CountVerdict("provably_low", "provably-low");
  CountVerdict("candidate_leak", "candidate-leak");
  CountVerdict("parse_error", "parse-error");
  CountVerdict("type_error", "type-error");
  CountVerdict("read_error", "read-error");
  M.gauge("analyze.wall_seconds").add(T0.seconds());

  // Every shipped program carries a committed sidecar — clean files
  // included. A missing sidecar is a check failure, not an implicit
  // "clean" claim: the exhaustiveness contract is that adding a program
  // without rerunning `analyze --write` cannot pass CI silently.
  if (Options.Write) {
    for (const AnalyzeFileResult &F : R.Files) {
      std::ofstream Out(F.Path + ".analysis");
      Out << F.Block;
    }
  }
  if (Options.Check) {
    for (AnalyzeFileResult &F : R.Files) {
      std::optional<std::string> Expected = readFile(F.Path + ".analysis");
      F.SidecarOk = Expected && F.Block == *Expected;
      R.Ok &= F.SidecarOk;
    }
  }
  return R;
}
