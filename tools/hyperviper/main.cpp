//===-- tools/hyperviper/main.cpp - HyperViper CLI --------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line verifier: `hyperviper [options] file-or-dir.hv ...`
///
/// Options:
///   --no-validity   skip resource-spec validity checking (Def. 3.1)
///   --jobs <N>      worker threads for validity checking, procedure
///                   verification, and the NI harness (default: hardware
///                   concurrency; 1 = fully sequential). Output is
///                   identical at every N.
///   --ni <proc>     additionally run the empirical non-interference
///                   harness on the named procedure
///   --triage        static fast path: skip the relational proof for
///                   procedures the taint analysis proves low in
///                   verifier-approximation mode (skips reported by
///                   --metrics)
///   --metrics       print Table-1-style metrics (LOC / Ann. / time)
///   --quiet         only print the verdict line
///   --emit-cert <FILE>  write a checkable proof certificate ('-' =
///                   stdout); requires exactly one input file. Implies the
///                   relational proof runs for every procedure (the
///                   --triage fast path is disabled for the run).
///   --inject <FAULT>  none | accept-all | absint-unsound: seeded faults
///                   (testing only). accept-all forges the verifier's
///                   entailment verdicts; absint-unsound corrupts the
///                   differencing tier's recorded update template after
///                   proving, so the emitted certificate is unsound. Both
///                   exist so `check-cert` can demonstrably refute them.
///
/// Certificate checking: `hyperviper check-cert <prog.hv> <cert>` re-checks
/// a certificate against the program using only the AST and the
/// independent checker (src/cert/) — no solver or verifier code runs.
/// Prints `<cert>: OK` or `<cert>: INVALID (<reason>)`; exit 0/1.
///
/// Observability options (accepted by verify, analyze, fuzz, and serve;
/// check-cert and suggest-spec reject them):
///   --trace <FILE>         record scoped spans into FILE as Chrome
///                          trace-event JSON (load in Perfetto or
///                          chrome://tracing); see README "Profiling"
///   --metrics-json <FILE>  export the process metrics registry as JSON;
///                          the "counts" object is byte-identical at any
///                          --jobs, wall-clock values live under "timings"
///
/// `--jobs` is parsed identically everywhere: a positive decimal integer,
/// no sign, no trailing junk (`4x`), no overflow; anything else is a
/// consistent `invalid --jobs value` error with exit code 2. Omitting it
/// means every hardware thread. Other numeric options are as strict: a
/// value that is malformed or does not fit the setting is an `invalid
/// <option> value` error with exit code 2, never a silent default.
///
/// Analysis subcommand: `hyperviper analyze [options] file-or-dir ...`
/// runs the static information-flow pre-analysis (CFG + taint + lints,
/// src/analysis/) without verification. Directories expand recursively in
/// sorted order. Output is byte-identical at any --jobs.
///
/// analyze options:
///   --jobs <N>   worker threads over input files
///   --check      compare each file's report block against its committed
///                `<file>.analysis` sidecar (missing sidecar = the file
///                must be provably-low with no diagnostics); exit 1 on any
///                mismatch
///
/// Fuzzing subcommand: `hyperviper fuzz [options]` runs a differential
/// soundness-fuzzing campaign (see src/fuzz/): generated programs are
/// cross-checked between the generator's taint verdict, the verifier, an
/// empirical NI sweep, and a scheduler differential; disagreements are
/// minimized by the delta-debugging shrinker. Exits 1 when any
/// soundness-violation or generator-invalid classification occurs.
///
/// fuzz options:
///   --seeds <N>          campaign size (default 100)
///   --base-seed <N>      base of the per-seed derived streams (default 1)
///   --jobs <N>           worker threads across seeds (report is identical
///                        at every N)
///   --time-budget <SEC>  wall-clock cap; seeds not started in time are
///                        skipped (trades determinism for a bound)
///   --target-statements <N>  generator program size (default 12)
///   --no-concurrency / --no-collections / --no-unique-par /
///   --no-value-dependent / --no-loops  generator feature toggles
///   --secure-only        generate only secure-by-construction programs
///   --no-shrink          keep findings unminimized
///   --shrink-budget <N>  oracle evaluations per shrink (default 600)
///   --corpus-dir <DIR>   write each finding as a replayable corpus file
///   --report <FILE>      write the JSON report to FILE ('-' = stdout,
///                        the default)
///   --inject <FAULT>     none | accept-all | reject-all: synthetic
///                        verifier fault for exercising the disagreement
///                        machinery (testing/tooling only)
///
/// Serve subcommand: `hyperviper serve [options]` runs the persistent
/// verification daemon (src/service/): newline-delimited JSON over TCP on
/// 127.0.0.1, multiplexing requests onto the shared thread pool with
/// cached programs and their validity verdicts kept warm across requests.
/// Responses are byte-identical to the one-shot CLI. See DESIGN.md §11 and
/// `serve --help`.
///
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"
#include "cert/Check.h"
#include "fuzz/Campaign.h"
#include "fuzz/Corpus.h"
#include "hyperviper/Analyze.h"
#include "hyperviper/Driver.h"
#include "lang/TypeChecker.h"
#include "parser/Parser.h"
#include "rspec/Suggest.h"
#include "service/Server.h"
#include "support/Numeric.h"
#include "support/Signals.h"
#include "support/trace/Metrics.h"
#include "support/trace/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace commcsl;

namespace {

/// Observability flags shared by the verify, analyze, fuzz, and serve
/// subcommands. `parseFlag` consumes `--trace` / `--metrics-json`
/// (returning true), `finish` writes the requested files after the verb's
/// work is done.
struct Observability {
  std::string Sub; ///< subcommand label for error messages
  std::string TracePath;
  std::string MetricsPath;

  /// Returns true when \p Arg was one of ours (value consumed via \p I).
  /// Exits with code 2 on a missing value.
  bool parseFlag(const std::string &Arg, int Argc, char **Argv, int &I) {
    if (Arg != "--trace" && Arg != "--metrics-json")
      return false;
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s: error: %s expects a value\n", Sub.c_str(),
                   Arg.c_str());
      std::exit(2);
    }
    (Arg == "--trace" ? TracePath : MetricsPath) = Argv[++I];
    if (Arg == "--trace")
      TraceRecorder::global().enable();
    return true;
  }

  /// Writes the trace / metrics files. Returns false (with a message on
  /// stderr) when a write failed.
  bool finish() const {
    bool Ok = true;
    if (!TracePath.empty() &&
        !TraceRecorder::global().writeChromeTrace(TracePath)) {
      std::fprintf(stderr, "%s: error: cannot write trace file %s\n",
                   Sub.c_str(), TracePath.c_str());
      Ok = false;
    }
    if (!MetricsPath.empty() &&
        !MetricsRegistry::global().writeJson(MetricsPath)) {
      std::fprintf(stderr, "%s: error: cannot write metrics file %s\n",
                   Sub.c_str(), MetricsPath.c_str());
      Ok = false;
    }
    return Ok;
  }

  /// Re-registers `finish` as a signal flush action so an interrupt mid-run
  /// still writes the promised trace/metrics files before the process exits
  /// 128+sig. Call once, after flag parsing (the paths must be final).
  void armSignalFlush() const {
    Observability Copy = *this;
    addSignalFlushAction([Copy] { Copy.finish(); });
  }
};

/// The option's value string, or exit(2) if it is missing.
const char *requireValue(const char *Sub, const char *Flag, int Argc,
                         char **Argv, int &I) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s: error: %s expects a value\n", Sub, Flag);
    std::exit(2);
  }
  return Argv[++I];
}

/// Uniform `--jobs` parsing for every subcommand: rejects zero, signs,
/// trailing junk, and overflow with one error shape and exit code 2.
unsigned requireJobs(const char *Sub, int Argc, char **Argv, int &I) {
  const char *Value = requireValue(Sub, "--jobs", Argc, Argv, I);
  std::optional<unsigned> Jobs = parseJobsValue(Value);
  if (!Jobs) {
    std::fprintf(stderr,
                 "%s: error: invalid --jobs value '%s' (expected a "
                 "positive integer)\n",
                 Sub, Value);
    std::exit(2);
  }
  return *Jobs;
}

/// Strict unsigned option value (same contract as --jobs but 0 allowed),
/// for campaign sizes and budgets. A value above \p Max, the range of the
/// field the option sets, is rejected rather than truncated.
uint64_t requireUnsigned(const char *Sub, const char *Flag, int Argc,
                         char **Argv, int &I,
                         uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  const char *Value = requireValue(Sub, Flag, Argc, Argv, I);
  std::optional<uint64_t> V = parseUnsigned64(Value);
  if (!V || *V > Max) {
    std::fprintf(stderr,
                 "%s: error: invalid %s value '%s' (expected an integer "
                 "from 0 to %llu)\n",
                 Sub, Flag, Value, static_cast<unsigned long long>(Max));
    std::exit(2);
  }
  return *V;
}

/// requireUnsigned for an option that sets an `unsigned` field.
unsigned requireUnsigned32(const char *Sub, const char *Flag, int Argc,
                           char **Argv, int &I) {
  return static_cast<unsigned>(requireUnsigned(
      Sub, Flag, Argc, Argv, I, std::numeric_limits<unsigned>::max()));
}

/// Strict seconds value: digits with at most one decimal point (`30`,
/// `0.5`). Signs, exponents, and junk exit 2 like every bad value.
double requireSeconds(const char *Sub, const char *Flag, int Argc,
                      char **Argv, int &I) {
  const char *Value = requireValue(Sub, Flag, Argc, Argv, I);
  std::string S = Value;
  size_t Dot = S.find('.');
  if (S.find_first_not_of("0123456789.") != std::string::npos ||
      S.find_first_of("0123456789") == std::string::npos ||
      (Dot != std::string::npos && S.find('.', Dot + 1) != std::string::npos)) {
    std::fprintf(stderr,
                 "%s: error: invalid %s value '%s' (expected a "
                 "non-negative number of seconds)\n",
                 Sub, Flag, Value);
    std::exit(2);
  }
  return std::strtod(Value, nullptr);
}

int runFuzz(int Argc, char **Argv) {
  const char *Sub = "hyperviper fuzz";
  CampaignConfig Config;
  Observability Obs{Sub, {}, {}};
  std::string CorpusDir;
  std::string ReportPath = "-";

  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Obs.parseFlag(Arg, Argc, Argv, I)) {
    } else if (Arg == "--seeds") {
      Config.NumSeeds = requireUnsigned32(Sub, "--seeds", Argc, Argv, I);
    } else if (Arg == "--base-seed") {
      Config.BaseSeed = requireUnsigned(Sub, "--base-seed", Argc, Argv, I);
    } else if (Arg == "--jobs") {
      Config.Jobs = requireJobs(Sub, Argc, Argv, I);
    } else if (Arg == "--time-budget") {
      Config.TimeBudgetSeconds =
          requireSeconds(Sub, "--time-budget", Argc, Argv, I);
    } else if (Arg == "--target-statements") {
      Config.Gen.TargetStatements =
          requireUnsigned32(Sub, "--target-statements", Argc, Argv, I);
    } else if (Arg == "--no-concurrency") {
      Config.Gen.EnableConcurrency = false;
    } else if (Arg == "--no-collections") {
      Config.Gen.EnableCollections = false;
    } else if (Arg == "--no-unique-par") {
      Config.Gen.EnableUniquePar = false;
    } else if (Arg == "--no-value-dependent") {
      Config.Gen.EnableValueDependent = false;
    } else if (Arg == "--no-loops") {
      Config.Gen.EnableLoops = false;
    } else if (Arg == "--secure-only") {
      Config.Gen.AllowLeakyOutput = false;
    } else if (Arg == "--no-shrink") {
      Config.ShrinkFindings = false;
    } else if (Arg == "--shrink-budget") {
      Config.Shrink.MaxOracleRuns =
          requireUnsigned32(Sub, "--shrink-budget", Argc, Argv, I);
    } else if (Arg == "--corpus-dir") {
      CorpusDir = requireValue(Sub, "--corpus-dir", Argc, Argv, I);
    } else if (Arg == "--report") {
      ReportPath = requireValue(Sub, "--report", Argc, Argv, I);
    } else if (Arg == "--inject") {
      const char *Value = requireValue(Sub, "--inject", Argc, Argv, I);
      std::optional<OracleFault> F = oracleFaultByName(Value);
      if (!F) {
        std::fprintf(stderr,
                     "%s: error: unknown fault '%s' (want "
                     "none|accept-all|reject-all)\n",
                     Sub, Value);
        return 2;
      }
      Config.Oracle.Inject = *F;
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: hyperviper fuzz [--seeds N] [--base-seed N] [--jobs N]\n"
          "  [--time-budget SEC] [--target-statements N] [--no-concurrency]\n"
          "  [--no-collections] [--no-unique-par] [--no-value-dependent]\n"
          "  [--no-loops] [--secure-only] [--no-shrink] [--shrink-budget N]\n"
          "  [--corpus-dir DIR] [--report FILE|-] "
          "[--inject none|accept-all|reject-all]\n"
          "  [--trace FILE] [--metrics-json FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    }
  }

  Obs.armSignalFlush();
  CampaignReport Report = runCampaign(Config);

  std::string Json = Report.json();
  if (ReportPath == "-") {
    std::fputs(Json.c_str(), stdout);
  } else {
    std::ofstream Out(ReportPath);
    if (!Out) {
      std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                   ReportPath.c_str());
      return 2;
    }
    Out << Json;
  }

  if (!CorpusDir.empty()) {
    std::vector<std::string> Paths = writeCorpusFiles(Report, CorpusDir);
    std::fprintf(stderr, "%s: wrote %zu corpus file(s) to %s\n", Sub,
                 Paths.size(), CorpusDir.c_str());
  }

  std::fprintf(stderr,
               "%s: %u seeds run (%u skipped): %u agree, "
               "%u soundness-violation, %u analysis-unsound, "
               "%u completeness-gap, %u cert-invalid, %u flake, "
               "%u generator-invalid; %u statically secure\n",
               Sub, Report.SeedsRun, Report.SeedsSkipped, Report.Agree,
               Report.SoundnessViolations, Report.AnalysisUnsound,
               Report.CompletenessGaps, Report.CertInvalids, Report.Flakes,
               Report.GeneratorInvalids, Report.StaticSecureSeeds);
  if (!Obs.finish())
    return 2;
  return Report.clean() ? 0 : 1;
}

int runAnalyzeCmd(int Argc, char **Argv) {
  const char *Sub = "hyperviper analyze";
  AnalyzeOptions Options;
  Observability Obs{Sub, {}, {}};
  std::vector<std::string> Inputs;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Obs.parseFlag(Arg, Argc, Argv, I)) {
    } else if (Arg == "--jobs") {
      Options.Jobs = requireJobs(Sub, Argc, Argv, I);
    } else if (Arg == "--check") {
      Options.Check = true;
    } else if (Arg == "--write") {
      Options.Write = true;
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf("usage: hyperviper analyze [--jobs N] [--check|--write] "
                  "[--trace FILE] [--metrics-json FILE] file-or-dir ...\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "%s: error: no inputs\n", Sub);
    return 2;
  }
  Obs.armSignalFlush();
  AnalyzeResult R = runAnalyze(Inputs, Options);
  std::fputs(R.str().c_str(), stdout);
  if (!Obs.finish())
    return 2;
  if (Options.Check && !R.Ok) {
    std::fprintf(stderr,
                 "%s: error: report does not match the committed .analysis "
                 "sidecars\n",
                 Sub);
    return 1;
  }
  return 0;
}

int runServe(int Argc, char **Argv) {
  const char *Sub = "hyperviper serve";
  Observability Obs{Sub, {}, {}};
  SessionOptions SessOpts;
  uint64_t Port = 0;
  uint64_t Workers = 2;
  uint64_t MaxQueue = 64;

  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Obs.parseFlag(Arg, Argc, Argv, I)) {
    } else if (Arg == "--port") {
      Port = requireUnsigned(Sub, "--port", Argc, Argv, I);
      if (Port > 65535) {
        std::fprintf(stderr, "%s: error: invalid --port value %llu\n", Sub,
                     static_cast<unsigned long long>(Port));
        return 2;
      }
    } else if (Arg == "--jobs") {
      SessOpts.Jobs = requireJobs(Sub, Argc, Argv, I);
    } else if (Arg == "--triage") {
      SessOpts.Triage = true;
    } else if (Arg == "--workers") {
      Workers = requireUnsigned(Sub, "--workers", Argc, Argv, I);
      if (Workers == 0 || Workers > 256) {
        std::fprintf(stderr, "%s: error: --workers must be 1..256\n", Sub);
        return 2;
      }
    } else if (Arg == "--max-queue") {
      MaxQueue = requireUnsigned(Sub, "--max-queue", Argc, Argv, I);
      if (MaxQueue == 0) {
        std::fprintf(stderr, "%s: error: --max-queue must be positive\n",
                     Sub);
        return 2;
      }
    } else if (Arg == "--max-programs") {
      SessOpts.MaxCachedPrograms = static_cast<size_t>(
          requireUnsigned(Sub, "--max-programs", Argc, Argv, I));
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: hyperviper serve [--port N] [--jobs N] [--triage]\n"
          "  [--workers N] [--max-queue N] [--max-programs N]\n"
          "  [--trace FILE] [--metrics-json FILE]\n"
          "Listens on 127.0.0.1 (--port 0 = ephemeral, printed on stdout)\n"
          "speaking newline-delimited JSON; see DESIGN.md §11 for the\n"
          "protocol. SIGINT/SIGTERM drain in-flight requests, flush\n"
          "trace/metrics sinks, and exit 128+signal.\n");
      return 0;
    } else {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    }
  }

  Server Srv(SessOpts, static_cast<uint16_t>(Port),
             static_cast<unsigned>(Workers), static_cast<size_t>(MaxQueue));
  if (!Srv.start()) {
    std::fprintf(stderr, "%s: error: %s\n", Sub, Srv.error().c_str());
    return 2;
  }
  Obs.armSignalFlush();
  // First signal: graceful drain (run() returns, sinks flush, exit
  // 128+sig below). Second signal while draining: the watcher's hard
  // path flushes and force-exits.
  setGracefulSignalHandler([&Srv](int) { Srv.stop(); });

  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(Srv.port()));
  std::fflush(stdout);
  Srv.run();
  setGracefulSignalHandler({});

  if (!Obs.finish())
    return 2;
  int Sig = consumedSignal();
  return Sig != 0 ? 128 + Sig : 0;
}

/// `hyperviper check-cert <prog.hv> <cert>`: parse and type-check the
/// program, parse the certificate, and re-derive every step with the
/// independent checker. Deliberately bypasses the Driver so no solver or
/// verifier code runs on this path.
int runCheckCert(int Argc, char **Argv) {
  const char *Sub = "hyperviper check-cert";
  std::vector<std::string> Inputs;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf("usage: hyperviper check-cert <prog.hv> <cert>\n"
                  "Re-checks a proof certificate against the program with "
                  "the independent\nchecker (no solver/verifier code). "
                  "Exit 0 = OK, 1 = INVALID, 2 = usage.\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.size() != 2) {
    std::fprintf(stderr, "%s: error: expected <prog.hv> <cert>\n", Sub);
    return 2;
  }
  auto Slurp = [&](const std::string &Path,
                   std::string &Out) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "%s: error: cannot open '%s'\n", Sub,
                   Path.c_str());
      return false;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Out = SS.str();
    return true;
  };
  std::string ProgText, CertText;
  if (!Slurp(Inputs[0], ProgText) || !Slurp(Inputs[1], CertText))
    return 2;

  DiagnosticEngine Diags;
  Program Prog = Parser::parse(ProgText, Diags);
  if (!Diags.hasErrors()) {
    TypeChecker Checker(Prog, Diags);
    Checker.check();
  }
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str(Inputs[0]).c_str());
    std::fprintf(stderr, "%s: error: program does not parse\n", Sub);
    return 2;
  }

  std::string ParseError;
  std::optional<cert::Certificate> C = cert::parse(CertText, &ParseError);
  if (!C) {
    std::printf("%s: INVALID (parse: %s)\n", Inputs[1].c_str(),
                ParseError.c_str());
    return 1;
  }
  cert::CheckResult R = cert::checkCertificate(*C, Prog);
  if (!R.Ok) {
    std::printf("%s: INVALID (%s)\n", Inputs[1].c_str(), R.Error.c_str());
    return 1;
  }
  std::printf("%s: OK\n", Inputs[1].c_str());
  return 0;
}

/// `hyperviper suggest-spec [--spec NAME] [--max N] <prog.hv>`: enumerate
/// candidate abstractions (and `low(arg)` precondition strengthenings) for
/// each resource spec and rank them by what the validity tiers establish —
/// unbounded differencing proofs first. Purely deterministic output.
int runSuggestSpec(int Argc, char **Argv) {
  const char *Sub = "hyperviper suggest-spec";
  std::string OnlySpec;
  SuggestOptions Options;
  Options.Jobs = 0; // as in every verb: no --jobs = every hardware thread
  std::vector<std::string> Inputs;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--spec") {
      OnlySpec = requireValue(Sub, "--spec", Argc, Argv, I);
    } else if (Arg == "--max") {
      Options.MaxCandidates = requireUnsigned32(Sub, "--max", Argc, Argv, I);
    } else if (Arg == "--jobs") {
      Options.Jobs = requireJobs(Sub, Argc, Argv, I);
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: hyperviper suggest-spec [--spec NAME] [--max N] "
          "[--jobs N] <prog.hv>\n"
          "Enumerates candidate alpha abstractions for each resource spec\n"
          "(identity, order-forgetting collection views, sizes, component\n"
          "products, the constant abstraction) and candidate `low(arg)`\n"
          "precondition strengthenings, runs the validity tiers on each,\n"
          "and prints them ranked: unbounded differencing proofs first,\n"
          "then bounded-evidence validity. --max 0 lifts the candidate cap.\n"
          "--jobs defaults to every hardware thread; the report is\n"
          "byte-identical at any job count. Deterministic.\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.size() != 1) {
    std::fprintf(stderr, "%s: error: expected exactly one <prog.hv>\n", Sub);
    return 2;
  }

  std::ifstream In(Inputs[0]);
  if (!In) {
    std::fprintf(stderr, "%s: error: cannot open '%s'\n", Sub,
                 Inputs[0].c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  DiagnosticEngine Diags;
  Program Prog = Parser::parse(SS.str(), Diags);
  if (!Diags.hasErrors()) {
    TypeChecker Checker(Prog, Diags);
    Checker.check();
  }
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str(Inputs[0]).c_str());
    std::fprintf(stderr, "%s: error: program does not parse\n", Sub);
    return 2;
  }
  if (Prog.Specs.empty()) {
    std::fprintf(stderr, "%s: error: program declares no resource specs\n",
                 Sub);
    return 2;
  }

  std::vector<SuggestResult> Results;
  for (const ResourceSpecDecl &Spec : Prog.Specs) {
    if (!OnlySpec.empty() && Spec.Name != OnlySpec)
      continue;
    Results.push_back(suggestSpec(Spec, Prog, Options));
  }
  if (Results.empty()) {
    std::fprintf(stderr, "%s: error: no spec named '%s'\n", Sub,
                 OnlySpec.c_str());
    return 2;
  }
  std::fputs(renderSuggestReport(Prog, Results, Inputs[0]).c_str(), stdout);
  return 0;
}

int runVerify(int Argc, char **Argv) {
  const char *Sub = "hyperviper";
  DriverOptions Options;
  Observability Obs{Sub, {}, {}};
  bool PrintMetrics = false;
  bool Quiet = false;
  std::string NIProc;
  std::string CertPath;
  std::vector<std::string> Inputs;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Obs.parseFlag(Arg, Argc, Argv, I)) {
    } else if (Arg == "--no-validity") {
      Options.Verifier.SkipValidityCheck = true;
    } else if (Arg == "--jobs") {
      Options.Jobs = requireJobs(Sub, Argc, Argv, I);
    } else if (Arg == "--triage") {
      Options.Triage = true;
    } else if (Arg == "--metrics") {
      PrintMetrics = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--ni") {
      NIProc = requireValue(Sub, "--ni", Argc, Argv, I);
    } else if (Arg == "--emit-cert") {
      CertPath = requireValue(Sub, "--emit-cert", Argc, Argv, I);
      Options.Verifier.EmitCert = true;
    } else if (Arg == "--inject") {
      const char *Value = requireValue(Sub, "--inject", Argc, Argv, I);
      if (std::strcmp(Value, "accept-all") == 0) {
        Options.Verifier.ForgeAcceptAll = true;
      } else if (std::strcmp(Value, "absint-unsound") == 0) {
        Options.Verifier.Validity.Absint.InjectUnsound = true;
      } else if (std::strcmp(Value, "none") != 0) {
        std::fprintf(stderr,
                     "%s: error: unknown fault '%s' (want "
                     "none|accept-all|absint-unsound)\n",
                     Sub, Value);
        return 2;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf("usage: hyperviper [--no-validity] [--jobs N] [--triage] "
                  "[--metrics] [--quiet] [--ni <proc>]\n"
                  "                  [--emit-cert FILE|-] "
                  "[--inject none|accept-all|absint-unsound]\n"
                  "                  [--trace FILE] [--metrics-json FILE] "
                  "file-or-dir.hv ...\n"
                  "       hyperviper check-cert <prog.hv> <cert>\n"
                  "       hyperviper suggest-spec --help\n"
                  "       hyperviper analyze --help\n"
                  "       hyperviper fuzz --help\n"
                  "       hyperviper serve --help\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: error: unknown option '%s'\n", Sub,
                   Arg.c_str());
      return 2;
    } else {
      Inputs.push_back(Arg);
    }
  }

  if (Inputs.empty()) {
    std::fprintf(stderr, "%s: error: no input files\n", Sub);
    return 2;
  }
  // Directories expand to their `.hv` files in sorted order, matching the
  // analyze verb.
  std::vector<std::pair<std::string, std::string>> Files =
      expandHvInputs(Inputs);
  if (Files.empty()) {
    std::fprintf(stderr, "%s: error: no .hv files in the given inputs\n",
                 Sub);
    return 2;
  }
  if (!CertPath.empty() && Files.size() != 1) {
    std::fprintf(stderr,
                 "%s: error: --emit-cert expects exactly one input file "
                 "(got %zu)\n",
                 Sub, Files.size());
    return 2;
  }

  Obs.armSignalFlush();
  Driver D(Options);
  int Exit = 0;
  for (const auto &[Display, Path] : Files) {
    DriverResult R = D.verifyFile(Path);
    if (!R.Verified) {
      Exit = 1;
      if (!Quiet)
        std::fputs(R.Diags.str(Display).c_str(), stderr);
    }
    std::fputs(formatVerdictLine(Display, R.Verified).c_str(), stdout);
    if (!CertPath.empty()) {
      if (R.Cert.empty()) {
        std::fprintf(stderr,
                     "%s: error: no certificate (file did not parse)\n",
                     Sub);
        Exit = Exit ? Exit : 1;
      } else if (CertPath == "-") {
        std::fputs(R.Cert.c_str(), stdout);
      } else {
        std::ofstream Out(CertPath, std::ios::binary);
        if (!Out || !(Out << R.Cert)) {
          std::fprintf(stderr, "%s: error: cannot write %s\n", Sub,
                       CertPath.c_str());
          return 2;
        }
      }
    }
    if (PrintMetrics && R.ParseOk) {
      std::printf("  LOC %u  Ann. %u  parse %.3fs  validity %.3fs  "
                  "verify %.3fs  total %.3fs\n",
                  R.Metrics.LinesOfCode, R.Metrics.AnnotationLines,
                  R.ParseSeconds, R.ValiditySeconds, R.VerifySeconds,
                  R.totalSeconds());
      if (Options.Triage)
        std::printf("  triage: skipped %u/%zu relational proof(s)  "
                    "analysis %.3fs\n",
                    R.TriageSkipped, R.Verification.Procs.size(),
                    R.AnalysisSeconds);
    }
    if (!NIProc.empty() && R.ParseOk) {
      NIReport Report = D.runEmpirical(R, NIProc);
      std::fputs(formatNIBlock(Report).c_str(), stdout);
      if (!Report.secure())
        Exit = 1;
    }
  }
  if (!Obs.finish())
    return 2;
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  // Before any other thread exists: every thread created from here on
  // inherits the blocked SIGINT/SIGTERM mask, so only the watcher thread
  // ever receives them.
  installSignalWatcher();
  if (Argc > 1 && std::strcmp(Argv[1], "fuzz") == 0)
    return runFuzz(Argc - 2, Argv + 2);
  if (Argc > 1 && std::strcmp(Argv[1], "analyze") == 0)
    return runAnalyzeCmd(Argc - 2, Argv + 2);
  if (Argc > 1 && std::strcmp(Argv[1], "serve") == 0)
    return runServe(Argc - 2, Argv + 2);
  if (Argc > 1 && std::strcmp(Argv[1], "check-cert") == 0)
    return runCheckCert(Argc - 2, Argv + 2);
  if (Argc > 1 && std::strcmp(Argv[1], "suggest-spec") == 0)
    return runSuggestSpec(Argc - 2, Argv + 2);
  return runVerify(Argc, Argv);
}
