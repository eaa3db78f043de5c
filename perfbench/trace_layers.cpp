//===-- perfbench/trace_layers.cpp - In-process layer tracer ----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's traced run: replays a workload's seeded inputs through
/// the libraries' public entry points in-process and wraps every call in a
/// span, so each layer's time and counts are measured at its own boundary.
///
///   trace_layers <plan> <spans-out>
///
/// The plan is line-based (whitespace-separated fields, no quoting):
///
///   jobs <N>                               worker threads for Driver/NI
///   program <name> <path> <verified|REJECTED>
///                                          full per-program layer pass
///   fuzz <base-seed> <seeds> <reference> <layers 0|1>
///                                          testgen -> oracle -> shrink,
///                                          checked against the CLI report;
///                                          with layers=1 every generated
///                                          program also gets the layer pass
///   campaign <base-seed> <seeds> <repeats> runCampaign calls, one span each
///   request <verb> <emit-cert 0|1> <name> <path> <report> <cert|->
///                                          a Session::handle replay item
///   replay <threads>                       run the queued requests
///
/// Program items run twice, once with spans off and once with spans on
/// (alternating which goes first); the difference of the two wall-time
/// sums is the tracing overhead. Spans are kept in memory and written as
/// JSON lines to <spans-out> at exit. A summary JSON object is printed on
/// stdout; `correct` is false when any verdict, certificate check, fuzz
/// classification or service reply differs from its known answer.
///
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"
#include "cert/Check.h"
#include "fuzz/Campaign.h"
#include "hyperviper/Analyze.h"
#include "hyperviper/Driver.h"
#include "rspec/RSpec.h"
#include "rspec/Validity.h"
#include "service/Session.h"
#include "support/ThreadPool.h"
#include "testgen/ProgramGen.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace commcsl;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a timed call into a layer, its causing span, the
/// unit (input) it belongs to, and the counts measured at the same
/// boundary.
struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  std::string Name;
  std::string Unit;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  std::vector<std::pair<std::string, double>> Counts;
};

/// In-memory span store. Recording is switched per pass; while it is off
/// spans cost one branch.
class Recorder {
public:
  std::atomic<bool> Enabled{false};

  void add(SpanRecord R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back(std::move(R));
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out.precision(17); // counts such as certificate bytes exceed 10^6
    for (const SpanRecord &S : Spans) {
      Out << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
          << ",\"name\":\"" << S.Name << "\",\"unit\":\"" << S.Unit
          << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
          << ",\"counts\":{";
      for (size_t I = 0; I < S.Counts.size(); ++I)
        Out << (I ? "," : "") << "\"" << S.Counts[I].first
            << "\":" << S.Counts[I].second;
      Out << "}}\n";
    }
    return static_cast<bool>(Out);
  }

private:
  std::mutex Mu;
  std::vector<SpanRecord> Spans;
};

Recorder Rec;
thread_local std::vector<uint64_t> OpenSpans; ///< ids of enclosing spans
thread_local std::string CurrentUnit;

/// RAII span. Its id is taken at open so children can name it as their
/// parent; the record is stored at close.
class Span {
public:
  explicit Span(std::string Name) {
    if (!Rec.Enabled.load(std::memory_order_relaxed))
      return;
    Active = true;
    R.Name = std::move(Name);
    R.Unit = CurrentUnit;
    R.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
    R.Id = NextId.fetch_add(1) + 1;
    OpenSpans.push_back(R.Id);
    R.StartNs = nowNs();
  }
  ~Span() {
    if (!Active)
      return;
    R.EndNs = nowNs();
    OpenSpans.pop_back();
    Rec.add(std::move(R));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void count(const char *Key, double V) {
    if (Active)
      R.Counts.emplace_back(Key, V);
  }

private:
  static inline std::atomic<uint64_t> NextId{0};
  bool Active = false;
  SpanRecord R;
};

std::string slurp(const std::string &Path, bool &Ok) {
  std::ifstream In(Path, std::ios::binary);
  Ok = static_cast<bool>(In);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (C == '\n')
      Out += "\\n";
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

struct Errors {
  std::mutex Mu;
  std::vector<std::string> List;
  void add(const std::string &E) {
    std::lock_guard<std::mutex> Lock(Mu);
    List.push_back(E);
  }
};
Errors Failures;

unsigned Jobs = 1;

/// Every layer the library exposes, called on one program in pipeline
/// order. Spans carry their span ids via the per-thread stack, so the
/// program span is the parent of each layer span.
void programPass(const std::string &Name, const std::string &Path,
                 const std::string &Source, const std::string &Expect) {
  CurrentUnit = Name;
  Span Unit("program");
  Driver Plain;

  ParsedUnit Parsed;
  {
    Span S("parser.parse");
    Parsed = Plain.parseAndCheck(Source, Name);
    S.count("bytes", static_cast<double>(Source.size()));
  }
  {
    Span S("analysis.analyze");
    AnalyzeFileResult A = analyzeSourceBlock(Source, Name);
    S.count("provably_low", A.Verdict == "provably-low" ? 1 : 0);
  }
  if (!Parsed.Ok) {
    Failures.add(Name + ": does not parse");
    return;
  }
  const Program &Prog = *Parsed.Prog;

  for (const ResourceSpecDecl &Spec : Prog.Specs) {
    Span S("rspec.validity");
    ValidityConfig VC;
    VC.Jobs = 1;
    RSpecRuntime Runtime(Spec, &Prog);
    ValidityChecker Checker(Runtime, VC);
    ValidityResult R = Checker.check();
    S.count("checks", static_cast<double>(R.BoundedChecks + R.RandomChecks));
    S.count("unbounded", R.Unbounded ? 1 : 0);
    S.count("valid", R.Valid ? 1 : 0);
    S.count("memo_hits", static_cast<double>(R.Cache.hits()));
    S.count("memo_misses", static_cast<double>(R.Cache.misses()));
  }
  for (const ProcDecl &Proc : Prog.Procs) {
    Span S("verifier.proc");
    DiagnosticEngine Diags;
    Verifier V(Prog, Diags);
    ProcVerdict PV = V.verifyProc(Proc);
    S.count("obligations", PV.NumObligations);
    S.count("ok", PV.Ok ? 1 : 0);
  }

  // What one CLI invocation runs: read, parse and check, verify.
  DriverOptions DO;
  DO.Jobs = Jobs;
  {
    Span S("driver.verify");
    Driver D(DO);
    DriverResult R =
        Path.empty() ? D.verifySource(Source, Name) : D.verifyFile(Path);
    const std::string Got = R.Verified ? "verified" : "REJECTED";
    if (Expect != "-" && Got != Expect)
      Failures.add(Name + ": verdict " + Got + ", expected " + Expect);
  }

  std::string CertText;
  {
    Span S("driver.emit_cert");
    DriverOptions EO = DO;
    EO.Verifier.EmitCert = true;
    CertText = Driver(EO).verifyParsed(Parsed).Cert;
  }
  {
    Span S("cert.check");
    std::string Err;
    std::optional<cert::Certificate> C = cert::parse(CertText, &Err);
    cert::CheckResult CR;
    if (C)
      CR = cert::checkCertificate(*C, Prog);
    S.count("bytes", static_cast<double>(CertText.size()));
    if (!C || !CR.Ok)
      Failures.add(Name + ": certificate INVALID (" +
                   (C ? CR.Error : "parse: " + Err) + ")");
  }

  bool HasMain = std::any_of(Prog.Procs.begin(), Prog.Procs.end(),
                             [](const ProcDecl &P) { return P.Name == "main"; });
  if (HasMain) {
    Span S("hyper.ni");
    NIConfig NC;
    NC.Jobs = Jobs;
    NonInterferenceHarness H(Prog, "main", NC);
    NIReport R = H.run();
    S.count("runs", static_cast<double>(R.Runs));
    S.count("secure", R.secure() ? 1 : 0);
  }
}

struct ProgramItem {
  std::string Name, Path, Expect;
  std::string Source; ///< read from Path when empty
};

/// Runs every program item three times: an untimed warm-up (so interning
/// and first-touch costs fall outside both timed passes), then once
/// untraced and once traced, alternating which goes first. Returns the two
/// wall-time sums in milliseconds.
std::pair<double, double> runPrograms(const std::vector<ProgramItem> &Items) {
  double Untraced = 0, Traced = 0;
  for (size_t I = 0; I < Items.size(); ++I) {
    bool Ok = true;
    std::string Source = Items[I].Source;
    if (Source.empty())
      Source = slurp(Items[I].Path, Ok);
    if (!Ok) {
      Failures.add(Items[I].Path + ": cannot read");
      continue;
    }
    // Errors are recorded by the traced pass only: the warm-up and the
    // untraced pass drop what they add, and nothing else.
    auto Pass = [&](bool Traced) {
      Rec.Enabled = Traced;
      const size_t Before = Failures.List.size();
      programPass(Items[I].Name, Items[I].Path, Source, Items[I].Expect);
      if (!Traced)
        Failures.List.resize(Before);
    };
    Pass(false);
    for (int P = 0; P < 2; ++P) {
      const bool On = (P == 0) == (I % 2 == 0);
      int64_t T0 = nowNs();
      Pass(On);
      double Ms = static_cast<double>(nowNs() - T0) / 1e6;
      (On ? Traced : Untraced) += Ms;
    }
  }
  Rec.Enabled = true;
  return {Untraced, Traced};
}

/// The campaign's per-seed loop, serial, with a span per library call:
/// generateProgram, DifferentialOracle::evaluate, shrinkProgram. The
/// classifications must match the CLI report. With \p Generated set, each
/// generated program is queued there for the per-program layer pass.
void fuzzPass(uint64_t BaseSeed, unsigned Seeds, const std::string &RefPath,
              std::vector<ProgramItem> *Generated) {
  CampaignConfig CC;
  const std::string Label = "fuzz " + std::to_string(BaseSeed);
  DifferentialOracle Oracle(CC.Oracle);
  ShrinkConfig SC = CC.Shrink;
  SC.Oracle = CC.Oracle;
  std::string Findings;
  unsigned NumFindings = 0;
  for (unsigned I = 0; I < Seeds; ++I) {
    GenConfig GC = CC.Gen;
    GC.Seed = deriveSeed(BaseSeed, I);
    CurrentUnit = Label;
    GeneratedProgram GP;
    {
      Span S("testgen.gen");
      GP = generateProgram(GC);
      S.count("statements", GP.Statements);
    }
    OracleResult OR;
    {
      Span S("fuzz.oracle");
      OR = Oracle.evaluate(GP.Source, GP.OutputTainted, GC.Seed);
      S.count("finding", OR.Class != OracleClass::Agree ? 1 : 0);
    }
    if (Generated)
      Generated->push_back(
          {Label + " seed " + std::to_string(I), "", "-", GP.Source});
    if (OR.Class == OracleClass::Agree)
      continue;
    ++NumFindings;
    Findings += std::to_string(I) + ":" + oracleClassName(OR.Class) + " ";
    if (OR.Class == OracleClass::GeneratorInvalid)
      continue;
    Span S("fuzz.shrink");
    ShrinkResult SR =
        shrinkProgram(GP.Source, GP.OutputTainted, OR.Class, GC.Seed, SC);
    S.count("oracle_runs", SR.Stats.OracleRuns);
    S.count("reductions", SR.Stats.Reductions);
  }
  // The CLI report lists findings as "seed_index" / "class" pairs; the
  // replay must reproduce exactly that list.
  bool Ok = true;
  std::string Ref = slurp(RefPath, Ok);
  std::string Want;
  for (size_t P = 0; (P = Ref.find("\"seed_index\": ", P)) != std::string::npos;
       ++P) {
    size_t C = Ref.find("\"class\": \"", P);
    size_t E = Ref.find('"', C + 10);
    Want += Ref.substr(P + 14, Ref.find(',', P) - P - 14) + ":" +
            Ref.substr(C + 10, E - C - 10) + " ";
  }
  if (!Ok || Want != Findings)
    Failures.add("fuzz base seed " + std::to_string(BaseSeed) +
                 ": findings [" + Findings + "] != CLI report [" + Want + "]");
  CurrentUnit = Label;
  Span Marker("fuzz.findings");
  Marker.count("findings", NumFindings);
}

/// \p Repeats runCampaign calls, after an untimed warm-up of the same
/// campaign so each span compares with a CLI invocation rather than with
/// first-touch costs of this long-lived process.
void campaignPass(uint64_t BaseSeed, unsigned Seeds, unsigned Repeats) {
  CurrentUnit = "campaign " + std::to_string(BaseSeed);
  CampaignConfig CC;
  CC.BaseSeed = BaseSeed;
  CC.NumSeeds = Seeds;
  CC.Jobs = Jobs;
  Rec.Enabled = false;
  runCampaign(CC);
  Rec.Enabled = true;
  for (unsigned I = 0; I < Repeats; ++I) {
    Span S("fuzz.campaign");
    CampaignReport R = runCampaign(CC);
    S.count("seeds", R.SeedsRun);
    if (!R.clean())
      Failures.add("campaign " + std::to_string(BaseSeed) + ": fatal class");
  }
}

struct RequestItem {
  ServiceRequest Req;
  std::string Label, ReportPath, CertPath;
};

/// Replays the queued requests through one Session from \p Threads closed
/// loops, as the daemon's workers would. Returns the replay wall time.
double replay(const std::vector<RequestItem> &Items, unsigned Threads) {
  Session Sess;
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Items.size();) {
      const RequestItem &It = Items[I];
      CurrentUnit = It.Label;
      ServiceResponse Resp;
      {
        Span S("service.handle");
        Resp = Sess.handle(It.Req);
        S.count("program_cache_hit", Resp.ProgramCacheHit ? 1 : 0);
        S.count("uses_cache", It.Req.V != ServiceRequest::Verb::Analyze);
      }
      bool Ok = true;
      if (Resp.TimedOut || Resp.Report != slurp(It.ReportPath, Ok) || !Ok)
        Failures.add(It.Label + ": service report differs from the CLI");
      if (It.CertPath != "-" && (Resp.Cert != slurp(It.CertPath, Ok) || !Ok))
        Failures.add(It.Label + ": service certificate differs from the CLI");
    }
  };
  int64_t T0 = nowNs();
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return static_cast<double>(nowNs() - T0) / 1e6;
}

std::optional<ServiceRequest::Verb> verbByName(const std::string &V) {
  if (V == "verify")
    return ServiceRequest::Verb::Verify;
  if (V == "validity")
    return ServiceRequest::Verb::Validity;
  if (V == "analyze")
    return ServiceRequest::Verb::Analyze;
  return std::nullopt;
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: trace_layers <plan> <spans-out>\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "trace_layers: refusing to measure an assert-enabled "
                       "(non-Release) build\n");
  return 2;
#endif
  std::ifstream Plan(Argv[1]);
  if (!Plan) {
    std::fprintf(stderr, "trace_layers: cannot open plan %s\n", Argv[1]);
    return 2;
  }

  Rec.Enabled = true;
  std::vector<ProgramItem> Programs;
  std::vector<RequestItem> Requests;
  std::ostringstream Summary;
  double UntracedMs = 0, TracedMs = 0, ProgramRssMb = 0;
  // Queued programs run before the next fuzz, campaign or replay step, so
  // the verifier's peak RSS is read before those passes allocate.
  auto FlushPrograms = [&] {
    if (Programs.empty())
      return;
    auto [U, T] = runPrograms(Programs);
    UntracedMs += U, TracedMs += T;
    Programs.clear();
    ProgramRssMb = peakRssMb();
  };
  std::string Line;
  while (std::getline(Plan, Line)) {
    std::istringstream In(Line);
    std::string Kind;
    In >> Kind;
    if (Kind == "jobs") {
      In >> Jobs;
    } else if (Kind == "program") {
      ProgramItem P;
      In >> P.Name >> P.Path >> P.Expect;
      Programs.push_back(P);
    } else if (Kind == "fuzz" || Kind == "campaign") {
      FlushPrograms();
      uint64_t Base = 0;
      unsigned Seeds = 0;
      std::string Ref;
      int Layers = 0;
      unsigned Repeats = 1;
      In >> Base >> Seeds;
      if (Kind == "fuzz") {
        In >> Ref >> Layers;
        fuzzPass(Base, Seeds, Ref, Layers ? &Programs : nullptr);
      } else {
        In >> Repeats;
        campaignPass(Base, Seeds, Repeats);
      }
    } else if (Kind == "request") {
      RequestItem R;
      std::string Verb, Path;
      int Emit = 0;
      In >> Verb >> Emit >> R.Req.Name >> Path >> R.ReportPath >> R.CertPath;
      std::optional<ServiceRequest::Verb> V = verbByName(Verb);
      bool Ok = V.has_value();
      R.Req.Source = slurp(Path, Ok);
      if (!V || !Ok) {
        Failures.add("bad request line: " + Line);
        continue;
      }
      R.Req.V = *V;
      R.Req.EmitCert = Emit != 0;
      R.Label = Verb + " " + R.Req.Name;
      Requests.push_back(std::move(R));
    } else if (Kind == "replay") {
      FlushPrograms();
      unsigned Threads = 1;
      In >> Threads;
      double Wall = replay(Requests, Threads);
      Summary << ",\"replay_wall_ms\":" << Wall
              << ",\"replay_threads\":" << Threads;
      Requests.clear();
    } else if (!Kind.empty()) {
      std::fprintf(stderr, "trace_layers: bad plan line: %s\n", Line.c_str());
      return 2;
    }
  }
  FlushPrograms();

  if (!Rec.write(Argv[2])) {
    std::fprintf(stderr, "trace_layers: cannot write %s\n", Argv[2]);
    return 2;
  }
  std::printf("{\"correct\":%s,\"untraced_ms\":%.6f,\"traced_ms\":%.6f,"
              "\"program_peak_rss_mb\":%.3f%s,\"errors\":[",
              Failures.List.empty() ? "true" : "false", UntracedMs, TracedMs,
              ProgramRssMb, Summary.str().c_str());
  for (size_t I = 0; I < Failures.List.size(); ++I)
    std::printf("%s\"%s\"", I ? "," : "", jsonEscape(Failures.List[I]).c_str());
  std::printf("]}\n");
  return 0;
}
