//===-- service/Session.cpp - Reusable verification service ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "service/Session.h"

#include "hyperviper/Analyze.h"
#include "support/trace/Metrics.h"
#include "support/trace/Trace.h"

using namespace commcsl;

namespace {

/// Counts a service request in the process metrics registry. Request
/// arrival order depends on client scheduling, so everything here is
/// Varies.
void countRequest(const char *Verb, bool CacheHit) {
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("service.requests", Stability::Varies).add(1);
  M.counter(std::string("service.requests_") + Verb, Stability::Varies)
      .add(1);
  M.counter(CacheHit ? "service.program_cache_hits"
                     : "service.program_cache_misses",
            Stability::Varies)
      .add(1);
}

/// The request's cooperative budget, or null when unlimited. One budget
/// object spans every spec the request checks, so the caps are per
/// request, not per spec.
std::shared_ptr<CheckBudget> makeBudget(const ServiceRequest &Request) {
  if (Request.BudgetMs == 0 && Request.MaxSteps == 0)
    return nullptr;
  return std::make_shared<CheckBudget>(Request.BudgetMs, Request.MaxSteps);
}

/// Marks \p Resp timed out when \p Budget fired. The program stays
/// cached; the verdict memo already declined the cut-short verdict.
void noteTimeout(const std::shared_ptr<CheckBudget> &Budget,
                 ServiceResponse &Resp) {
  if (!Budget || !Budget->fired())
    return;
  Resp.TimedOut = true;
  Resp.Ok = false;
  Resp.Exit = 1;
  MetricsRegistry::global()
      .counter("service.timeouts", Stability::Varies)
      .add(1);
}

} // namespace

Session::Session(SessionOptions Options) : Options(Options) {}

ServiceResponse Session::handle(const ServiceRequest &Request) {
  switch (Request.V) {
  case ServiceRequest::Verb::Verify:
    return verify(Request);
  case ServiceRequest::Verb::Validity:
    return validity(Request);
  case ServiceRequest::Verb::Analyze:
    return analyze(Request);
  case ServiceRequest::Verb::NI:
    return ni(Request);
  case ServiceRequest::Verb::Fuzz:
    return fuzz(Request);
  }
  return {};
}

std::shared_ptr<Session::CachedProgram>
Session::obtain(const std::string &Source, const std::string &Name,
                bool &WasHit) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Programs.find(Source);
    if (It != Programs.end()) {
      It->second->LastUse = ++UseClock;
      ++CacheHits;
      WasHit = true;
      return It->second;
    }
  }

  // Parse outside the lock; a racing request for the same source may get
  // here too, in which case the first insert wins and the loser adopts it
  // (one entry per source keeps the verdict memo shared).
  auto Fresh = std::make_shared<CachedProgram>();
  {
    Driver D; // parse phase only; driver options are irrelevant to it
    TraceSpan Span("service", [&] { return "parse " + Name; });
    Fresh->Unit = D.parseAndCheck(Source, Name);
  }

  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = Programs.emplace(Source, Fresh);
  It->second->LastUse = ++UseClock;
  if (!Inserted) {
    ++CacheHits;
    WasHit = true;
    return It->second;
  }
  ++CacheMisses;
  WasHit = false;
  // LRU bound: evict the stalest entry. In-flight requests holding the
  // evicted shared_ptr keep it alive until they finish; only the warm
  // lookup path loses it. Eviction may erase the fresh entry itself (a
  // capacity of 0 caches nothing), so return our own reference to it.
  while (Programs.size() > Options.MaxCachedPrograms) {
    auto Oldest = Programs.begin();
    for (auto I = Programs.begin(); I != Programs.end(); ++I)
      if (I->second->LastUse < Oldest->second->LastUse)
        Oldest = I;
    Programs.erase(Oldest);
  }
  return Fresh;
}

DriverOptions
Session::driverOptions(const ServiceRequest &Request,
                       const std::shared_ptr<CachedProgram> &P) const {
  DriverOptions O;
  O.Jobs = Request.Jobs != 0 ? Request.Jobs : Options.Jobs;
  O.Triage = Request.Triage || Options.Triage;
  O.Verifier.SkipValidityCheck = Request.NoValidity;
  O.Verifier.EmitCert = Request.EmitCert;
  O.Verifier.VerdictMemo = P->Verdicts;
  return O;
}

ServiceResponse Session::verify(const ServiceRequest &Request) {
  ServiceResponse Resp;
  std::shared_ptr<CachedProgram> P =
      obtain(Request.Source, Request.Name, Resp.ProgramCacheHit);
  countRequest("verify", Resp.ProgramCacheHit);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Requests;
  }

  std::shared_ptr<CheckBudget> Budget = makeBudget(Request);
  DriverOptions DO = driverOptions(Request, P);
  DO.Verifier.Validity.Budget = Budget;
  Driver D(DO);
  ParsedUnit Unit = P->Unit; // relabel under the request's name
  Unit.Name = Request.Name;
  DriverResult R = D.verifyParsed(Unit);

  // Byte-for-byte the one-shot CLI's output for this file: the stderr
  // diagnostics block (printed only on rejection), the stdout verdict
  // line, then the optional NI block.
  if (!R.Verified)
    Resp.Report += R.Diags.str(Request.Name);
  Resp.Report += formatVerdictLine(Request.Name, R.Verified);
  Resp.Ok = R.Verified;
  Resp.Exit = R.Verified ? 0 : 1;
  Resp.Cert = R.Cert;

  if (!Request.Proc.empty() && R.ParseOk) {
    NIReport Report = D.runEmpirical(R, Request.Proc);
    Resp.Report += formatNIBlock(Report);
    if (!Report.secure()) {
      Resp.Ok = false;
      Resp.Exit = 1;
    }
  }

  noteTimeout(Budget, Resp);
  return Resp;
}

ServiceResponse Session::validity(const ServiceRequest &Request) {
  ServiceResponse Resp;
  std::shared_ptr<CachedProgram> P =
      obtain(Request.Source, Request.Name, Resp.ProgramCacheHit);
  countRequest("validity", Resp.ProgramCacheHit);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Requests;
  }

  if (!P->Unit.Ok) {
    Resp.Report = P->Unit.Diags.str(Request.Name) +
                  formatVerdictLine(Request.Name, false);
    Resp.Ok = false;
    Resp.Exit = 1;
    return Resp;
  }

  std::shared_ptr<CheckBudget> Budget = makeBudget(Request);
  VerifierConfig VC;
  VC.Validity.Jobs = Request.Jobs != 0 ? Request.Jobs : Options.Jobs;
  VC.Validity.Budget = Budget;
  VC.VerdictMemo = P->Verdicts;
  DiagnosticEngine Diags;
  Verifier V(*P->Unit.Prog, Diags, VC);
  std::string Lines;
  bool AllValid = true;
  for (const ResourceSpecDecl &Spec : P->Unit.Prog->Specs) {
    // A fired budget stops the walk; specs not reached are simply not
    // reported (the whole response becomes a typed timeout error anyway).
    if (Budget && Budget->fired())
      break;
    bool Ok = V.verifySpec(Spec);
    AllValid &= Ok;
    Lines += "spec " + Spec.Name + ": " + (Ok ? "valid" : "INVALID") + "\n";
  }
  if (!AllValid)
    Resp.Report += Diags.str(Request.Name);
  Resp.Report += Lines;
  Resp.Ok = AllValid;
  Resp.Exit = AllValid ? 0 : 1;
  noteTimeout(Budget, Resp);
  return Resp;
}

ServiceResponse Session::analyze(const ServiceRequest &Request) {
  ServiceResponse Resp;
  countRequest("analyze", false);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Requests;
  }
  AnalyzeResult AR;
  AR.Files.push_back(analyzeSourceBlock(Request.Source, Request.Name));
  Resp.Report = AR.str();
  Resp.Ok = AR.Files.front().Verdict == "provably-low";
  Resp.Exit = 0; // the CLI's analyze verb exits 0 outside --check mode
  return Resp;
}

ServiceResponse Session::ni(const ServiceRequest &Request) {
  ServiceResponse Resp;
  std::shared_ptr<CachedProgram> P =
      obtain(Request.Source, Request.Name, Resp.ProgramCacheHit);
  countRequest("ni", Resp.ProgramCacheHit);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Requests;
  }

  if (!P->Unit.Ok) {
    Resp.Report = P->Unit.Diags.str(Request.Name) +
                  formatVerdictLine(Request.Name, false);
    Resp.Ok = false;
    Resp.Exit = 1;
    return Resp;
  }

  NIConfig Config;
  Config.Jobs = Request.Jobs != 0 ? Request.Jobs : Options.Jobs;
  NonInterferenceHarness Harness(*P->Unit.Prog, Request.Proc, Config);
  NIReport Report = Harness.run();
  Resp.Report = formatNIBlock(Report);
  Resp.Ok = Report.secure();
  Resp.Exit = Resp.Ok ? 0 : 1;
  return Resp;
}

ServiceResponse Session::fuzz(const ServiceRequest &Request) {
  ServiceResponse Resp;
  countRequest("fuzz", false);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Requests;
  }
  CampaignConfig Config = Request.Fuzz;
  if (Config.Jobs == 0)
    Config.Jobs = Options.Jobs;
  CampaignReport Report = runCampaign(Config);
  Resp.Report = Report.json();
  Resp.Ok = Report.clean();
  Resp.Exit = Report.clean() ? 0 : 1;
  return Resp;
}

SessionStats Session::stats() const {
  SessionStats S;
  std::lock_guard<std::mutex> Lock(Mu);
  S.Requests = Requests;
  S.ProgramCacheHits = CacheHits;
  S.ProgramCacheMisses = CacheMisses;
  S.ProgramsCached = Programs.size();
  return S;
}

void Session::resetCaches() {
  std::lock_guard<std::mutex> Lock(Mu);
  Programs.clear();
}
