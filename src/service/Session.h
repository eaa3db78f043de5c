//===-- service/Session.h - Reusable verification service -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library service layer the serve daemon (and any embedder) drives:
/// a `Session` owns everything the one-shot CLI rebuilds per invocation —
/// the shared ThreadPool (via ThreadPool::shared()), the process-wide
/// value-intern table, and a bounded LRU cache of parsed programs, each
/// with its own validity-verdict memo — and exposes a request API covering
/// the five subsystems: verify, validity, analyze, NI, fuzz.
///
/// Warm-cache contract: a resubmitted source skips the parse phase, and
/// its `verify` and `validity` requests replay each spec's Def. 3.1
/// verdict from the entry's content-keyed `SpecVerdictMemo` instead of
/// re-running the validity checker (the stable metrics counter
/// `validity.verdict_memo.hits` grows, `.computed` does not). A replayed
/// verdict carries the same diagnostics and certificate unit, so every
/// response is byte-identical cold or warm, at any `Jobs`, under any
/// interleaving of concurrent requests (chunk outcomes are functions of
/// global item indices, never of the executing worker; see DESIGN §11).
/// `verify`, `verify` with EmitCert and `validity` share one verdict per
/// spec. Timed-out verdicts are never stored, and a budgeted request whose
/// spec is being computed by another request computes it privately under
/// its own budget instead of waiting.
///
/// Thread model: every method is safe to call from multiple request
/// threads concurrently. Requests multiplex onto the one shared pool;
/// a request thread waiting for its chunks helps drain the pool's queues,
/// so concurrent requests cannot deadlock the pool.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SERVICE_SESSION_H
#define COMMCSL_SERVICE_SESSION_H

#include "fuzz/Campaign.h"
#include "hyperviper/Driver.h"
#include "verifier/SpecVerdictMemo.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace commcsl {

/// Session-wide defaults and bounds.
struct SessionOptions {
  /// Default worker threads per request (0 = hardware concurrency); a
  /// request's own Jobs field overrides it.
  unsigned Jobs = 0;
  /// Verifier triage fast path for verify requests.
  bool Triage = false;
  /// Parsed programs kept warm (LRU beyond this). Evicting a program also
  /// drops its verdict memo.
  size_t MaxCachedPrograms = 32;
};

/// One service request. `Verb` selects the subsystem; the source-based
/// verbs take the program text inline (the daemon has no filesystem
/// contract with its clients).
struct ServiceRequest {
  enum class Verb {
    Verify,   ///< full pipeline; optionally followed by the NI harness
    Validity, ///< resource-spec validity (Def. 3.1) only
    Analyze,  ///< static information-flow pre-analysis only
    NI,       ///< empirical non-interference harness only
    Fuzz,     ///< differential soundness-fuzzing campaign
  };
  Verb V = Verb::Verify;
  std::string Source;
  std::string Name = "<request>"; ///< labels diagnostics, like a CLI path
  std::string Proc;     ///< NI (and Verify-with-NI): procedure to sweep
  unsigned Jobs = 0;    ///< 0 = session default
  bool Triage = false;  ///< verify: static fast path
  bool NoValidity = false; ///< verify: skip Def. 3.1 checking
  /// Verify: emit a checkable proof certificate (cert/Cert.h) into the
  /// response. Forces the full pipeline (triage is disabled so every
  /// obligation is actually discharged and recorded). The warm-cache
  /// contract extends to certificates: a resubmitted source returns a
  /// byte-identical certificate, cold or warm, at any Jobs.
  bool EmitCert = false;
  /// Wall-clock budget in milliseconds for the request's validity tiers
  /// (verify and validity verbs). 0 = unlimited. When it fires the request
  /// comes back with TimedOut set and the daemon answers with a typed
  /// `timeout` error. Exhaustion drains gracefully — dispatched pool work
  /// finishes, nothing is torn down — and the program stays cached; the
  /// cut-short verdict is not memoized.
  uint64_t BudgetMs = 0;
  /// Cap on concrete check instances (bounded + random tiers) across the
  /// request, same unit as BoundedChecks + RandomChecks. 0 = unlimited.
  uint64_t MaxSteps = 0;
  CampaignConfig Fuzz;  ///< fuzz only
};

/// One service response. `Report` is the user-facing payload and is
/// byte-identical to what the one-shot CLI prints (stderr diagnostics
/// followed by stdout lines) for the corresponding invocation.
struct ServiceResponse {
  bool Ok = true; ///< verdict: verified / valid / clean / secure
  int Exit = 0;   ///< the CLI's exit code for the same input
  std::string Report;
  /// Proof certificate text (verify with EmitCert only; empty otherwise or
  /// when the program failed to parse). Byte-identical to what the CLI's
  /// `--emit-cert` writes for the same source.
  std::string Cert;
  /// True when the request's program came from the warm program cache.
  bool ProgramCacheHit = false;
  /// True when the request's budget (BudgetMs/MaxSteps) fired before a
  /// verdict was reached. Ok is false and Report explains; the daemon
  /// turns this into a typed `timeout` error line.
  bool TimedOut = false;
};

/// Aggregate session counters for the stats endpoint.
struct SessionStats {
  uint64_t Requests = 0;
  uint64_t ProgramCacheHits = 0;
  uint64_t ProgramCacheMisses = 0;
  uint64_t ProgramsCached = 0;
};

/// The long-lived service object. See the file comment for the ownership
/// and determinism story.
class Session {
public:
  explicit Session(SessionOptions Options = {});

  /// Dispatches on the request's verb.
  ServiceResponse handle(const ServiceRequest &Request);

  ServiceResponse verify(const ServiceRequest &Request);
  ServiceResponse validity(const ServiceRequest &Request);
  ServiceResponse analyze(const ServiceRequest &Request);
  ServiceResponse ni(const ServiceRequest &Request);
  ServiceResponse fuzz(const ServiceRequest &Request);

  SessionStats stats() const;

  /// Drops every cached program and its verdict memo (maintenance hook).
  void resetCaches();

private:
  /// A parsed program plus the validity verdicts its requests computed.
  /// Cached entries are shared_ptrs so eviction cannot invalidate a request
  /// mid-flight: an in-flight request keeps its entry (program, memo and
  /// all) alive until it completes.
  struct CachedProgram {
    ParsedUnit Unit;
    std::shared_ptr<SpecVerdictMemo> Verdicts =
        std::make_shared<SpecVerdictMemo>();
    uint64_t LastUse = 0;
  };

  /// The cached parse of \p Source, parsing (and inserting) on a miss.
  /// Sets \p WasHit for the response's cache flag.
  std::shared_ptr<CachedProgram> obtain(const std::string &Source,
                                        const std::string &Name,
                                        bool &WasHit);

  DriverOptions driverOptions(const ServiceRequest &Request,
                              const std::shared_ptr<CachedProgram> &P) const;

  SessionOptions Options;
  mutable std::mutex Mu;
  std::unordered_map<std::string, std::shared_ptr<CachedProgram>> Programs;
  uint64_t UseClock = 0;
  uint64_t Requests = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
};

} // namespace commcsl

#endif // COMMCSL_SERVICE_SESSION_H
