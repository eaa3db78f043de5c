//===-- solver/Proof.h - Proof recording for certificates -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recording hooks for checkable certificates (DESIGN §12). A ProofLog is
/// attached to the root solver of a procedure verification; the verifier
/// opens an ObligationScope around every proof-obligation site, and the
/// solver then records each entailment query it answers inside an open
/// obligation — goal, assumption context, verdict.
///
/// Assumptions are interned into a per-procedure fact list; each solver
/// (including branch clones, which copy the log pointer and their assumed
/// prefix) carries the indices of the facts visible to it, so a recorded
/// query's context is exactly the assumption set it was decided under. The
/// internal clones the case-split engine spawns detach from the log: their
/// hypothetical assumptions are part of the decision procedure, not of the
/// verification context, and the independent checker re-runs the same
/// splits itself.
///
/// With `Forge` set, every query answered inside an obligation reports
/// true regardless of the honest verdict — the `--inject accept-all` fault
/// used to demonstrate, end to end, that the independent checker rejects
/// certificates from a broken verifier.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SOLVER_PROOF_H
#define COMMCSL_SOLVER_PROOF_H

#include "absint/Term.h"

#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace commcsl {

/// A (normalized) term of the one term language, as the verifier holds it.
using TermRef = const absint::ATerm *;

/// One assumption fed to a solver (top-level only; the solver's internal
/// decomposition of conjunctions etc. is re-derived by the checker).
struct ProofFact {
  enum class Kind : uint8_t { Eq, True };
  Kind K = Kind::True;
  TermRef A = nullptr;
  TermRef B = nullptr; ///< null for Kind::True
};

/// One entailment query answered inside an obligation.
struct ProofQuery {
  bool IsEq = false;
  TermRef A = nullptr;
  TermRef B = nullptr; ///< null for provesTrue goals
  bool Proved = false;
  std::vector<uint32_t> Ctx; ///< fact indices visible to the querying solver
};

/// One proof obligation (a CommCSL side-condition instance). Ok is the
/// conjunction of the recorded query verdicts; structural failures (missing
/// guard fractions, heap misuse, ...) are not query failures and surface as
/// the proc unit's StructuralFail marker instead.
struct ProofObligation {
  std::string Label;
  bool Ok = true;
  std::vector<ProofQuery> Queries;
};

/// Append-only per-procedure recording sink. Obligations nest (a retroactive
/// PRE discharge opens inside an `allpre` consumption); queries attach to the
/// innermost open obligation, and obligations are emitted in completion
/// order, which is deterministic.
class ProofLog {
public:
  bool Forge = false; ///< report every obligation query as proved

  std::vector<ProofFact> Facts;
  std::vector<ProofObligation> Obligations;

  /// Interns a fact; structurally identical assumptions share one index.
  uint32_t addFact(ProofFact::Kind K, TermRef A, TermRef B) {
    auto Key = std::make_tuple(static_cast<int>(K), A, B);
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Facts.size());
    Facts.push_back({K, A, B});
    Index.emplace(Key, Id);
    return Id;
  }

  void beginObligation(std::string Label) {
    Open.push_back({std::move(Label), true, {}});
  }

  void endObligation() {
    ProofObligation Ob = std::move(Open.back());
    Open.pop_back();
    Ob.Ok = true;
    for (const ProofQuery &Q : Ob.Queries)
      Ob.Ok &= Q.Proved;
    Obligations.push_back(std::move(Ob));
  }

  /// Pops the innermost open obligation without emitting it. Used for
  /// best-effort discharge attempts (the eager PRE check at record time)
  /// whose failure is not a verdict: the attempt is retried later with more
  /// facts, and only the attempt that counts belongs in the certificate.
  void abandonObligation() { Open.pop_back(); }

  bool inObligation() const { return !Open.empty(); }

  void recordQuery(bool IsEq, TermRef A, TermRef B, bool Proved,
                   const std::vector<uint32_t> &Ctx) {
    Open.back().Queries.push_back({IsEq, A, B, Proved, Ctx});
  }

private:
  std::vector<ProofObligation> Open;
  std::map<std::tuple<int, TermRef, TermRef>, uint32_t> Index;
};

/// RAII obligation bracket; a null log makes it a no-op, so the verifier's
/// obligation sites read the same with and without certificate emission.
class ObligationScope {
public:
  ObligationScope(ProofLog *Log, std::string Label) : Log(Log) {
    if (Log)
      Log->beginObligation(std::move(Label));
  }
  ~ObligationScope() {
    if (!Log)
      return;
    if (Abandoned)
      Log->abandonObligation();
    else
      Log->endObligation();
  }
  /// Discard instead of emit on scope exit (best-effort attempts).
  void abandon() { Abandoned = true; }
  ObligationScope(const ObligationScope &) = delete;
  ObligationScope &operator=(const ObligationScope &) = delete;

private:
  ProofLog *Log;
  bool Abandoned = false;
};

} // namespace commcsl

#endif // COMMCSL_SOLVER_PROOF_H
