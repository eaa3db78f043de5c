//===-- verifier/CertEmit.cpp - Certificate emission -----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "verifier/CertEmit.h"

#include "absint/Differencing.h"
#include "absint/TermIO.h"
#include "cert/Algebra.h"
#include "cert/Check.h"
#include "cert/Evidence.h"
#include "solver/Solver.h"

#include <cassert>
#include <unordered_map>

using namespace commcsl;
using absint::AOp;

namespace {

/// Memoized term -> pool-id translation. Terms enter the pool the way the
/// solver sees them (solverArgs): n-ary sums, products, conjunctions and
/// disjunctions as binary chains, which is the shape the independent
/// checker replays its entailment procedure on. Interning on both sides
/// makes the mapping structural, so shared subterms stay shared.
class PoolBuilder {
public:
  PoolBuilder(cert::TermPool &Pool, absint::TermFactory &F)
      : Pool(Pool), F(F) {}

  uint32_t idOf(TermRef T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    uint32_t Id = 0;
    SolverArgs Args = solverArgs(F, T);
    switch (T->K) {
    case AOp::Const:
      Id = Pool.constant(T->Val);
      break;
    case AOp::Sym:
      Id = Pool.sym(T->SymId, T->Str);
      break;
    case AOp::Not:
      Id = Pool.unary(UnaryOp::Not, idOf(Args[0]));
      break;
    case AOp::Ite:
      Id = Pool.builtin(BuiltinKind::Ite,
                        {idOf(Args[0]), idOf(Args[1]), idOf(Args[2])});
      break;
    case AOp::Bi: {
      std::vector<uint32_t> Ids;
      for (TermRef A : Args)
        Ids.push_back(idOf(A));
      Id = Pool.builtin(T->B, std::move(Ids));
      break;
    }
    default:
      Id = Pool.binary(binaryOpOf(T->K), idOf(Args[0]), idOf(Args[1]));
      break;
    }
    Memo.emplace(T, Id);
    return Id;
  }

private:
  static BinaryOp binaryOpOf(AOp K) {
    switch (K) {
    case AOp::Add:
      return BinaryOp::Add;
    case AOp::Mul:
      return BinaryOp::Mul;
    case AOp::Div:
      return BinaryOp::Div;
    case AOp::Mod:
      return BinaryOp::Mod;
    case AOp::Eq:
      return BinaryOp::Eq;
    case AOp::Lt:
      return BinaryOp::Lt;
    case AOp::Le:
      return BinaryOp::Le;
    case AOp::And:
      return BinaryOp::And;
    default:
      assert(K == AOp::Or && "not a binary operator");
      return BinaryOp::Or;
    }
  }

  cert::TermPool &Pool;
  absint::TermFactory &F;
  std::unordered_map<TermRef, uint32_t> Memo;
};

/// Flattens a split tree pre-order: guard text for interior nodes, "" for
/// leaves (including a missing subtree — replay treats both identically).
void flattenTree(const absint::SplitNode *N, std::vector<std::string> &Out) {
  if (!N || !N->Guard) {
    Out.emplace_back();
    return;
  }
  Out.push_back(absint::printTerm(N->Guard));
  flattenTree(N->Then.get(), Out);
  flattenTree(N->Else.get(), Out);
}

} // namespace

cert::CertProcUnit commcsl::buildProcCertUnit(const ProofLog &Log,
                                              absint::TermFactory &F,
                                              const std::string &Name,
                                              bool Ok) {
  cert::CertProcUnit U;
  U.Name = Name;
  U.Ok = Ok;
  PoolBuilder B(U.Pool, F);

  U.Facts.reserve(Log.Facts.size());
  for (const ProofFact &F : Log.Facts) {
    cert::CertFact CF;
    CF.K = F.K == ProofFact::Kind::Eq ? cert::CertFact::Kind::Eq
                                      : cert::CertFact::Kind::True;
    CF.A = B.idOf(F.A);
    CF.B = F.B ? B.idOf(F.B) : 0;
    U.Facts.push_back(CF);
  }

  bool AllObOk = true;
  U.Obligations.reserve(Log.Obligations.size());
  for (const ProofObligation &Ob : Log.Obligations) {
    cert::CertObligation CO;
    CO.Label = Ob.Label;
    CO.Ok = Ob.Ok;
    AllObOk &= Ob.Ok;
    CO.Queries.reserve(Ob.Queries.size());
    for (const ProofQuery &Q : Ob.Queries) {
      cert::CertQuery CQ;
      CQ.IsEq = Q.IsEq;
      CQ.A = B.idOf(Q.A);
      CQ.B = Q.B ? B.idOf(Q.B) : 0;
      CQ.Proved = Q.Proved;
      CQ.Ctx = Q.Ctx;
      CO.Queries.push_back(std::move(CQ));
    }
    U.Obligations.push_back(std::move(CO));
  }

  // A rejection no failed query explains is structural (missing guard
  // fraction, heap misuse, racing par branches, ...).
  U.StructuralFail = !Ok && AllObOk;
  return U;
}

cert::CertSpecUnit commcsl::buildSpecCertUnit(const ResourceSpecDecl &Spec,
                                              const Program &Prog,
                                              const ValidityConfig &Cfg,
                                              const ValidityResult &R,
                                              bool Forge) {
  cert::CertSpecUnit U;
  U.Name = Spec.Name;
  U.Valid = R.Valid || Forge;
  U.ScopeLo = Spec.ScopeIntLo;
  U.ScopeHi = Spec.ScopeIntHi;
  U.ScopeBound = Spec.ScopeCollectionBound;
  U.StatesCap = Cfg.MaxStates;
  U.ArgsCap = Cfg.MaxArgs;

  cert::SpecEvidence Ev = cert::computeSpecEvidence(
      Spec, &Prog, U.StatesCap, U.ArgsCap, cert::SampleDraws);
  U.NumStates = Ev.NumStates;
  U.NumAlphaPairs = Ev.NumAlphaPairs;
  U.ArgCounts = Ev.ArgCounts;
  U.SampleCount = Ev.SampleCount;
  U.SampleDigest = Ev.SampleDigest;

  cert::FamilyMatch FM = cert::matchFamily(Spec);
  U.Fam = FM.Fam;
  U.FamilyOp = FM.Op;

  U.BoundedChecks = R.BoundedChecks;
  U.RandomChecks = R.RandomChecks;

  // Differencing-tier evidence: the update templates and every proved
  // obligation's split tree, recorded verbatim for search-free replay.
  if (R.Absint && R.Absint->Applicable) {
    cert::CertAbsSection AS;
    AS.Unbounded = R.Unbounded;
    AS.NumComps = static_cast<uint32_t>(R.Absint->Comps.size());
    for (const absint::ActionAbs &A : R.Absint->Actions) {
      if (!A.U)
        continue;
      AS.Templates.emplace_back(A.Name, absint::printTerm(A.U));
      if (A.Pre == absint::ObStatus::Proved) {
        cert::CertAbsOb Ob;
        Ob.IsPre = true;
        Ob.ActionA = A.Name;
        flattenTree(A.PreTree.get(), Ob.Tree);
        AS.Obligations.push_back(std::move(Ob));
      }
    }
    for (const absint::PairAbs &P : R.Absint->Pairs) {
      if (P.Comm != absint::ObStatus::Proved)
        continue;
      cert::CertAbsOb Ob;
      Ob.IsPre = false;
      Ob.ActionA = P.First;
      Ob.ActionB = P.Second;
      flattenTree(P.Tree.get(), Ob.Tree);
      AS.Obligations.push_back(std::move(Ob));
    }
    U.Absint = std::move(AS);
  }

  if (!U.Valid && R.CE) {
    cert::CertCE CE;
    switch (R.CE->Prop) {
    case ValidityCounterexample::Property::Precondition:
      CE.P = cert::CertCE::Prop::Precondition;
      break;
    case ValidityCounterexample::Property::Commutativity:
      CE.P = cert::CertCE::Prop::Commutativity;
      break;
    case ValidityCounterexample::Property::History:
      CE.P = cert::CertCE::Prop::History;
      break;
    case ValidityCounterexample::Property::Invariant:
      CE.P = cert::CertCE::Prop::Invariant;
      break;
    }
    CE.ActionA = R.CE->ActionA;
    CE.ActionB = R.CE->ActionB;
    CE.V1 = R.CE->V1;
    CE.V2 = R.CE->V2;
    CE.Arg1 = R.CE->Arg1;
    CE.Arg2 = R.CE->Arg2;
    CE.AlphaLeft = R.CE->AlphaLeft;
    CE.AlphaRight = R.CE->AlphaRight;
    U.CE = std::move(CE);
  }
  return U;
}
