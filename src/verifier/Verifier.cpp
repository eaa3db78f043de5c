//===-- verifier/Verifier.cpp - CommCSL relational verifier ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "absint/Differencing.h"
#include "rspec/RSpec.h"
#include "solver/Proof.h"
#include "solver/Solver.h"
#include "support/Frac.h"
#include "verifier/CertEmit.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>

using namespace commcsl;

//===----------------------------------------------------------------------===//
// Fractions
//===----------------------------------------------------------------------===//

namespace {

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

/// Symbolic variable environment (one per execution side).
using SymEnv = std::map<std::string, TermRef>;

/// The verifier's term construction: absint's factory, expression
/// translation, and rewrite rules under no facts. One normalizer serves the
/// whole procedure, so already-normal subterms are memo hits; each call gets
/// its own step budget and falls back to the raw term when it blows.
/// Symbolic terms have no size cap: they are DAGs whose tree size may grow
/// exponentially while their node count stays small.
class TermBuilder {
public:
  explicit TermBuilder(const Program &Prog)
      : Prog(Prog), NoFacts(F), Norm(F, NoFacts, {50000, UINT32_MAX}) {}

  absint::TermFactory F;

  /// Evaluates \p E under \p Env: resource-specification functions and
  /// user functions are applied symbolically the same way they are applied
  /// concretely.
  TermRef eval(const Expr &E, const SymEnv &Env) {
    if (TermRef T = absint::translateExpr(F, E, Env, &Prog))
      return Norm.normalizeOrRaw(T);
    // Only on input the type checker rules out (an untyped unbound variable,
    // a call without its function): an unconstrained value per side, which
    // can only make proofs fail, never succeed.
    return F.freshSym("opaque");
  }
  TermRef bi(BuiltinKind B, std::vector<TermRef> Args) {
    return Norm.normalizeOrRaw(F.bi(B, std::move(Args)));
  }
  TermRef ite(TermRef C, TermRef T, TermRef E) {
    return Norm.normalizeOrRaw(F.ite(C, T, E));
  }
  TermRef logNot(TermRef T) { return Norm.normalizeOrRaw(F.notT(T)); }

private:
  const Program &Prog;
  absint::FactCtx NoFacts;
  absint::Normalizer Norm;
};

//===----------------------------------------------------------------------===//
// Relational verification state
//===----------------------------------------------------------------------===//

/// One recorded (or summarized) application of an action on a guard.
struct GuardChunk {
  bool IsSummary = false;
  SourceLoc Loc;
  // Single application (both executions, aligned by control flow).
  TermRef ArgL = nullptr, ArgR = nullptr;
  TermRef RetL = nullptr, RetR = nullptr; ///< null if no returns clause
  bool PreOk = false; ///< relational precondition discharged
  // Summary of an unknown collection of applications.
  TermRef ColL = nullptr, ColR = nullptr; ///< multiset (shared) / seq (unique)
  TermRef RetsL = nullptr, RetsR = nullptr; ///< seq of returns (unique only)
  bool AllPre = false; ///< summary admits a pre-respecting bijection
};

/// Runtime state of a guard (per resource handle and action).
struct GuardRt {
  const ActionDecl *Action = nullptr;
  Frac Held;
  std::vector<GuardChunk> Chunks;

  bool sameAs(const GuardRt &O) const {
    if (!(Held == O.Held) || Chunks.size() != O.Chunks.size())
      return false;
    for (size_t I = 0; I < Chunks.size(); ++I) {
      const GuardChunk &A = Chunks[I];
      const GuardChunk &B = O.Chunks[I];
      if (A.IsSummary != B.IsSummary || A.ArgL != B.ArgL ||
          A.ArgR != B.ArgR || A.ColL != B.ColL || A.ColR != B.ColR ||
          A.PreOk != B.PreOk || A.AllPre != B.AllPre)
        return false;
    }
    return true;
  }
};

/// A shared resource known to the current procedure.
struct ResourceRt {
  const ResourceSpecDecl *Spec = nullptr;
  bool SharedHere = false;
  bool Unshared = false;
  TermRef InitL = nullptr, InitR = nullptr; ///< known only when SharedHere
};

/// A symbolic heap cell with full permission.
struct HeapCell {
  TermRef Loc = nullptr;
  TermRef ValL = nullptr, ValR = nullptr;
};

using GuardKey = std::pair<std::string, std::string>; // (handle, action)

/// Full relational symbolic state.
struct VState {
  SymEnv L, R;
  Solver Facts;
  std::map<std::string, ResourceRt> Resources;
  std::map<GuardKey, GuardRt> Guards;
  std::vector<HeapCell> Heap;

  explicit VState(absint::TermFactory &F) : Facts(F) {}
};

} // namespace

//===----------------------------------------------------------------------===//
// Procedure verification context
//===----------------------------------------------------------------------===//

namespace {

class ProcContext {
public:
  ProcContext(const Program &Prog, DiagnosticEngine &Diags,
              const ProcDecl &Proc, ProofLog *PLog = nullptr)
      : Prog(Prog), Diags(Diags), Proc(Proc), TB(Prog), PLog(PLog) {}

  bool run(unsigned &ObligationsOut);

  absint::TermFactory &factory() { return TB.F; }

private:
  //===------------------------------------------------------------------===//
  // Diagnostics
  //===------------------------------------------------------------------===//
  void error(DiagCode Code, SourceLoc Loc, const std::string &Msg) {
    Diags.error(Code, Loc, "[" + Proc.Name + "] " + Msg);
    Failed = true;
  }

  //===------------------------------------------------------------------===//
  // Expression evaluation (both sides)
  //===------------------------------------------------------------------===//
  TermRef evalL(const Expr &E, VState &S) { return TB.eval(E, S.L); }
  TermRef evalR(const Expr &E, VState &S) { return TB.eval(E, S.R); }

  /// Delimited release: evaluating `declassify e` publishes e, so from
  /// this point the two runs agree on its value. The released equality is
  /// assumed into the fact solver before the enclosing command's own
  /// obligations run (e.g. `output declassify(total)` is low by fiat).
  /// Soundness rests on the operational side: the NI harness only relates
  /// run pairs whose release logs agree, exactly this assumption.
  void releaseDeclassified(const ExprRef &E, VState &S) {
    if (!E)
      return;
    for (const ExprRef &A : E->Args)
      releaseDeclassified(A, S);
    if (E->Kind == ExprKind::Builtin &&
        E->Builtin == BuiltinKind::Declassify)
      S.Facts.assumeEq(evalL(*E->Args[0], S), evalR(*E->Args[0], S));
  }

  /// Applies a one-parameter spec expression (alpha, inv, enabled, history).
  TermRef applyFn1(const ExprRef &Body, const std::string &Param,
                   TermRef Val) {
    SymEnv Env;
    Env[Param] = Val;
    return TB.eval(*Body, Env);
  }

  std::pair<TermRef, TermRef> freshPair(const std::string &Name) {
    return {TB.F.freshSym(Name + "_L"), TB.F.freshSym(Name + "_R")};
  }

  /// A low havoc: one shared symbol for both sides.
  std::pair<TermRef, TermRef> freshLow(const std::string &Name) {
    TermRef T = TB.F.freshSym(Name);
    return {T, T};
  }

  //===------------------------------------------------------------------===//
  // Action precondition discharge (relational, over one recorded pair)
  //===------------------------------------------------------------------===//
  /// \p Required distinguishes the mandatory discharge (unshare / allpre
  /// consumption, where failure is the verdict) from the best-effort eager
  /// attempt at record time, which is retried later with more facts. A
  /// failed best-effort attempt is dropped from the proof log: only the
  /// attempt that counts belongs in the certificate.
  bool dischargePre(const ActionDecl &Action, TermRef ArgL, TermRef ArgR,
                    Solver &Facts, bool Required = true) {
    ObligationScope Ob(PLog, "pre '" + Action.Name + "'");
    ++Obligations;
    bool Ok = [&] {
      for (const ContractAtom &A : Action.Pre) {
        SymEnv EnvL{{Action.ArgName, ArgL}};
        SymEnv EnvR{{Action.ArgName, ArgR}};
        switch (A.AtomKind) {
        case ContractAtom::Kind::Low: {
          if (A.Cond) {
            TermRef CL = TB.eval(*A.Cond, EnvL);
            TermRef CR = TB.eval(*A.Cond, EnvR);
            if (!Facts.provesEq(CL, CR))
              return false;
            TermRef EL = TB.eval(*A.E, EnvL);
            TermRef ER = TB.eval(*A.E, EnvR);
            TermRef Def = TB.F.constant(ValueFactory::unit());
            if (!Facts.provesEq(TB.ite(CL, EL, Def), TB.ite(CR, ER, Def)))
              return false;
            break;
          }
          TermRef EL = TB.eval(*A.E, EnvL);
          TermRef ER = TB.eval(*A.E, EnvR);
          if (!Facts.provesEq(EL, ER))
            return false;
          break;
        }
        case ContractAtom::Kind::Bool: {
          if (!Facts.provesTrue(TB.eval(*A.E, EnvL)) ||
              !Facts.provesTrue(TB.eval(*A.E, EnvR)))
            return false;
          break;
        }
        default:
          break; // rejected by the type checker
        }
      }
      return true;
    }();
    if (!Ok && !Required)
      Ob.abandon();
    return Ok;
  }

  /// True when the action's precondition forces the *entire* argument to be
  /// low (an atom `low(arg)` on the bare argument). Used to strengthen
  /// `allpre` summaries for unique actions to full sequence equality.
  static bool preForcesFullLow(const ActionDecl &Action) {
    for (const ContractAtom &A : Action.Pre)
      if (A.AtomKind == ContractAtom::Kind::Low && !A.Cond &&
          A.E->Kind == ExprKind::Var && A.E->Name == Action.ArgName)
        return true;
    return false;
  }

  //===------------------------------------------------------------------===//
  // Guard helpers
  //===------------------------------------------------------------------===//

  /// Aggregated recorded-arguments term per side (multiset for shared
  /// actions, sequence for unique actions).
  std::pair<TermRef, TermRef> guardArgsTerm(const GuardRt &G) {
    bool Unique = G.Action->Unique;
    TermRef AccL = Unique ? TB.F.constant(ValueFactory::emptySeq())
                          : TB.F.constant(ValueFactory::emptyMultiset());
    TermRef AccR = AccL;
    for (const GuardChunk &C : G.Chunks) {
      if (C.IsSummary) {
        BuiltinKind Join =
            Unique ? BuiltinKind::SeqConcat : BuiltinKind::MsUnion;
        AccL = TB.bi(Join, {AccL, C.ColL});
        AccR = TB.bi(Join, {AccR, C.ColR});
      } else {
        BuiltinKind Add = Unique ? BuiltinKind::SeqAppend : BuiltinKind::MsAdd;
        AccL = TB.bi(Add, {AccL, C.ArgL});
        AccR = TB.bi(Add, {AccR, C.ArgR});
      }
    }
    return {AccL, AccR};
  }

  /// Recorded-returns term per side (unique actions with returns).
  std::pair<TermRef, TermRef> guardRetsTerm(const GuardRt &G) {
    TermRef AccL = TB.F.constant(ValueFactory::emptySeq());
    TermRef AccR = AccL;
    for (const GuardChunk &C : G.Chunks) {
      if (C.IsSummary) {
        assert(C.RetsL && C.RetsR && "unique summary without returns part");
        AccL = TB.bi(BuiltinKind::SeqConcat, {AccL, C.RetsL});
        AccR = TB.bi(BuiltinKind::SeqConcat, {AccR, C.RetsR});
      } else {
        assert(C.RetL && C.RetR && "unique chunk without returns part");
        AccL = TB.bi(BuiltinKind::SeqAppend, {AccL, C.RetL});
        AccR = TB.bi(BuiltinKind::SeqAppend, {AccR, C.RetR});
      }
    }
    return {AccL, AccR};
  }

  /// Checks that every chunk of \p G satisfies PRE (retrying undischarged
  /// applications against the current facts — the retroactive check).
  bool checkAllPre(GuardRt &G, Solver &Facts, bool Required = true) {
    for (GuardChunk &C : G.Chunks) {
      if (C.IsSummary) {
        if (!C.AllPre)
          return false;
        continue;
      }
      if (!C.PreOk)
        C.PreOk = dischargePre(*G.Action, C.ArgL, C.ArgR, Facts, Required);
      if (!C.PreOk)
        return false;
    }
    return true;
  }

  /// Makes a fresh summary chunk for \p Action (collection symbols, and
  /// return-sequence symbols for unique actions with a returns clause).
  GuardChunk freshSummary(const ActionDecl &Action, const std::string &Hint,
                          bool AllPre) {
    GuardChunk C;
    C.IsSummary = true;
    C.AllPre = AllPre;
    auto [L, R] = freshPair(Hint + "_args");
    C.ColL = L;
    C.ColR = R;
    if (Action.Unique && Action.Returns) {
      auto [RL, RR] = freshPair(Hint + "_rets");
      C.RetsL = RL;
      C.RetsR = RR;
    }
    return C;
  }

  /// Emits the relational facts implied by `allpre` on a summary chunk:
  /// the bijection gives equal cardinality; for unique actions, equal
  /// length, and full sequence equality when the precondition forces the
  /// whole argument low.
  void assumeAllPreFacts(const ActionDecl &Action, const GuardChunk &C,
                         Solver &Facts) {
    if (!C.IsSummary)
      return;
    if (Action.Unique) {
      Facts.assumeEq(TB.bi(BuiltinKind::SeqLen, {C.ColL}),
                     TB.bi(BuiltinKind::SeqLen, {C.ColR}));
      if (preForcesFullLow(Action))
        Facts.assumeEq(C.ColL, C.ColR);
      if (C.RetsL)
        Facts.assumeEq(TB.bi(BuiltinKind::SeqLen, {C.RetsL}),
                       TB.bi(BuiltinKind::SeqLen, {C.RetsR}));
    } else {
      Facts.assumeEq(TB.bi(BuiltinKind::MsCard, {C.ColL}),
                     TB.bi(BuiltinKind::MsCard, {C.ColR}));
      if (preForcesFullLow(Action))
        Facts.assumeEq(C.ColL, C.ColR);
    }
  }

  //===------------------------------------------------------------------===//
  // Contracts
  //===------------------------------------------------------------------===//

  /// Maps a contract atom's resource name through \p HandleMap (callee
  /// parameter -> caller handle); identity when the map is empty.
  static std::string mapHandle(const std::map<std::string, std::string> &M,
                               const std::string &Name) {
    auto It = M.find(Name);
    return It == M.end() ? Name : It->second;
  }

  const ActionDecl *atomAction(const ContractAtom &A, VState &S,
                               const std::map<std::string, std::string> &HM) {
    std::string Handle = mapHandle(HM, A.Res);
    auto It = S.Resources.find(Handle);
    if (It == S.Resources.end()) {
      error(DiagCode::VerifyResourceState, A.Loc,
            "guard atom references unknown resource handle '" + Handle + "'");
      return nullptr;
    }
    return It->second.Spec->findAction(A.Action);
  }

  /// Assumes a contract (requires of this procedure, ensures of a callee,
  /// loop invariant after havoc). Guard atoms install guards; spec
  /// variables are bound in \p S's environments.
  /// \p BaseL/\p BaseR optionally replace the state's environments (used
  /// when assuming a callee's ensures over the callee's parameter names);
  /// \p ExportBindings controls whether spec variables bound by guard atoms
  /// become visible in the state afterwards.
  void produceContract(const Contract &C, VState &S,
                       const std::map<std::string, std::string> &HandleMap,
                       const std::map<std::string, std::pair<TermRef, TermRef>>
                           &ArgBindings,
                       const std::string &Hint,
                       const SymEnv *BaseL = nullptr,
                       const SymEnv *BaseR = nullptr,
                       bool ExportBindings = true);

  /// Proves a contract (ensures of this procedure, loop invariant at
  /// entry/after body, ghost assert). Guard atoms check the held guards;
  /// spec variables bind to aggregated argument terms. Returns false (and
  /// diagnoses) on failure.
  bool consumeContract(const Contract &C, VState &S,
                       const std::map<std::string, std::string> &HandleMap,
                       const char *What, SourceLoc Loc);

  //===------------------------------------------------------------------===//
  // Commands
  //===------------------------------------------------------------------===//
  void checkCmd(const CommandRef &C, VState &S);
  void checkBlock(const CommandRef &C, VState &S) {
    for (const CommandRef &Child : C->Children)
      checkCmd(Child, S);
  }
  void checkIf(const CommandRef &C, VState &S);
  void checkWhile(const CommandRef &C, VState &S);
  void checkPar(const CommandRef &C, VState &S);
  void checkCall(const CommandRef &C, VState &S);
  void checkShare(const CommandRef &C, VState &S);
  void checkUnshare(const CommandRef &C, VState &S);
  void checkAtomic(const CommandRef &C, VState &S);

  void setVar(VState &S, const std::string &Name, TermRef L, TermRef R,
              SourceLoc Loc) {
    if (ParamNames.count(Name)) {
      error(DiagCode::VerifyContract, Loc,
            "assignment to parameter '" + Name +
                "' (parameters are immutable)");
      return;
    }
    S.L[Name] = L;
    S.R[Name] = R;
  }

  /// Havocs the variables modified by \p Cmd. When \p Relate is true, the
  /// havoc is low only if the variable is provably low in all of the
  /// provided end states; otherwise the two sides are unrelated.
  void havocModified(const Command &Cmd, VState &S,
                     const std::vector<VState *> &LowWitnesses);

  /// Joins guard maps after branching; identical guards are kept, divergent
  /// ones are summarized (AllPre only when every chunk on both sides checks
  /// out against \p S.Facts, which holds the *pre-branch* facts — required
  /// for soundness of If2's mixed execution pairings).
  void joinGuards(VState &S, VState &A, VState &B, SourceLoc Loc);

  //===------------------------------------------------------------------===//
  // Members
  //===------------------------------------------------------------------===//
  const Program &Prog;
  DiagnosticEngine &Diags;
  const ProcDecl &Proc;
  TermBuilder TB;
  std::set<std::string> ParamNames;
  bool Failed = false;
  unsigned Obligations = 0;
  unsigned FreshCounter = 0;
  ProofLog *PLog = nullptr; ///< certificate recording sink (may be null)
  /// Whether divergent guard records being joined may still be summarized
  /// as PRE-respecting (true for low conditions, false for high ones).
  bool JoinChunksRelatable = true;

  std::string hint(const std::string &Base) {
    return Base + "$" + std::to_string(FreshCounter++);
  }
};

//===----------------------------------------------------------------------===//
// Contract production / consumption
//===----------------------------------------------------------------------===//

void ProcContext::produceContract(
    const Contract &C, VState &S,
    const std::map<std::string, std::string> &HandleMap,
    const std::map<std::string, std::pair<TermRef, TermRef>> &ArgBindings,
    const std::string &Hint, const SymEnv *BaseL, const SymEnv *BaseR,
    bool ExportBindings) {
  const SymEnv &SrcL = BaseL ? *BaseL : S.L;
  const SymEnv &SrcR = BaseR ? *BaseR : S.R;
  // Spec-variable bindings introduced by guard atoms of this contract.
  std::map<std::string, std::pair<TermRef, TermRef>> Bound = ArgBindings;
  // First pass: find allpre'd spec vars so guard installation knows.
  std::set<std::string> AllPreVars;
  for (const ContractAtom &A : C)
    if (A.AtomKind == ContractAtom::Kind::AllPre)
      AllPreVars.insert(A.ArgVar);

  auto EnvWith = [&](bool Left) {
    SymEnv Env = Left ? SrcL : SrcR;
    for (const auto &[Name, LR] : Bound)
      Env[Name] = Left ? LR.first : LR.second;
    return Env;
  };

  for (const ContractAtom &A : C) {
    switch (A.AtomKind) {
    case ContractAtom::Kind::Low: {
      SymEnv EnvL = EnvWith(true), EnvR = EnvWith(false);
      if (A.Cond) {
        TermRef CL = TB.eval(*A.Cond, EnvL);
        TermRef CR = TB.eval(*A.Cond, EnvR);
        S.Facts.assumeEq(CL, CR);
        TermRef Def = TB.F.constant(ValueFactory::unit());
        S.Facts.assumeEq(
            TB.ite(CL, TB.eval(*A.E, EnvL), Def),
            TB.ite(CR, TB.eval(*A.E, EnvR), Def));
        break;
      }
      S.Facts.assumeEq(TB.eval(*A.E, EnvL), TB.eval(*A.E, EnvR));
      break;
    }
    case ContractAtom::Kind::Bool: {
      SymEnv EnvL = EnvWith(true), EnvR = EnvWith(false);
      S.Facts.assumeTrue(TB.eval(*A.E, EnvL));
      S.Facts.assumeTrue(TB.eval(*A.E, EnvR));
      break;
    }
    case ContractAtom::Kind::SGuard:
    case ContractAtom::Kind::UGuard: {
      const ActionDecl *Action = atomAction(A, S, HandleMap);
      if (!Action)
        break;
      std::string Handle = mapHandle(HandleMap, A.Res);
      GuardRt &G = S.Guards[{Handle, A.Action}];
      G.Action = Action;
      Frac Added = A.AtomKind == ContractAtom::Kind::SGuard
                       ? Frac::make(A.FracNum, A.FracDen)
                       : Frac::make(1, 1);
      G.Held = G.Held + Added;
      if (Frac::make(1, 1) < G.Held) {
        error(DiagCode::VerifyResourceState, A.Loc,
              "guard fraction for action '" + A.Action + "' exceeds 1");
      }
      if (!A.ArgsEmpty && !A.ArgVar.empty()) {
        GuardChunk Chunk = freshSummary(*Action, Hint + "_" + A.Action,
                                        AllPreVars.count(A.ArgVar) != 0);
        if (Chunk.AllPre)
          assumeAllPreFacts(*Action, Chunk, S.Facts);
        Bound[A.ArgVar] = {Chunk.ColL, Chunk.ColR};
        G.Chunks.push_back(Chunk);
      }
      break;
    }
    case ContractAtom::Kind::AllPre:
      break; // handled via AllPreVars
    }
  }
  // Export spec-var bindings so later contract clauses can reference them.
  if (ExportBindings) {
    for (const auto &[Name, LR] : Bound) {
      S.L[Name] = LR.first;
      S.R[Name] = LR.second;
    }
  }
}

bool ProcContext::consumeContract(
    const Contract &C, VState &S,
    const std::map<std::string, std::string> &HandleMap, const char *What,
    SourceLoc FallbackLoc) {
  bool Ok = true;
  std::map<std::string, std::pair<TermRef, TermRef>> Bound;

  auto EnvWith = [&](const SymEnv &Base, bool Left) {
    SymEnv Env = Base;
    for (const auto &[Name, LR] : Bound)
      Env[Name] = Left ? LR.first : LR.second;
    return Env;
  };

  for (const ContractAtom &A : C) {
    SourceLoc Loc = A.Loc.isValid() ? A.Loc : FallbackLoc;
    switch (A.AtomKind) {
    case ContractAtom::Kind::Low: {
      ObligationScope Ob(PLog, std::string(What) + ": " + A.str());
      ++Obligations;
      SymEnv EnvL = EnvWith(S.L, true), EnvR = EnvWith(S.R, false);
      if (A.Cond) {
        TermRef CL = TB.eval(*A.Cond, EnvL);
        TermRef CR = TB.eval(*A.Cond, EnvR);
        TermRef Def = TB.F.constant(ValueFactory::unit());
        bool Proved =
            S.Facts.provesEq(CL, CR) &&
            S.Facts.provesEq(
                TB.ite(CL, TB.eval(*A.E, EnvL), Def),
                TB.ite(CR, TB.eval(*A.E, EnvR), Def));
        if (!Proved) {
          error(DiagCode::VerifyEntailment, Loc,
                std::string(What) + ": cannot prove " + A.str());
          Ok = false;
        }
        break;
      }
      if (!S.Facts.provesEq(TB.eval(*A.E, EnvL),
                            TB.eval(*A.E, EnvR))) {
        error(DiagCode::VerifyEntailment, Loc,
              std::string(What) + ": cannot prove " + A.str());
        Ok = false;
      }
      break;
    }
    case ContractAtom::Kind::Bool: {
      ObligationScope Ob(PLog, std::string(What) + ": " + A.str());
      ++Obligations;
      SymEnv EnvL = EnvWith(S.L, true), EnvR = EnvWith(S.R, false);
      if (!S.Facts.provesTrue(TB.eval(*A.E, EnvL)) ||
          !S.Facts.provesTrue(TB.eval(*A.E, EnvR))) {
        error(DiagCode::VerifyEntailment, Loc,
              std::string(What) + ": cannot prove " + A.str());
        Ok = false;
      }
      break;
    }
    case ContractAtom::Kind::SGuard:
    case ContractAtom::Kind::UGuard: {
      ObligationScope Ob(PLog, std::string(What) + ": " + A.str());
      ++Obligations;
      const ActionDecl *Action = atomAction(A, S, HandleMap);
      if (!Action) {
        Ok = false;
        break;
      }
      std::string Handle = mapHandle(HandleMap, A.Res);
      auto It = S.Guards.find({Handle, A.Action});
      Frac Want = A.AtomKind == ContractAtom::Kind::SGuard
                      ? Frac::make(A.FracNum, A.FracDen)
                      : Frac::make(1, 1);
      if (It == S.Guards.end() || !(It->second.Held == Want)) {
        error(DiagCode::VerifyGuardMissing, Loc,
              std::string(What) + ": guard for action '" + A.Action +
                  "' not held with fraction " + Want.str());
        Ok = false;
        break;
      }
      if (A.ArgsEmpty) {
        if (!It->second.Chunks.empty()) {
          error(DiagCode::VerifyEntailment, Loc,
                std::string(What) + ": guard for action '" + A.Action +
                    "' must have an empty argument record");
          Ok = false;
        }
      } else if (!A.ArgVar.empty()) {
        Bound[A.ArgVar] = guardArgsTerm(It->second);
      }
      break;
    }
    case ContractAtom::Kind::AllPre: {
      ObligationScope Ob(PLog, std::string(What) + ": " + A.str());
      ++Obligations;
      const ActionDecl *Action = atomAction(A, S, HandleMap);
      if (!Action) {
        Ok = false;
        break;
      }
      std::string Handle = mapHandle(HandleMap, A.Res);
      auto It = S.Guards.find({Handle, A.Action});
      if (It == S.Guards.end() || !checkAllPre(It->second, S.Facts)) {
        error(DiagCode::VerifyPreUnprovable, Loc,
              std::string(What) + ": cannot prove " + A.str() +
                  " (a recorded application's relational precondition is "
                  "not derivable)");
        Ok = false;
      }
      break;
    }
    }
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Command checking
//===----------------------------------------------------------------------===//

void ProcContext::checkCmd(const CommandRef &C, VState &S) {
  for (const ExprRef &E : C->Exprs)
    releaseDeclassified(E, S);
  switch (C->Kind) {
  case CmdKind::Skip:
    break;
  case CmdKind::VarDecl: {
    if (C->Exprs.empty()) {
      TermRef D = TB.F.constant(C->DeclTy->defaultValue());
      S.L[C->Var] = D;
      S.R[C->Var] = D;
    } else {
      S.L[C->Var] = evalL(*C->Exprs[0], S);
      S.R[C->Var] = evalR(*C->Exprs[0], S);
    }
    break;
  }
  case CmdKind::Assign:
    setVar(S, C->Var, evalL(*C->Exprs[0], S), evalR(*C->Exprs[0], S),
           C->Loc);
    break;
  case CmdKind::Alloc: {
    // Deterministic allocator model: one location symbol for both sides.
    TermRef Loc = TB.F.freshSym(hint("loc"));
    S.Heap.push_back({Loc, evalL(*C->Exprs[0], S), evalR(*C->Exprs[0], S)});
    setVar(S, C->Var, Loc, Loc, C->Loc);
    break;
  }
  case CmdKind::HeapRead: {
    TermRef Addr = evalL(*C->Exprs[0], S);
    for (const HeapCell &Cell : S.Heap) {
      if (Cell.Loc == Addr || S.Facts.provesEq(Cell.Loc, Addr)) {
        setVar(S, C->Var, Cell.ValL, Cell.ValR, C->Loc);
        return;
      }
    }
    error(DiagCode::VerifyHeap, C->Loc,
          "heap read without permission to the location");
    break;
  }
  case CmdKind::HeapWrite: {
    TermRef Addr = evalL(*C->Exprs[0], S);
    for (HeapCell &Cell : S.Heap) {
      if (Cell.Loc == Addr || S.Facts.provesEq(Cell.Loc, Addr)) {
        Cell.ValL = evalL(*C->Exprs[1], S);
        Cell.ValR = evalR(*C->Exprs[1], S);
        return;
      }
    }
    error(DiagCode::VerifyHeap, C->Loc,
          "heap write without permission to the location");
    break;
  }
  case CmdKind::Block:
    checkBlock(C, S);
    break;
  case CmdKind::If:
    checkIf(C, S);
    break;
  case CmdKind::While:
    checkWhile(C, S);
    break;
  case CmdKind::Par:
    checkPar(C, S);
    break;
  case CmdKind::CallProc:
    checkCall(C, S);
    break;
  case CmdKind::Share:
    checkShare(C, S);
    break;
  case CmdKind::Unshare:
    checkUnshare(C, S);
    break;
  case CmdKind::Atomic:
    checkAtomic(C, S);
    break;
  case CmdKind::Perform:
  case CmdKind::ResVal:
    error(DiagCode::VerifyResourceState, C->Loc,
          "perform/resval outside atomic block");
    break;
  case CmdKind::AssertGhost:
    consumeContract(C->Asserted, S, {}, "assert", C->Loc);
    break;
  case CmdKind::Output: {
    // Outputs go to the public channel: the emitted value must be low at
    // the point of emission (the paper's I/O extension, Sec. 3.7 (4)).
    ObligationScope Ob(PLog, "output: " + C->Exprs[0]->str());
    ++Obligations;
    if (!S.Facts.provesEq(evalL(*C->Exprs[0], S), evalR(*C->Exprs[0], S)))
      error(DiagCode::VerifyEntailment, C->Loc,
            "output to the public channel must be low: " +
                C->Exprs[0]->str());
    break;
  }
  }
}

void ProcContext::havocModified(const Command &Cmd, VState &S,
                                const std::vector<VState *> &LowWitnesses) {
  std::vector<std::string> Mods;
  Cmd.modifiedVars(Mods);
  for (const std::string &V : Mods) {
    if (!S.L.count(V))
      continue;
    bool Low = !LowWitnesses.empty();
    for (VState *W : LowWitnesses) {
      auto ItL = W->L.find(V);
      auto ItR = W->R.find(V);
      if (ItL == W->L.end() || ItR == W->R.end() ||
          !W->Facts.provesEq(ItL->second, ItR->second)) {
        Low = false;
        break;
      }
    }
    auto [L, R] = Low ? freshLow(hint(V)) : freshPair(hint(V));
    S.L[V] = L;
    S.R[V] = R;
  }
}

void ProcContext::joinGuards(VState &S, VState &A, VState &B, SourceLoc Loc) {
  // The set of guard keys must agree (share inside a branch is rejected
  // up front).
  for (auto &[Key, GA] : A.Guards) {
    auto ItB = B.Guards.find(Key);
    if (ItB == B.Guards.end()) {
      error(DiagCode::VerifyResourceState, Loc,
            "guard for '" + Key.second + "' exists in only one branch");
      continue;
    }
    GuardRt &GB = ItB->second;
    if (!(GA.Held == GB.Held)) {
      error(DiagCode::VerifyResourceState, Loc,
            "branches hold different fractions of the guard for '" +
                Key.second + "'");
      continue;
    }
    GuardRt Joined;
    Joined.Action = GA.Action;
    Joined.Held = GA.Held;
    if (GA.sameAs(GB)) {
      // Identical recorded applications: keep them, but re-discharge their
      // preconditions against the join facts (mixed pairings of a high
      // conditional may not satisfy branch-local assumptions).
      Joined.Chunks = GA.Chunks;
      for (GuardChunk &Ch : Joined.Chunks)
        if (!Ch.IsSummary)
          Ch.PreOk = dischargePre(*GA.Action, Ch.ArgL, Ch.ArgR, S.Facts,
                                  /*Required=*/false);
    } else {
      bool AllPre = true;
      VState *Branches[2] = {&A, &B};
      GuardRt *Gs[2] = {&GA, &GB};
      for (int I = 0; I < 2; ++I)
        AllPre &= checkAllPre(*Gs[I], Branches[I]->Facts,
                              /*Required=*/false);
      // Mixed pairings additionally require the count to be unaffected by
      // the (possibly high) branch condition; a divergent record cannot
      // guarantee that, so the summary is tainted unless the branch was
      // low — the caller passes HighJoin accordingly via AllPre &= ...
      GuardChunk Sum = freshSummary(*GA.Action, hint("join_" + Key.second),
                                    AllPre && JoinChunksRelatable);
      if (Sum.AllPre)
        assumeAllPreFacts(*GA.Action, Sum, S.Facts);
      Joined.Chunks = {Sum};
    }
    S.Guards[Key] = std::move(Joined);
  }
}

namespace {
/// Whether the subtree contains an `output` statement (calls are opaque:
/// callee outputs are governed by the callee's own verification context,
/// so a call under a high condition is also rejected when its callee may
/// output — conservatively, any call counts).
bool mayEmitOutput(const Command &Cmd, const Program &Prog,
                   unsigned Depth = 8) {
  if (Cmd.Kind == CmdKind::Output)
    return true;
  if (Cmd.Kind == CmdKind::CallProc && Depth > 0) {
    if (const ProcDecl *Callee = Prog.findProc(Cmd.Aux))
      return mayEmitOutput(*Callee->Body, Prog, Depth - 1);
    return true;
  }
  for (const CommandRef &Child : Cmd.Children)
    if (mayEmitOutput(*Child, Prog, Depth))
      return true;
  return false;
}
} // namespace

void ProcContext::checkIf(const CommandRef &C, VState &S) {
  TermRef CondL = evalL(*C->Exprs[0], S);
  TermRef CondR = evalR(*C->Exprs[0], S);
  bool LowCond = S.Facts.provesEq(CondL, CondR);
  if (!LowCond &&
      (mayEmitOutput(*C->Children[0], Prog) ||
       mayEmitOutput(*C->Children[1], Prog)))
    error(DiagCode::VerifyHighBranchEffect, C->Loc,
          "output under a secret-dependent condition: the presence of the "
          "emission would leak through the public trace");

  VState Then = S;
  Then.Facts.assumeTrue(CondL);
  Then.Facts.assumeTrue(CondR);
  checkCmd(C->Children[0], Then);

  VState Else = S;
  Else.Facts.assumeTrue(TB.logNot(CondL));
  Else.Facts.assumeTrue(TB.logNot(CondR));
  checkCmd(C->Children[1], Else);

  // Join variables with Ite terms: per execution side this is exactly the
  // value the variable takes, so mixed branch pairings of a high condition
  // are modeled precisely (lowness of the join requires a low condition).
  std::vector<std::string> Mods;
  C->modifiedVars(Mods);
  for (const std::string &V : Mods) {
    if (!S.L.count(V))
      continue;
    if (Then.L[V] == Else.L[V] && Then.R[V] == Else.R[V]) {
      S.L[V] = Then.L[V];
      S.R[V] = Then.R[V];
      continue;
    }
    TermRef JL = TB.ite(CondL, Then.L[V], Else.L[V]);
    TermRef JR = TB.ite(CondR, Then.R[V], Else.R[V]);
    // Transfer lowness established inside the branches (e.g. from callee
    // contracts) — sound only when the branches are aligned (low cond).
    if (LowCond && Then.Facts.provesEq(Then.L[V], Then.R[V]) &&
        Else.Facts.provesEq(Else.L[V], Else.R[V]))
      S.Facts.assumeEq(JL, JR);
    S.L[V] = JL;
    S.R[V] = JR;
  }

  // If1 with identical branch-end facts is rare; conservatively keep only
  // the pre-branch facts plus the lowness transferred above.
  JoinChunksRelatable = LowCond;
  joinGuards(S, Then, Else, C->Loc);
  JoinChunksRelatable = true;

  // Heap join: keep cells whose location exists in both branch heaps.
  std::vector<HeapCell> Joined;
  for (const HeapCell &CellT : Then.Heap) {
    for (const HeapCell &CellE : Else.Heap) {
      if (CellT.Loc != CellE.Loc)
        continue;
      HeapCell NewCell;
      NewCell.Loc = CellT.Loc;
      if (CellT.ValL == CellE.ValL && CellT.ValR == CellE.ValR) {
        NewCell.ValL = CellT.ValL;
        NewCell.ValR = CellT.ValR;
      } else {
        NewCell.ValL = TB.ite(CondL, CellT.ValL, CellE.ValL);
        NewCell.ValR = TB.ite(CondR, CellT.ValR, CellE.ValR);
        if (LowCond && Then.Facts.provesEq(CellT.ValL, CellT.ValR) &&
            Else.Facts.provesEq(CellE.ValL, CellE.ValR))
          S.Facts.assumeEq(NewCell.ValL, NewCell.ValR);
      }
      Joined.push_back(NewCell);
      break;
    }
  }
  S.Heap = std::move(Joined);
}

void ProcContext::checkWhile(const CommandRef &C, VState &S) {
  const CommandRef &Body = C->Children[0];

  // 1. The invariant must hold on entry.
  for (const Contract &Inv : C->Invariants)
    consumeContract(Inv, S, {}, "loop invariant (entry)", C->Loc);

  // Guards mentioned in the invariant (by handle + action).
  std::set<GuardKey> InvGuards;
  std::set<std::string> AllPreVars;
  for (const Contract &Inv : C->Invariants)
    for (const ContractAtom &A : Inv)
      if (A.AtomKind == ContractAtom::Kind::SGuard ||
          A.AtomKind == ContractAtom::Kind::UGuard)
        InvGuards.insert({A.Res, A.Action});

  // 2. Build the arbitrary-iteration state: havoc modified variables and
  // reset invariant guards to fresh summaries, then assume the invariant.
  auto MakeInvState = [&](VState &Target) {
    havocModified(*C, Target, {});
    for (const GuardKey &Key : InvGuards) {
      auto It = Target.Guards.find(Key);
      if (It == Target.Guards.end())
        continue;
      It->second.Held = Frac{0, 1}; // re-granted by produceContract
      It->second.Chunks.clear();
    }
    for (const Contract &Inv : C->Invariants)
      produceContract(Inv, Target, {}, {}, hint("inv"));
  };

  VState Iter = S;
  MakeInvState(Iter);
  releaseDeclassified(C->Exprs[0], Iter);
  TermRef CondL = evalL(*C->Exprs[0], Iter);
  TermRef CondR = evalR(*C->Exprs[0], Iter);
  bool LowCond = Iter.Facts.provesEq(CondL, CondR);

  if (!LowCond && mayEmitOutput(*Body, Prog))
    error(DiagCode::VerifyHighBranchEffect, C->Loc,
          "output inside a loop with a secret-dependent condition: the "
          "number of emissions would leak through the public trace");
  if (!LowCond) {
    // While2: the invariant must be unary — no relational atoms.
    for (const Contract &Inv : C->Invariants) {
      for (const ContractAtom &A : Inv) {
        if (A.AtomKind == ContractAtom::Kind::Low ||
            A.AtomKind == ContractAtom::Kind::AllPre) {
          error(DiagCode::VerifyHighBranchEffect, A.Loc,
                "loop condition may depend on a secret; the invariant must "
                "be unary but contains " +
                    A.str());
        }
      }
    }
  }

  // 3. Verify the body from the arbitrary iteration.
  VState BodyState = Iter;
  BodyState.Facts.assumeTrue(CondL);
  BodyState.Facts.assumeTrue(CondR);
  std::map<GuardKey, GuardRt> EntryGuards = BodyState.Guards;
  checkCmd(Body, BodyState);

  // 4. The invariant must be preserved.
  for (const Contract &Inv : C->Invariants)
    consumeContract(Inv, BodyState, {}, "loop invariant (preservation)",
                    C->Loc);

  // Guards not covered by the invariant must be untouched by the body.
  for (const auto &[Key, G] : BodyState.Guards) {
    if (InvGuards.count(Key))
      continue;
    auto It = EntryGuards.find(Key);
    bool Same = It != EntryGuards.end() && G.sameAs(It->second);
    if (!Same)
      error(DiagCode::VerifyGuardMissing, C->Loc,
            "loop body modifies the guard for '" + Key.second +
                "' which is not covered by a loop invariant");
  }

  // 5. Continue after the loop from a fresh arbitrary iteration plus the
  // negated condition. For While2 (high condition), havoced variables are
  // unrelated across the executions (unary postcondition).
  MakeInvState(S);
  // Taint invariant guards after a high loop: counts may differ.
  if (!LowCond) {
    for (const GuardKey &Key : InvGuards) {
      auto It = S.Guards.find(Key);
      if (It == S.Guards.end())
        continue;
      for (GuardChunk &Ch : It->second.Chunks)
        Ch.AllPre = false;
    }
  }
  releaseDeclassified(C->Exprs[0], S);
  TermRef PostCondL = evalL(*C->Exprs[0], S);
  TermRef PostCondR = evalR(*C->Exprs[0], S);
  S.Facts.assumeTrue(TB.logNot(PostCondL));
  S.Facts.assumeTrue(TB.logNot(PostCondR));
}

} // namespace

//===----------------------------------------------------------------------===//
// The remaining command handlers and the public interface live in
// VerifierOps.cpp to keep translation units manageable.
//===----------------------------------------------------------------------===//

#include "verifier/VerifierImpl.inc"
