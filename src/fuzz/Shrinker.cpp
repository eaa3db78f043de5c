//===-- fuzz/Shrinker.cpp - Delta-debugging program shrinker ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
//
// Candidate generation works on a fresh parse of the current best source:
// each mutation is addressed by a site ordinal within a deterministic
// preorder traversal, applied to the fresh AST, and pretty-printed back.
// Re-parsing per candidate keeps mutations independent (a rejected
// candidate leaves no trace) and guarantees every accepted witness is
// printable, parseable source.
//
// Sites are swept from the highest ordinal down. A mutation only changes
// the subtree at its site, and subtree sites carry higher ordinals than the
// site itself, so ordinals below the mutated one keep addressing the same
// syntactic positions in the next parse — one linear sweep per pass visits
// every site once even as reductions land.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "parser/Parser.h"

#include <optional>

using namespace commcsl;

namespace {

/// Replaces \p Children[I] with \p Repl: block contents are spliced inline
/// (bare blocks are not statements in the surface syntax), single commands
/// substituted directly.
void splice(std::vector<CommandRef> &Children, size_t I,
            const CommandRef &Repl) {
  if (Repl->Kind == CmdKind::Block) {
    std::vector<CommandRef> Sub = Repl->Children;
    Children.erase(Children.begin() + I);
    Children.insert(Children.begin() + I, Sub.begin(), Sub.end());
  } else {
    Children[I] = Repl;
  }
}

//===----------------------------------------------------------------------===//
// Reduction passes. Each is a preorder traversal with a countdown ordinal:
// the site at K == 0 is mutated; every earlier site decrements K. Calling
// with a huge K counts sites (K never reaches 0); the caller reads off the
// count as the difference.
//===----------------------------------------------------------------------===//

/// Pass: remove one statement — any child of a Block, or one branch of a
/// par with more than two (par requires >= 2 branches).
bool removeStatement(const CommandRef &C, size_t &K) {
  if (!C)
    return false;
  if (C->Kind == CmdKind::Block ||
      (C->Kind == CmdKind::Par && C->Children.size() > 2)) {
    for (size_t I = 0; I < C->Children.size(); ++I) {
      if (K == 0) {
        C->Children.erase(C->Children.begin() + I);
        return true;
      }
      --K;
    }
  }
  for (const CommandRef &Ch : C->Children)
    if (removeStatement(Ch, K))
      return true;
  return false;
}

/// Pass: flatten one compound statement into its parent block — an `if`
/// into its then/else contents, a `while` into its body, a `par` into one
/// branch.
bool flattenCompound(const CommandRef &C, size_t &K) {
  if (!C)
    return false;
  if (C->Kind == CmdKind::Block) {
    for (size_t I = 0; I < C->Children.size(); ++I) {
      const CommandRef &Ch = C->Children[I];
      std::vector<CommandRef> Variants;
      if (Ch->Kind == CmdKind::If) {
        Variants.push_back(Ch->Children[0]);
        if (Ch->Children.size() > 1 && Ch->Children[1])
          Variants.push_back(Ch->Children[1]);
      } else if (Ch->Kind == CmdKind::While) {
        Variants.push_back(Ch->Children[0]);
      } else if (Ch->Kind == CmdKind::Par) {
        for (const CommandRef &Branch : Ch->Children)
          Variants.push_back(Branch);
      }
      for (const CommandRef &V : Variants) {
        if (K == 0) {
          splice(C->Children, I, V);
          return true;
        }
        --K;
      }
    }
  }
  for (const CommandRef &Ch : C->Children)
    if (flattenCompound(Ch, K))
      return true;
  return false;
}

/// Pass: strip the invariant annotations of one loop.
bool stripInvariants(const CommandRef &C, size_t &K) {
  if (!C)
    return false;
  if (C->Kind == CmdKind::While && !C->Invariants.empty()) {
    if (K == 0) {
      C->Invariants.clear();
      return true;
    }
    --K;
  }
  for (const CommandRef &Ch : C->Children)
    if (stripInvariants(Ch, K))
      return true;
  return false;
}

/// Pass: simplify one expression node — hoist a sub-expression over its
/// parent, or collapse a compound node to the literal 0 (type mismatches
/// produce unparseable-for-the-typechecker candidates that the oracle
/// rejects as GeneratorInvalid, so they simply fail to reproduce).
bool simplifyExpr(ExprRef &E, size_t &K) {
  if (!E)
    return false;
  bool Atomic = E->Kind == ExprKind::IntLit || E->Kind == ExprKind::BoolLit ||
                E->Kind == ExprKind::UnitLit || E->Kind == ExprKind::Var;
  if (!Atomic) {
    for (ExprRef &A : E->Args) {
      if (K == 0) {
        E = A;
        return true;
      }
      --K;
    }
    if (K == 0) {
      E = Expr::intLit(0);
      return true;
    }
    --K;
  }
  for (ExprRef &A : E->Args)
    if (simplifyExpr(A, K))
      return true;
  return false;
}

bool simplifyExprInCommand(const CommandRef &C, size_t &K) {
  if (!C)
    return false;
  for (ExprRef &E : C->Exprs)
    if (simplifyExpr(E, K))
      return true;
  for (const CommandRef &Ch : C->Children)
    if (simplifyExprInCommand(Ch, K))
      return true;
  return false;
}

/// Pass: remove one top-level declaration (a pure function, a resource
/// specification, or a procedure other than the entry point). Removals
/// that leave dangling references fail the type check and do not reproduce.
bool removeDecl(Program &P, const std::string &Entry, size_t &K) {
  for (size_t I = 0; I < P.Funcs.size(); ++I) {
    if (K == 0) {
      P.Funcs.erase(P.Funcs.begin() + I);
      return true;
    }
    --K;
  }
  for (size_t I = 0; I < P.Specs.size(); ++I) {
    if (K == 0) {
      P.Specs.erase(P.Specs.begin() + I);
      return true;
    }
    --K;
  }
  for (size_t I = 0; I < P.Procs.size(); ++I) {
    if (P.Procs[I].Name == Entry)
      continue;
    if (K == 0) {
      P.Procs.erase(P.Procs.begin() + I);
      return true;
    }
    --K;
  }
  return false;
}

/// One reduction pass applied at program scope.
using PassFn = bool (*)(Program &P, const std::string &Entry, size_t &K);

bool passRemoveStatement(Program &P, const std::string &, size_t &K) {
  for (ProcDecl &Proc : P.Procs)
    if (removeStatement(Proc.Body, K))
      return true;
  return false;
}

bool passFlattenCompound(Program &P, const std::string &, size_t &K) {
  for (ProcDecl &Proc : P.Procs)
    if (flattenCompound(Proc.Body, K))
      return true;
  return false;
}

bool passStripInvariants(Program &P, const std::string &, size_t &K) {
  for (ProcDecl &Proc : P.Procs)
    if (stripInvariants(Proc.Body, K))
      return true;
  return false;
}

bool passSimplifyExpr(Program &P, const std::string &, size_t &K) {
  for (ProcDecl &Proc : P.Procs)
    if (simplifyExprInCommand(Proc.Body, K))
      return true;
  return false;
}

bool passRemoveDecl(Program &P, const std::string &Entry, size_t &K) {
  return removeDecl(P, Entry, K);
}

size_t countSites(PassFn Pass, Program &P, const std::string &Entry) {
  // A countdown that cannot hit zero turns the apply traversal into a
  // counting traversal.
  size_t K = static_cast<size_t>(-1) / 2;
  Pass(P, Entry, K);
  return static_cast<size_t>(-1) / 2 - K;
}

} // namespace

ShrinkResult commcsl::shrinkProgram(const std::string &Source, bool GenTainted,
                                    OracleClass Target, uint64_t Seed,
                                    const ShrinkConfig &Config) {
  ShrinkResult Res;
  Res.Source = Source;
  Res.Class = Target;

  DifferentialOracle Oracle(Config.Oracle);
  const std::string &Entry = Config.Oracle.ProcName;

  auto ParseSrc = [](const std::string &Src) -> std::optional<Program> {
    DiagnosticEngine Diags;
    Program P = Parser::parse(Src, Diags);
    if (Diags.hasErrors())
      return std::nullopt;
    return P;
  };

  std::optional<Program> Initial = ParseSrc(Source);
  if (!Initial || Target == OracleClass::GeneratorInvalid) {
    Res.Class = OracleClass::GeneratorInvalid;
    return Res;
  }
  Res.Stats.StatementsBefore = countStatements(*Initial);
  Res.Stats.StatementsAfter = Res.Stats.StatementsBefore;

  // The initial re-check is an oracle run like any other: a zero budget
  // leaves the input untouched.
  if (Config.MaxOracleRuns == 0) {
    Res.Stats.BudgetExhausted = true;
    return Res;
  }

  // Normalize through the printer so candidate comparison is textual.
  std::string Best = Initial->str();
  ++Res.Stats.OracleRuns;
  OracleResult Check = Oracle.evaluate(Best, GenTainted, Seed);
  if (Check.Class != Target) {
    Res.Class = Check.Class;
    return Res;
  }
  Res.Source = Best;
  // The evidence to preserve: class plus the concrete-leak bit. Without
  // the latter, a finding whose class rests on an exogenous fact (the
  // taint verdict, an injected fault) would shrink to a trivial program.
  const bool RefLeak = Check.Verdicts.EmpiricalLeak;

  auto BudgetLeft = [&]() {
    if (Res.Stats.OracleRuns < Config.MaxOracleRuns)
      return true;
    Res.Stats.BudgetExhausted = true;
    return false;
  };

  // Tries site \p K of \p Pass against the current best; keeps the
  // candidate when the oracle reproduces the target class.
  auto TrySite = [&](PassFn Pass, size_t K) {
    std::optional<Program> P = ParseSrc(Best);
    if (!P)
      return false;
    size_t Countdown = K;
    if (!Pass(*P, Entry, Countdown))
      return false;
    std::string Cand = P->str();
    if (Cand == Best || !BudgetLeft())
      return false;
    ++Res.Stats.OracleRuns;
    OracleResult CandRes = Oracle.evaluate(Cand, GenTainted, Seed);
    if (CandRes.Class != Target ||
        CandRes.Verdicts.EmpiricalLeak != RefLeak)
      return false;
    Best = std::move(Cand);
    ++Res.Stats.Reductions;
    return true;
  };

  const PassFn Passes[] = {passRemoveStatement, passFlattenCompound,
                           passStripInvariants, passRemoveDecl,
                           passSimplifyExpr};

  for (unsigned Round = 0; Round < Config.MaxRounds; ++Round) {
    bool Progress = false;
    for (PassFn Pass : Passes) {
      std::optional<Program> P = ParseSrc(Best);
      if (!P)
        break;
      size_t Sites = countSites(Pass, *P, Entry);
      // Highest ordinal first: a reduction only disturbs ordinals at or
      // above its own site, so the sweep stays aligned without restarts.
      for (size_t K = Sites; K-- > 0;) {
        if (!BudgetLeft())
          break;
        Progress |= TrySite(Pass, K);
      }
      if (!BudgetLeft())
        break;
    }
    Res.Stats.Rounds = Round + 1;
    if (!Progress || !BudgetLeft())
      break;
  }

  Res.Source = Best;
  if (std::optional<Program> Final = ParseSrc(Best))
    Res.Stats.StatementsAfter = countStatements(*Final);
  return Res;
}
