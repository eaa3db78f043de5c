//===-- parser/Parser.cpp - Parser for the surface language ----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"

using namespace commcsl;

namespace {

/// Thrown by NestingGuard once the limit error is reported; parseProgram
/// catches it and drops the rest of the buffer.
struct NestingLimitHit {};

} // namespace

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

Parser::NestingGuard::NestingGuard(Parser &P) : P(P) {
  if (++P.Depth <= MaxNesting)
    return;
  P.error("nesting exceeds the limit of " + std::to_string(MaxNesting) +
          " levels");
  throw NestingLimitHit{};
}

void Parser::error(const std::string &Msg) {
  Diags.error(DiagCode::ParseError, peek().Loc, Msg);
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  error(std::string("expected ") + tokenKindName(Kind) + " " + Context +
        ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::syncToStatement() {
  while (!check(TokenKind::Eof)) {
    if (accept(TokenKind::Semi))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::LBrace))
      return;
    advance();
  }
}

void Parser::syncToDecl() {
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwFunction) || check(TokenKind::KwProcedure) ||
        check(TokenKind::KwResourceTy))
      return;
    advance();
  }
}

Program Parser::parse(const std::string &Source, DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  return P.parseProgram();
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

Program Parser::parseProgram() {
  Program Prog;
  try {
    while (!check(TokenKind::Eof)) {
      if (check(TokenKind::KwFunction)) {
        parseFunction(Prog);
      } else if (check(TokenKind::KwResourceTy)) {
        parseResource(Prog);
      } else if (check(TokenKind::KwProcedure)) {
        parseProcedure(Prog);
      } else {
        error("expected 'function', 'resource', or 'procedure' at top level");
        syncToDecl();
      }
    }
  } catch (const NestingLimitHit &) {
    // Reported where the limit was crossed; the rest of the buffer is
    // dropped so the open levels do not each report a missing closer.
    Depth = 0;
  }
  return Prog;
}

void Parser::parseFunction(Program &Prog) {
  FuncDecl F;
  F.Loc = peek().Loc;
  expect(TokenKind::KwFunction, "at function declaration");
  if (!check(TokenKind::Identifier)) {
    error("expected function name");
    syncToDecl();
    return;
  }
  F.Name = advance().Text;
  expect(TokenKind::LParen, "after function name");
  if (!check(TokenKind::RParen))
    parseParamList(F.Params);
  expect(TokenKind::RParen, "after function parameters");
  expect(TokenKind::Colon, "before function result type");
  F.RetTy = parseType();
  expect(TokenKind::EqEq, "before function body");
  F.Body = parseExpr();
  expect(TokenKind::Semi, "after function body");
  if (F.RetTy && F.Body)
    Prog.Funcs.push_back(std::move(F));
}

void Parser::parseResource(Program &Prog) {
  ResourceSpecDecl S;
  S.Loc = peek().Loc;
  expect(TokenKind::KwResourceTy, "at resource declaration");
  if (!check(TokenKind::Identifier)) {
    error("expected resource name");
    syncToDecl();
    return;
  }
  S.Name = advance().Text;
  expect(TokenKind::LBrace, "after resource name");

  bool SawState = false, SawAlpha = false;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    if (accept(TokenKind::KwState)) {
      expect(TokenKind::Colon, "after 'state'");
      S.StateTy = parseType();
      expect(TokenKind::Semi, "after state type");
      SawState = true;
      continue;
    }
    if (accept(TokenKind::KwAlpha)) {
      expect(TokenKind::LParen, "after 'alpha'");
      if (check(TokenKind::Identifier))
        S.AlphaParam = advance().Text;
      else
        error("expected alpha parameter name");
      expect(TokenKind::RParen, "after alpha parameter");
      expect(TokenKind::EqEq, "before alpha body");
      S.Alpha = parseExpr();
      expect(TokenKind::Semi, "after alpha body");
      SawAlpha = true;
      continue;
    }
    if (check(TokenKind::Identifier) && peek().Text == "inv") {
      advance();
      expect(TokenKind::LParen, "after 'inv'");
      if (check(TokenKind::Identifier)) {
        std::string P = advance().Text;
        if (S.AlphaParam.empty())
          S.AlphaParam = P;
        else if (P != S.AlphaParam)
          error("inv parameter name must match alpha's");
      }
      expect(TokenKind::RParen, "after inv parameter");
      expect(TokenKind::EqEq, "before inv body");
      S.Inv = parseExpr();
      expect(TokenKind::Semi, "after inv body");
      continue;
    }
    if (accept(TokenKind::KwScope)) {
      if (accept(TokenKind::KwInt)) {
        S.ScopeIntLo = parseSignedInt();
        expect(TokenKind::DotDot, "in integer scope range");
        S.ScopeIntHi = parseSignedInt();
      } else if (check(TokenKind::Identifier) && peek().Text == "size") {
        advance();
        S.ScopeCollectionBound = static_cast<unsigned>(parseSignedInt());
      } else {
        error("expected 'int lo..hi' or 'size n' after 'scope'");
      }
      expect(TokenKind::Semi, "after scope hint");
      continue;
    }
    if (check(TokenKind::KwShared) || check(TokenKind::KwUnique)) {
      ActionDecl A;
      A.Loc = peek().Loc;
      A.Unique = advance().is(TokenKind::KwUnique);
      expect(TokenKind::KwAction, "after 'shared'/'unique'");
      if (check(TokenKind::Identifier))
        A.Name = advance().Text;
      else
        error("expected action name");
      expect(TokenKind::LParen, "after action name");
      if (check(TokenKind::Identifier))
        A.ArgName = advance().Text;
      else
        error("expected action argument name");
      expect(TokenKind::Colon, "after action argument name");
      A.ArgTy = parseType();
      expect(TokenKind::RParen, "after action argument");
      expect(TokenKind::LBrace, "at action body");
      while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
        if (accept(TokenKind::KwApply)) {
          expect(TokenKind::LParen, "after 'apply'");
          if (check(TokenKind::Identifier))
            A.StateName = advance().Text;
          else
            error("expected state parameter name");
          expect(TokenKind::Comma, "in apply parameters");
          if (check(TokenKind::Identifier)) {
            std::string ArgName = advance().Text;
            if (!A.ArgName.empty() && ArgName != A.ArgName)
              error("apply argument name must match the action argument");
          }
          expect(TokenKind::RParen, "after apply parameters");
          expect(TokenKind::EqEq, "before apply body");
          A.Apply = parseExpr();
          expect(TokenKind::Semi, "after apply body");
          continue;
        }
        if (accept(TokenKind::KwReturns)) {
          expect(TokenKind::LParen, "after 'returns'");
          if (check(TokenKind::Identifier)) {
            std::string StateName = advance().Text;
            if (!A.StateName.empty() && StateName != A.StateName)
              error("returns state name must match apply's");
            if (A.StateName.empty())
              A.StateName = StateName;
          }
          expect(TokenKind::Comma, "in returns parameters");
          if (check(TokenKind::Identifier))
            advance();
          expect(TokenKind::RParen, "after returns parameters");
          expect(TokenKind::EqEq, "before returns body");
          A.Returns = parseExpr();
          expect(TokenKind::Semi, "after returns body");
          continue;
        }
        if (accept(TokenKind::KwRequires)) {
          Contract Pre = parseConjuncts();
          A.Pre.insert(A.Pre.end(), Pre.begin(), Pre.end());
          expect(TokenKind::Semi, "after action precondition");
          continue;
        }
        if (check(TokenKind::Identifier) &&
            (peek().Text == "enabled" || peek().Text == "history")) {
          bool IsEnabled = advance().Text == "enabled";
          expect(TokenKind::LParen, "after 'enabled'/'history'");
          if (check(TokenKind::Identifier)) {
            std::string StateName = advance().Text;
            if (A.StateName.empty())
              A.StateName = StateName;
            else if (StateName != A.StateName)
              error("state parameter name must match apply's");
          }
          expect(TokenKind::RParen, "after state parameter");
          expect(TokenKind::EqEq, "before clause body");
          ExprRef Body = parseExpr();
          expect(TokenKind::Semi, "after clause body");
          (IsEnabled ? A.Enabled : A.History) = std::move(Body);
          continue;
        }
        error("expected 'apply', 'returns', 'requires', 'enabled', or "
              "'history' in action body");
        syncToStatement();
      }
      expect(TokenKind::RBrace, "at end of action body");
      if (A.Apply)
        S.Actions.push_back(std::move(A));
      continue;
    }
    error("expected 'state', 'alpha', 'scope', or an action declaration");
    syncToStatement();
  }
  expect(TokenKind::RBrace, "at end of resource declaration");
  if (!SawState)
    Diags.error(DiagCode::ParseError, S.Loc,
                "resource '" + S.Name + "' is missing a state declaration");
  if (!SawAlpha)
    Diags.error(DiagCode::ParseError, S.Loc,
                "resource '" + S.Name + "' is missing an alpha declaration");
  if (SawState && SawAlpha)
    Prog.Specs.push_back(std::move(S));
}

void Parser::parseProcedure(Program &Prog) {
  ProcDecl P;
  P.Loc = peek().Loc;
  expect(TokenKind::KwProcedure, "at procedure declaration");
  if (!check(TokenKind::Identifier)) {
    error("expected procedure name");
    syncToDecl();
    return;
  }
  P.Name = advance().Text;
  expect(TokenKind::LParen, "after procedure name");
  if (!check(TokenKind::RParen))
    parseParamList(P.Params);
  expect(TokenKind::RParen, "after procedure parameters");
  if (accept(TokenKind::KwReturns)) {
    expect(TokenKind::LParen, "after 'returns'");
    parseParamList(P.Returns);
    expect(TokenKind::RParen, "after return parameters");
  }
  while (check(TokenKind::KwRequires) || check(TokenKind::KwEnsures)) {
    bool IsRequires = advance().is(TokenKind::KwRequires);
    Contract C = parseConjuncts();
    Contract &Target = IsRequires ? P.Requires : P.Ensures;
    Target.insert(Target.end(), C.begin(), C.end());
    accept(TokenKind::Semi); // trailing semicolon is optional
  }
  P.Body = parseBlock();
  if (P.Body)
    Prog.Procs.push_back(std::move(P));
}

bool Parser::parseParamList(std::vector<Param> &Out) {
  do {
    Param P;
    P.Loc = peek().Loc;
    if (!check(TokenKind::Identifier)) {
      error("expected parameter name");
      return false;
    }
    P.Name = advance().Text;
    if (!expect(TokenKind::Colon, "after parameter name"))
      return false;
    P.Ty = parseType();
    if (!P.Ty)
      return false;
    Out.push_back(std::move(P));
  } while (accept(TokenKind::Comma));
  return true;
}

TypeRef Parser::parseType() {
  NestingGuard Level(*this);
  SourceLoc Loc = peek().Loc;
  (void)Loc;
  if (accept(TokenKind::KwInt))
    return Type::intTy();
  if (accept(TokenKind::KwBool))
    return Type::boolTy();
  if (accept(TokenKind::KwString))
    return Type::stringTy();
  if (accept(TokenKind::KwUnit))
    return Type::unit();
  if (accept(TokenKind::KwPair)) {
    expect(TokenKind::Less, "after 'pair'");
    TypeRef A = parseType();
    expect(TokenKind::Comma, "in pair type");
    TypeRef B = parseType();
    expect(TokenKind::Greater, "after pair type arguments");
    return (A && B) ? Type::pair(A, B) : nullptr;
  }
  if (accept(TokenKind::KwSeq)) {
    expect(TokenKind::Less, "after 'seq'");
    TypeRef A = parseType();
    expect(TokenKind::Greater, "after seq type argument");
    return A ? Type::seq(A) : nullptr;
  }
  if (accept(TokenKind::KwSet)) {
    expect(TokenKind::Less, "after 'set'");
    TypeRef A = parseType();
    expect(TokenKind::Greater, "after set type argument");
    return A ? Type::set(A) : nullptr;
  }
  if (accept(TokenKind::KwMset)) {
    expect(TokenKind::Less, "after 'mset'");
    TypeRef A = parseType();
    expect(TokenKind::Greater, "after mset type argument");
    return A ? Type::multiset(A) : nullptr;
  }
  if (accept(TokenKind::KwMap)) {
    expect(TokenKind::Less, "after 'map'");
    TypeRef K = parseType();
    expect(TokenKind::Comma, "in map type");
    TypeRef V = parseType();
    expect(TokenKind::Greater, "after map type arguments");
    return (K && V) ? Type::map(K, V) : nullptr;
  }
  if (accept(TokenKind::KwResourceTy)) {
    expect(TokenKind::Less, "after 'resource'");
    std::string Spec;
    if (check(TokenKind::Identifier))
      Spec = advance().Text;
    else
      error("expected resource specification name");
    expect(TokenKind::Greater, "after resource type argument");
    return Type::resource(Spec);
  }
  error("expected a type");
  return nullptr;
}

int64_t Parser::parseSignedInt() {
  bool Negate = accept(TokenKind::Minus);
  if (!check(TokenKind::IntLiteral)) {
    error("expected integer literal");
    return 0;
  }
  int64_t V = advance().IntVal;
  return Negate ? -V : V;
}

//===----------------------------------------------------------------------===//
// Contracts
//===----------------------------------------------------------------------===//

bool Parser::parseResAction(std::string &Res, std::string &Action) {
  if (!check(TokenKind::Identifier)) {
    error("expected resource handle name");
    return false;
  }
  Res = advance().Text;
  if (!expect(TokenKind::Dot, "between resource and action"))
    return false;
  if (!check(TokenKind::Identifier)) {
    error("expected action name");
    return false;
  }
  Action = advance().Text;
  return true;
}

Contract Parser::parseConjuncts() {
  Contract C;
  do {
    if (!parseAtom(C))
      break;
  } while (accept(TokenKind::AmpAmp));
  return C;
}

bool Parser::parseAtom(Contract &Out) {
  SourceLoc Loc = peek().Loc;
  if (accept(TokenKind::KwLow)) {
    expect(TokenKind::LParen, "after 'low'");
    ExprRef E = parseExpr();
    expect(TokenKind::RParen, "after low argument");
    if (!E)
      return false;
    Out.push_back(ContractAtom::low(std::move(E), Loc));
    return true;
  }
  if (accept(TokenKind::KwLevel)) {
    // level(x) = if <bexp> then low else high
    //   — conditional classification: x is low exactly when the guard holds
    //     in the state where the contract is evaluated.
    expect(TokenKind::LParen, "after 'level'");
    if (!check(TokenKind::Identifier)) {
      error("expected a variable name in level clause");
      return false;
    }
    SourceLoc VarLoc = peek().Loc;
    ExprRef Var = Expr::var(advance().Text, VarLoc);
    expect(TokenKind::RParen, "after level variable");
    expect(TokenKind::EqEq, "after 'level(x)'");
    expect(TokenKind::KwIf, "in level clause");
    ExprRef Guard = parseExpr();
    if (!Guard)
      return false;
    expect(TokenKind::KwThen, "after level guard");
    expect(TokenKind::KwLow, "after 'then' in level clause");
    expect(TokenKind::KwElse, "after 'low' in level clause");
    expect(TokenKind::KwHigh, "after 'else' in level clause");
    Out.push_back(ContractAtom::level(std::move(Var), std::move(Guard), Loc));
    return true;
  }
  if (accept(TokenKind::KwSGuard)) {
    expect(TokenKind::LParen, "after 'sguard'");
    std::string Res, Action;
    if (!parseResAction(Res, Action))
      return false;
    expect(TokenKind::Comma, "after action in sguard");
    int64_t Num = parseSignedInt();
    int64_t Den = 1;
    if (accept(TokenKind::Slash))
      Den = parseSignedInt();
    expect(TokenKind::Comma, "after fraction in sguard");
    std::string ArgVar;
    bool Empty = false;
    if (accept(TokenKind::KwEmpty))
      Empty = true;
    else if (check(TokenKind::Identifier))
      ArgVar = advance().Text;
    else
      error("expected 'empty' or a spec variable in sguard");
    expect(TokenKind::RParen, "after sguard arguments");
    Out.push_back(
        ContractAtom::sguard(Res, Action, Num, Den, ArgVar, Empty, Loc));
    return true;
  }
  if (accept(TokenKind::KwUGuard)) {
    expect(TokenKind::LParen, "after 'uguard'");
    std::string Res, Action;
    if (!parseResAction(Res, Action))
      return false;
    expect(TokenKind::Comma, "after action in uguard");
    std::string ArgVar;
    bool Empty = false;
    if (accept(TokenKind::KwEmpty))
      Empty = true;
    else if (check(TokenKind::Identifier))
      ArgVar = advance().Text;
    else
      error("expected 'empty' or a spec variable in uguard");
    expect(TokenKind::RParen, "after uguard arguments");
    Out.push_back(ContractAtom::uguard(Res, Action, ArgVar, Empty, Loc));
    return true;
  }
  if (accept(TokenKind::KwAllPre)) {
    expect(TokenKind::LParen, "after 'allpre'");
    std::string Res, Action;
    if (!parseResAction(Res, Action))
      return false;
    expect(TokenKind::Comma, "after action in allpre");
    std::string ArgVar;
    if (check(TokenKind::Identifier))
      ArgVar = advance().Text;
    else
      error("expected a spec variable in allpre");
    expect(TokenKind::RParen, "after allpre arguments");
    Out.push_back(ContractAtom::allpre(Res, Action, ArgVar, Loc));
    return true;
  }

  // Boolean atom, possibly `cond ==> low(e)` (value-dependent sensitivity).
  ExprRef E = parseOr(/*AllowAnd=*/false);
  if (!E)
    return false;
  if (accept(TokenKind::Arrow)) {
    if (accept(TokenKind::KwLow)) {
      expect(TokenKind::LParen, "after 'low'");
      ExprRef Val = parseExpr();
      expect(TokenKind::RParen, "after low argument");
      if (!Val)
        return false;
      Out.push_back(ContractAtom::condLow(std::move(E), std::move(Val), Loc));
      return true;
    }
    ExprRef Rhs = parseOr(/*AllowAnd=*/false);
    if (!Rhs)
      return false;
    E = Expr::binary(BinaryOp::Implies, std::move(E), std::move(Rhs), Loc);
  }
  Out.push_back(ContractAtom::boolean(std::move(E), Loc));
  return true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CommandRef Parser::parseBlock() {
  SourceLoc Loc = peek().Loc;
  if (!expect(TokenKind::LBrace, "at start of block"))
    return nullptr;
  std::vector<CommandRef> Cmds;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    CommandRef C = parseStatement();
    if (C)
      Cmds.push_back(std::move(C));
  }
  expect(TokenKind::RBrace, "at end of block");
  return Command::block(std::move(Cmds), Loc);
}

CommandRef Parser::parseStatement() {
  NestingGuard Level(*this);
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::KwSkip: {
    advance();
    expect(TokenKind::Semi, "after 'skip'");
    return Command::skip(Loc);
  }
  case TokenKind::KwVar: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected variable name");
      syncToStatement();
      return nullptr;
    }
    std::string Name = advance().Text;
    expect(TokenKind::Colon, "after variable name");
    TypeRef Ty = parseType();
    ExprRef Init;
    if (accept(TokenKind::Assign))
      Init = parseExpr();
    expect(TokenKind::Semi, "after variable declaration");
    if (!Ty)
      return nullptr;
    return Command::varDecl(Name, Ty, Init, Loc);
  }
  case TokenKind::KwIf: {
    advance();
    expect(TokenKind::LParen, "after 'if'");
    ExprRef Cond = parseExpr();
    expect(TokenKind::RParen, "after if condition");
    CommandRef Then = parseBlock();
    CommandRef Else;
    if (accept(TokenKind::KwElse)) {
      if (check(TokenKind::KwIf))
        Else = parseStatement();
      else
        Else = parseBlock();
    }
    if (!Cond || !Then)
      return nullptr;
    return Command::ifCmd(Cond, Then, Else, Loc);
  }
  case TokenKind::KwWhile: {
    advance();
    expect(TokenKind::LParen, "after 'while'");
    ExprRef Cond = parseExpr();
    expect(TokenKind::RParen, "after while condition");
    std::vector<Contract> Invariants;
    while (accept(TokenKind::KwInvariant)) {
      Invariants.push_back(parseConjuncts());
      accept(TokenKind::Semi); // trailing semicolon is optional
    }
    CommandRef Body = parseBlock();
    if (!Cond || !Body)
      return nullptr;
    return Command::whileCmd(Cond, std::move(Invariants), Body, Loc);
  }
  case TokenKind::KwPar: {
    advance();
    std::vector<CommandRef> Branches;
    CommandRef First = parseBlock();
    if (First)
      Branches.push_back(std::move(First));
    while (accept(TokenKind::KwAnd)) {
      CommandRef B = parseBlock();
      if (B)
        Branches.push_back(std::move(B));
    }
    if (Branches.size() < 2) {
      Diags.error(DiagCode::ParseError, Loc,
                  "par requires at least two branches");
      return nullptr;
    }
    return Command::par(std::move(Branches), Loc);
  }
  case TokenKind::KwShare: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected resource handle name after 'share'");
      syncToStatement();
      return nullptr;
    }
    std::string Res = advance().Text;
    expect(TokenKind::Colon, "after resource handle");
    std::string Spec;
    if (check(TokenKind::Identifier))
      Spec = advance().Text;
    else
      error("expected resource specification name");
    expect(TokenKind::Assign, "before initial value");
    ExprRef Init = parseExpr();
    expect(TokenKind::Semi, "after share statement");
    if (!Init)
      return nullptr;
    return Command::share(Res, Spec, Init, Loc);
  }
  case TokenKind::KwAtomic: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected resource handle name after 'atomic'");
      syncToStatement();
      return nullptr;
    }
    std::string Res = advance().Text;
    std::string WhenAction;
    if (check(TokenKind::Identifier) && peek().Text == "when") {
      advance();
      if (check(TokenKind::Identifier))
        WhenAction = advance().Text;
      else
        error("expected action name after 'when'");
    }
    CommandRef Body = parseBlock();
    if (!Body)
      return nullptr;
    return Command::atomic(Res, Body, WhenAction, Loc);
  }
  case TokenKind::KwPerform: {
    advance();
    std::string Res, Action;
    if (!parseResAction(Res, Action)) {
      syncToStatement();
      return nullptr;
    }
    expect(TokenKind::LParen, "after action name");
    ExprRef Arg = parseExpr();
    expect(TokenKind::RParen, "after action argument");
    expect(TokenKind::Semi, "after perform statement");
    if (!Arg)
      return nullptr;
    return Command::perform("", Res, Action, Arg, Loc);
  }
  case TokenKind::KwOutput: {
    advance();
    ExprRef E = parseExpr();
    expect(TokenKind::Semi, "after output statement");
    if (!E)
      return nullptr;
    return Command::output(E, Loc);
  }
  case TokenKind::KwAssert: {
    advance();
    Contract C = parseConjuncts();
    expect(TokenKind::Semi, "after assert");
    return Command::assertGhost(std::move(C), Loc);
  }
  case TokenKind::KwCall: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected procedure name after 'call'");
      syncToStatement();
      return nullptr;
    }
    std::string Callee = advance().Text;
    expect(TokenKind::LParen, "after procedure name");
    std::vector<ExprRef> Args = parseArgs();
    expect(TokenKind::RParen, "after call arguments");
    expect(TokenKind::Semi, "after call statement");
    return Command::callProc(Callee, std::move(Args), {}, Loc);
  }
  case TokenKind::LBracket: {
    advance();
    ExprRef Addr = parseExpr();
    expect(TokenKind::RBracket, "after heap address");
    expect(TokenKind::Assign, "in heap write");
    ExprRef Val = parseExpr();
    expect(TokenKind::Semi, "after heap write");
    if (!Addr || !Val)
      return nullptr;
    return Command::heapWrite(Addr, Val, Loc);
  }
  case TokenKind::Identifier:
    return parseAssignLike();
  default:
    error("expected a statement");
    // The sync stops before a '{' without consuming it; skip it here, or
    // the enclosing block would offer the same token again forever.
    accept(TokenKind::LBrace);
    syncToStatement();
    return nullptr;
  }
}

CommandRef Parser::parseAssignLike() {
  SourceLoc Loc = peek().Loc;
  std::vector<std::string> Targets;
  Targets.push_back(advance().Text);
  while (accept(TokenKind::Comma)) {
    if (!check(TokenKind::Identifier)) {
      error("expected identifier in assignment target list");
      syncToStatement();
      return nullptr;
    }
    Targets.push_back(advance().Text);
  }
  if (!expect(TokenKind::Assign, "in assignment")) {
    syncToStatement();
    return nullptr;
  }

  // Multi-target assignments must be calls.
  if (Targets.size() > 1) {
    if (!expect(TokenKind::KwCall, "for multi-target assignment")) {
      syncToStatement();
      return nullptr;
    }
    if (!check(TokenKind::Identifier)) {
      error("expected procedure name after 'call'");
      syncToStatement();
      return nullptr;
    }
    std::string Callee = advance().Text;
    expect(TokenKind::LParen, "after procedure name");
    std::vector<ExprRef> Args = parseArgs();
    expect(TokenKind::RParen, "after call arguments");
    expect(TokenKind::Semi, "after call statement");
    return Command::callProc(Callee, std::move(Args), std::move(Targets),
                             Loc);
  }

  const std::string &Target = Targets[0];
  switch (peek().Kind) {
  case TokenKind::KwAlloc: {
    advance();
    expect(TokenKind::LParen, "after 'alloc'");
    ExprRef Init = parseExpr();
    expect(TokenKind::RParen, "after alloc argument");
    expect(TokenKind::Semi, "after alloc");
    if (!Init)
      return nullptr;
    return Command::alloc(Target, Init, Loc);
  }
  case TokenKind::LBracket: {
    advance();
    ExprRef Addr = parseExpr();
    expect(TokenKind::RBracket, "after heap address");
    expect(TokenKind::Semi, "after heap read");
    if (!Addr)
      return nullptr;
    return Command::heapRead(Target, Addr, Loc);
  }
  case TokenKind::KwUnshare: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected resource handle after 'unshare'");
      syncToStatement();
      return nullptr;
    }
    std::string Res = advance().Text;
    expect(TokenKind::Semi, "after unshare");
    return Command::unshare(Target, Res, Loc);
  }
  case TokenKind::KwResVal: {
    advance();
    expect(TokenKind::LParen, "after 'resval'");
    if (!check(TokenKind::Identifier)) {
      error("expected resource handle in resval");
      syncToStatement();
      return nullptr;
    }
    std::string Res = advance().Text;
    expect(TokenKind::RParen, "after resval argument");
    expect(TokenKind::Semi, "after resval");
    return Command::resVal(Target, Res, Loc);
  }
  case TokenKind::KwPerform: {
    advance();
    std::string Res, Action;
    if (!parseResAction(Res, Action)) {
      syncToStatement();
      return nullptr;
    }
    expect(TokenKind::LParen, "after action name");
    ExprRef Arg = parseExpr();
    expect(TokenKind::RParen, "after action argument");
    expect(TokenKind::Semi, "after perform");
    if (!Arg)
      return nullptr;
    return Command::perform(Target, Res, Action, Arg, Loc);
  }
  case TokenKind::KwCall: {
    advance();
    if (!check(TokenKind::Identifier)) {
      error("expected procedure name after 'call'");
      syncToStatement();
      return nullptr;
    }
    std::string Callee = advance().Text;
    expect(TokenKind::LParen, "after procedure name");
    std::vector<ExprRef> Args = parseArgs();
    expect(TokenKind::RParen, "after call arguments");
    expect(TokenKind::Semi, "after call");
    return Command::callProc(Callee, std::move(Args), {Target}, Loc);
  }
  default: {
    ExprRef E = parseExpr();
    expect(TokenKind::Semi, "after assignment");
    if (!E)
      return nullptr;
    return Command::assign(Target, E, Loc);
  }
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

std::vector<ExprRef> Parser::parseArgs() {
  std::vector<ExprRef> Args;
  if (check(TokenKind::RParen))
    return Args;
  do {
    ExprRef E = parseExpr();
    if (!E)
      break;
    Args.push_back(std::move(E));
  } while (accept(TokenKind::Comma));
  return Args;
}

ExprRef Parser::parseExpr() {
  NestingGuard Level(*this);
  return parseImplies();
}

ExprRef Parser::parseImplies() {
  ExprRef L = parseOr(/*AllowAnd=*/true);
  if (!L)
    return nullptr;
  if (accept(TokenKind::Arrow)) {
    SourceLoc Loc = peek().Loc;
    ExprRef R = parseExpr();
    if (!R)
      return nullptr;
    return Expr::binary(BinaryOp::Implies, std::move(L), std::move(R), Loc);
  }
  return L;
}

ExprRef Parser::parseOr(bool AllowAnd) {
  ExprRef L = AllowAnd ? parseAnd() : parseRelational();
  if (!L)
    return nullptr;
  while (check(TokenKind::PipePipe)) {
    SourceLoc Loc = advance().Loc;
    ExprRef R = AllowAnd ? parseAnd() : parseRelational();
    if (!R)
      return nullptr;
    L = Expr::binary(BinaryOp::Or, std::move(L), std::move(R), Loc);
  }
  return L;
}

ExprRef Parser::parseAnd() {
  ExprRef L = parseRelational();
  if (!L)
    return nullptr;
  while (check(TokenKind::AmpAmp)) {
    SourceLoc Loc = advance().Loc;
    ExprRef R = parseRelational();
    if (!R)
      return nullptr;
    L = Expr::binary(BinaryOp::And, std::move(L), std::move(R), Loc);
  }
  return L;
}

ExprRef Parser::parseRelational() {
  ExprRef L = parseAdditive();
  if (!L)
    return nullptr;
  while (true) {
    BinaryOp Op;
    if (check(TokenKind::EqEq))
      Op = BinaryOp::Eq;
    else if (check(TokenKind::NotEq))
      Op = BinaryOp::Ne;
    else if (check(TokenKind::Less))
      Op = BinaryOp::Lt;
    else if (check(TokenKind::LessEq))
      Op = BinaryOp::Le;
    else if (check(TokenKind::Greater))
      Op = BinaryOp::Gt;
    else if (check(TokenKind::GreaterEq))
      Op = BinaryOp::Ge;
    else
      return L;
    SourceLoc Loc = advance().Loc;
    ExprRef R = parseAdditive();
    if (!R)
      return nullptr;
    L = Expr::binary(Op, std::move(L), std::move(R), Loc);
  }
}

ExprRef Parser::parseAdditive() {
  ExprRef L = parseMultiplicative();
  if (!L)
    return nullptr;
  while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
    BinaryOp Op =
        check(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLoc Loc = advance().Loc;
    ExprRef R = parseMultiplicative();
    if (!R)
      return nullptr;
    L = Expr::binary(Op, std::move(L), std::move(R), Loc);
  }
  return L;
}

ExprRef Parser::parseMultiplicative() {
  ExprRef L = parseUnary();
  if (!L)
    return nullptr;
  while (check(TokenKind::Star) || check(TokenKind::Slash) ||
         check(TokenKind::Percent)) {
    BinaryOp Op = check(TokenKind::Star)    ? BinaryOp::Mul
                  : check(TokenKind::Slash) ? BinaryOp::Div
                                            : BinaryOp::Mod;
    SourceLoc Loc = advance().Loc;
    ExprRef R = parseUnary();
    if (!R)
      return nullptr;
    L = Expr::binary(Op, std::move(L), std::move(R), Loc);
  }
  return L;
}

ExprRef Parser::parseUnary() {
  if (check(TokenKind::Minus)) {
    NestingGuard Level(*this);
    SourceLoc Loc = advance().Loc;
    ExprRef A = parseUnary();
    if (!A)
      return nullptr;
    // Fold negative integer literals immediately.
    if (A->Kind == ExprKind::IntLit)
      return Expr::intLit(-A->IntVal, Loc);
    return Expr::unary(UnaryOp::Neg, std::move(A), Loc);
  }
  if (check(TokenKind::Bang)) {
    NestingGuard Level(*this);
    SourceLoc Loc = advance().Loc;
    ExprRef A = parseUnary();
    if (!A)
      return nullptr;
    return Expr::unary(UnaryOp::Not, std::move(A), Loc);
  }
  return parsePrimary();
}

ExprRef Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokenKind::IntLiteral))
    return Expr::intLit(advance().IntVal, Loc);
  if (accept(TokenKind::KwTrue))
    return Expr::boolLit(true, Loc);
  if (accept(TokenKind::KwFalse))
    return Expr::boolLit(false, Loc);
  if (accept(TokenKind::KwUnit))
    return Expr::unitLit(Loc);
  if (check(TokenKind::StringLiteral))
    return Expr::stringLit(advance().Text, Loc);
  if (accept(TokenKind::LParen)) {
    ExprRef E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  // `pair(a, b)` — `pair` is also a type keyword.
  if (check(TokenKind::KwPair) && peek(1).is(TokenKind::LParen)) {
    advance();
    advance();
    std::vector<ExprRef> Args = parseArgs();
    expect(TokenKind::RParen, "after pair arguments");
    if (Args.size() != 2) {
      Diags.error(DiagCode::ParseError, Loc, "pair takes two arguments");
      return nullptr;
    }
    return Expr::builtin(BuiltinKind::PairMk, std::move(Args), Loc);
  }
  if (check(TokenKind::Identifier)) {
    std::string Name = advance().Text;
    if (accept(TokenKind::LParen)) {
      std::vector<ExprRef> Args = parseArgs();
      expect(TokenKind::RParen, "after call arguments");
      if (std::optional<BuiltinKind> BK = builtinByName(Name)) {
        if (Args.size() != builtinArity(*BK)) {
          Diags.error(DiagCode::ParseError, Loc,
                      Name + " takes " +
                          std::to_string(builtinArity(*BK)) +
                          " argument(s), found " +
                          std::to_string(Args.size()));
          return nullptr;
        }
        return Expr::builtin(*BK, std::move(Args), Loc);
      }
      return Expr::call(Name, std::move(Args), Loc);
    }
    return Expr::var(Name, Loc);
  }
  error("expected an expression");
  advance();
  return nullptr;
}
