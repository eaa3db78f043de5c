//===-- tests/parser/ParserTest.cpp - Lexer/parser unit tests --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

TEST(LexerTest, BasicTokens) {
  DiagnosticEngine Diags;
  Lexer Lex("x := y + 41; // comment\n/* block */ while", Diags);
  std::vector<Token> Toks = Lex.lexAll();
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 8u); // x := y + 41 ; while EOF
  EXPECT_EQ(Toks[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[0].Text, "x");
  EXPECT_EQ(Toks[1].Kind, TokenKind::Assign);
  EXPECT_EQ(Toks[4].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[4].IntVal, 41);
  EXPECT_EQ(Toks[6].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Toks[7].Kind, TokenKind::Eof);
}

TEST(LexerTest, OperatorDisambiguation) {
  DiagnosticEngine Diags;
  Lexer Lex("== ==> != <= >= && || : := . ..", Diags);
  std::vector<Token> Toks = Lex.lexAll();
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Toks[0].Kind, TokenKind::EqEq);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Arrow);
  EXPECT_EQ(Toks[2].Kind, TokenKind::NotEq);
  EXPECT_EQ(Toks[3].Kind, TokenKind::LessEq);
  EXPECT_EQ(Toks[4].Kind, TokenKind::GreaterEq);
  EXPECT_EQ(Toks[5].Kind, TokenKind::AmpAmp);
  EXPECT_EQ(Toks[6].Kind, TokenKind::PipePipe);
  EXPECT_EQ(Toks[7].Kind, TokenKind::Colon);
  EXPECT_EQ(Toks[8].Kind, TokenKind::Assign);
  EXPECT_EQ(Toks[9].Kind, TokenKind::Dot);
  EXPECT_EQ(Toks[10].Kind, TokenKind::DotDot);
}

TEST(LexerTest, SourceLocations) {
  DiagnosticEngine Diags;
  Lexer Lex("a\n  b", Diags);
  std::vector<Token> Toks = Lex.lexAll();
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Column, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Column, 3u);
}

TEST(LexerTest, ReportsUnknownCharacter) {
  DiagnosticEngine Diags;
  Lexer Lex("a # b", Diags);
  Lex.lexAll();
  EXPECT_TRUE(Diags.hasErrorWithCode(DiagCode::LexError));
}

TEST(ParserTest, MinimalProcedure) {
  Program P = parseChecked("procedure main() { skip; }");
  ASSERT_EQ(P.Procs.size(), 1u);
  EXPECT_EQ(P.Procs[0].Name, "main");
  EXPECT_EQ(P.Procs[0].Body->Kind, CmdKind::Block);
}

TEST(ParserTest, ProcedureWithContracts) {
  Program P = parseChecked(R"(
    procedure add(x: int, y: int) returns (r: int)
      requires low(x) && low(y) && x >= 0
      ensures low(r)
    {
      r := x + y;
    }
  )");
  ASSERT_EQ(P.Procs.size(), 1u);
  const ProcDecl &Proc = P.Procs[0];
  ASSERT_EQ(Proc.Requires.size(), 3u);
  EXPECT_EQ(Proc.Requires[0].AtomKind, ContractAtom::Kind::Low);
  EXPECT_EQ(Proc.Requires[2].AtomKind, ContractAtom::Kind::Bool);
  ASSERT_EQ(Proc.Ensures.size(), 1u);
}

TEST(ParserTest, ResourceSpec) {
  Program P = parseChecked(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      scope int -3 .. 3;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
    procedure main() { skip; }
  )");
  ASSERT_EQ(P.Specs.size(), 1u);
  const ResourceSpecDecl &S = P.Specs[0];
  EXPECT_EQ(S.Name, "Counter");
  EXPECT_EQ(S.ScopeIntLo, -3);
  EXPECT_EQ(S.ScopeIntHi, 3);
  ASSERT_EQ(S.Actions.size(), 1u);
  EXPECT_FALSE(S.Actions[0].Unique);
  EXPECT_EQ(S.Actions[0].Name, "Add");
  ASSERT_EQ(S.Actions[0].Pre.size(), 1u);
}

TEST(ParserTest, FullStatementCoverage) {
  Program P = parseChecked(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
    procedure helper(r: resource<Counter>, n: int)
      requires low(n) && sguard(r.Add, 1/2, empty)
      ensures sguard(r.Add, 1/2, S) && allpre(r.Add, S)
    {
      var i: int := 0;
      while (i < n)
        invariant low(i) && sguard(r.Add, 1/2, T) && allpre(r.Add, T);
      {
        atomic r {
          perform r.Add(1);
        }
        i := i + 1;
      }
    }
    procedure main(n: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      var c: int := 0;
      share r: Counter := 0;
      par {
        call helper(r, n);
      } and {
        call helper(r, n);
      }
      c := unshare r;
      out := c;
    }
  )");
  ASSERT_EQ(P.Procs.size(), 2u);
}

TEST(ParserTest, HeapCommands) {
  Program P = parseChecked(R"(
    procedure main() {
      var p: int := 0;
      var x: int := 0;
      p := alloc(5);
      x := [p];
      [p] := x + 1;
    }
  )");
  ASSERT_EQ(P.Procs.size(), 1u);
}

TEST(ParserTest, ExpressionPrecedence) {
  Program P = parseChecked(R"(
    procedure main() returns (b: bool) {
      b := 1 + 2 * 3 == 7 && !(4 < 3) || false;
    }
  )");
  // 1 + 2*3 == 7  →  true; && binds tighter than ||.
  const CommandRef &Body = P.Procs[0].Body;
  const CommandRef &Assign = Body->Children[0];
  EXPECT_EQ(Assign->Exprs[0]->BOp, BinaryOp::Or);
}

TEST(ParserTest, EmptyCollectionConstructorsNeedContext) {
  parseChecked(R"(
    procedure main() {
      var m: map<int, int> := map_empty();
      var s: seq<int> := seq_empty();
      var t: set<int> := set_empty();
      var u: mset<int> := mset_empty();
    }
  )");
}

TEST(ParserTest, PrintedProgramReparses) {
  Program P = parseChecked(R"(
    function double(x: int): int = x * 2;
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
    procedure main(h: int) returns (out: int)
      requires low(h)
      ensures low(out)
    {
      out := double(h);
    }
  )");
  std::string Printed = P.str();
  DiagnosticEngine Diags2;
  Program P2 = Parser::parse(Printed, Diags2);
  EXPECT_FALSE(Diags2.hasErrors()) << Printed << "\n" << Diags2.str();
  EXPECT_EQ(P2.Funcs.size(), 1u);
  EXPECT_EQ(P2.Specs.size(), 1u);
  EXPECT_EQ(P2.Procs.size(), 1u);
}

TEST(ParserTest, ProducerConsumerSpecSyntax) {
  Program P = parseChecked(R"(
    resource PCQueue {
      state: pair<seq<int>, int>;
      alpha(v) = v;
      inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
      unique action Prod(a: int) {
        apply(v, a) = pair(append(fst(v), a), snd(v));
        requires low(a);
      }
      unique action Cons(a: unit) {
        apply(v, a) = pair(fst(v), snd(v) + 1);
        returns(v, a) = at(fst(v), snd(v));
        enabled(v) = snd(v) < len(fst(v));
        history(v) = take(fst(v), snd(v));
      }
    }
    procedure main() { skip; }
  )");
  ASSERT_EQ(P.Specs.size(), 1u);
  const ResourceSpecDecl &S = P.Specs[0];
  EXPECT_TRUE(S.Inv != nullptr);
  ASSERT_EQ(S.Actions.size(), 2u);
  EXPECT_TRUE(S.Actions[1].Enabled != nullptr);
  EXPECT_TRUE(S.Actions[1].History != nullptr);
  EXPECT_TRUE(S.Actions[1].Returns != nullptr);
}

//===----------------------------------------------------------------------===//
// Negative tests: each pins down a diagnostic code.
//===----------------------------------------------------------------------===//

TEST(ParserTest, RejectsUseOfUndeclaredVariable) {
  DiagnosticEngine D = parseExpectError("procedure main() { x := 1; }");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::UnknownName));
}

TEST(ParserTest, RejectsTypeMismatch) {
  DiagnosticEngine D = parseExpectError(
      "procedure main() { var x: int := true; }");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::TypeError));
}

TEST(ParserTest, RejectsShadowing) {
  DiagnosticEngine D = parseExpectError(
      "procedure main(x: int) { var x: int := 0; }");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::DuplicateName));
}

TEST(ParserTest, RejectsPerformOutsideAtomic) {
  DiagnosticEngine D = parseExpectError(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }
    procedure main() {
      share r: Counter := 0;
      perform r.Add(1);
    }
  )");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::TypeError));
}

TEST(ParserTest, RejectsUnknownAction) {
  DiagnosticEngine D = parseExpectError(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }
    procedure main() {
      share r: Counter := 0;
      atomic r { perform r.Sub(1); }
    }
  )");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::UnknownName));
}

TEST(ParserTest, RejectsGuardKindMismatch) {
  DiagnosticEngine D = parseExpectError(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }
    procedure helper(r: resource<Counter>)
      requires uguard(r.Add, empty)
    { skip; }
  )");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::TypeError));
}

TEST(ParserTest, RejectsRecursiveFunction) {
  DiagnosticEngine D = parseExpectError(
      "function f(x: int): int = f(x);");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::TypeError));
}

TEST(ParserTest, RejectsAllpreWithUnboundVar) {
  DiagnosticEngine D = parseExpectError(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }
    procedure helper(r: resource<Counter>)
      ensures allpre(r.Add, S)
    { skip; }
  )");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::UnknownName));
}

TEST(ParserTest, RejectsAssignmentToParameter) {
  // Parameters are immutable so that contracts are two-state free.
  DiagnosticEngine Diags;
  Program Prog = Parser::parse(
      "procedure main(x: int) { x := 1; }", Diags);
  // Note: assignment to parameters is diagnosed by the verifier, not the
  // type checker, so this only checks the program parses.
  EXPECT_FALSE(Diags.hasErrors());
  (void)Prog;
}

TEST(ParserTest, ParseErrorRecovery) {
  DiagnosticEngine Diags;
  Program Prog = Parser::parse(R"(
    procedure broken() { var x int := 1; }
    procedure fine() { skip; }
  )",
                               Diags);
  EXPECT_TRUE(Diags.hasErrors());
  // The second procedure still parses.
  EXPECT_TRUE(Prog.findProc("fine") != nullptr);
}

TEST(ParserTest, OutputStatementParsesAndRoundTrips) {
  Program P = parseChecked(R"(
    procedure main(l: int)
      requires low(l)
    {
      output l + 1;
      output pair(l, true);
    }
  )");
  ASSERT_EQ(P.Procs[0].Body->Children.size(), 2u);
  EXPECT_EQ(P.Procs[0].Body->Children[0]->Kind, CmdKind::Output);
  // Round-trip through the printer.
  DiagnosticEngine D2;
  Program P2 = Parser::parse(P.str(), D2);
  EXPECT_FALSE(D2.hasErrors()) << P.str() << "\n" << D2.str();
  EXPECT_EQ(P.str(), P2.str());
}

TEST(ParserTest, AtomicWhenRoundTrips) {
  Program P = parseChecked(R"(
    resource Q {
      state: pair<seq<int>, int>;
      alpha(v) = v;
      unique action Cons(a: unit) {
        apply(v, a) = pair(fst(v), snd(v) + 1);
        returns(v, a) = at(fst(v), snd(v));
        enabled(v) = snd(v) < len(fst(v));
        history(v) = take(fst(v), snd(v));
      }
    }
    procedure main() returns (x: int) {
      share q: Q := pair(seq_empty(), 0);
      atomic q when Cons {
        x := perform q.Cons(unit);
      }
    }
  )");
  DiagnosticEngine D2;
  Program P2 = Parser::parse(P.str(), D2);
  EXPECT_FALSE(D2.hasErrors()) << P.str() << "\n" << D2.str();
  EXPECT_EQ(P.str(), P2.str());
}

TEST(ParserTest, ResourceHandleReassignmentRejected) {
  DiagnosticEngine D = parseExpectError(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; }
    }
    procedure main() {
      share r1: Counter := 0;
      share r2: Counter := 0;
      r1 := r2;
    }
  )");
  EXPECT_TRUE(D.hasErrorWithCode(DiagCode::TypeError));
}

namespace {

/// `main` with \p Expr as the right-hand side of its one assignment. The
/// statement and its expression open two nesting levels.
std::string mainAssigning(const std::string &Expr) {
  return "procedure main(l: int) returns (out: int)\n"
         "  requires low(l)\n  ensures low(out)\n{\n  out := " +
         Expr + ";\n}\n";
}

std::string parens(unsigned N) {
  return mainAssigning(std::string(N, '(') + "l" + std::string(N, ')'));
}

/// \p N nested `if` statements around `out := l;`.
std::string nestedIfs(unsigned N) {
  std::string Body;
  for (unsigned I = 0; I < N; ++I)
    Body += "if (l < 0) { ";
  Body += "out := l;";
  for (unsigned I = 0; I < N; ++I)
    Body += " }";
  return "procedure main(l: int) returns (out: int)\n"
         "  requires low(l)\n  ensures low(out)\n{\n  out := l;\n  " +
         Body + "\n}\n";
}

} // namespace

TEST(ParserTest, NestingAtTheLimitParses) {
  const unsigned Max = Parser::MaxNesting;
  std::string Negations;
  for (unsigned I = 0; I + 3 < Max; ++I)
    Negations += "- ";
  for (const std::string &Source :
       {parens(Max - 2), nestedIfs(Max - 2), mainAssigning(Negations + "l")}) {
    DiagnosticEngine Diags;
    Program P = Parser::parse(Source, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    EXPECT_NE(P.findProc("main"), nullptr);
  }
}

TEST(ParserTest, NestingOverTheLimitIsOneLocatedParseError) {
  const unsigned Max = Parser::MaxNesting;
  struct Case {
    std::string Source;
    unsigned Column; ///< of the token that opens level Max + 1
  };
  // `  out := ` puts the first '(' in column 10, so the expression inside
  // paren Max - 1 starts in column 10 + Max - 1. The if chain starts in
  // column 3, 13 characters per `if (l < 0) { `; the innermost statement
  // is at level Max and its right-hand side, 7 characters in, crosses.
  for (const Case &C : {Case{parens(Max - 1), 10 + Max - 1},
                        Case{parens(20000), 10 + Max - 1},
                        Case{nestedIfs(Max - 1), 3 + 13 * (Max - 1) + 7}}) {
    DiagnosticEngine Diags;
    Parser::parse(C.Source, Diags);
    ASSERT_EQ(Diags.diagnostics().size(), 1u) << Diags.str();
    const Diagnostic &D = Diags.diagnostics().front();
    EXPECT_EQ(D.Code, DiagCode::ParseError);
    EXPECT_EQ(D.Message, "nesting exceeds the limit of " + std::to_string(Max) +
                         " levels");
    EXPECT_EQ(D.Loc.Column, C.Column);
  }
}

TEST(ParserTest, StrayBlockInStatementPositionTerminates) {
  // The statement sync stops before a '{'; unless the parser skips it, the
  // enclosing block offers the same token again without end.
  DiagnosticEngine Diags;
  Program P = Parser::parse(R"(
    procedure main() returns (out: int) { { out := 0; } }
    procedure fine() { skip; }
  )",
                            Diags);
  EXPECT_TRUE(Diags.hasErrorWithCode(DiagCode::ParseError));
  EXPECT_NE(P.findProc("fine"), nullptr);
}
