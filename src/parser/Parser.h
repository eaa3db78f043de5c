//===-- parser/Parser.h - Parser for the surface language -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the `.hv` surface language: resource
/// specifications, pure functions, and procedures with relational contracts.
/// See examples/programs/*.hv for the concrete syntax.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_PARSER_PARSER_H
#define COMMCSL_PARSER_PARSER_H

#include "lang/Program.h"
#include "parser/Token.h"
#include "support/Diagnostics.h"

#include <vector>

namespace commcsl {

/// Parses a token stream into a Program. Parse errors are reported to the
/// diagnostic engine; the parser recovers at statement/declaration
/// boundaries so multiple errors can be reported in one run.
class Parser {
public:
  /// The deepest nesting the parser accepts. Each statement, each
  /// expression (a parenthesised sub-expression, a call argument, a
  /// contract atom, the right operand of `==>`), each prefix `-`/`!` and
  /// each type, type arguments included, opens one level. Deeper input
  /// gets one parse error at the token that crosses the limit and the rest
  /// of the buffer is not parsed, so nesting cannot exhaust the stack of
  /// the recursive parser or of the recursive passes after it: at this
  /// limit every verb passes on an 8 MB thread stack under the UBSan build.
  /// A chain of binary operators is not nesting and is not bounded here.
  static constexpr unsigned MaxNesting = 1000;

  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  /// Parses the whole buffer. Check `Diags.hasErrors()` before using the
  /// result.
  Program parseProgram();

  /// Convenience: lex + parse a source string.
  static Program parse(const std::string &Source, DiagnosticEngine &Diags);

private:
  // Token helpers ----------------------------------------------------------
  const Token &peek(size_t Ahead = 0) const {
    size_t I = Index + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  const Token &advance() {
    const Token &T = peek();
    if (Index + 1 < Tokens.size())
      ++Index;
    return T;
  }
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool accept(TokenKind Kind) {
    if (!check(Kind))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind Kind, const char *Context);
  void error(const std::string &Msg);
  void syncToStatement();
  void syncToDecl();

  /// Holds one nesting level (see MaxNesting) for its lifetime. Crossing
  /// the limit reports the error and unwinds to parseProgram.
  class NestingGuard {
  public:
    explicit NestingGuard(Parser &P);
    ~NestingGuard() { --P.Depth; }

  private:
    Parser &P;
  };

  // Declarations -----------------------------------------------------------
  void parseFunction(Program &Prog);
  void parseResource(Program &Prog);
  void parseProcedure(Program &Prog);
  bool parseParamList(std::vector<Param> &Out);
  TypeRef parseType();
  int64_t parseSignedInt();

  // Contracts ---------------------------------------------------------------
  Contract parseConjuncts();
  bool parseAtom(Contract &Out);
  /// Parses `R.A` in guard atoms.
  bool parseResAction(std::string &Res, std::string &Action);

  // Statements ---------------------------------------------------------------
  CommandRef parseBlock();
  CommandRef parseStatement();
  CommandRef parseAssignLike();

  // Expressions ---------------------------------------------------------------
  ExprRef parseExpr();            // full precedence incl. &&, ||, ==>
  ExprRef parseImplies();
  ExprRef parseOr(bool AllowAnd); // AllowAnd=false inside contract atoms
  ExprRef parseAnd();
  ExprRef parseRelational();
  ExprRef parseAdditive();
  ExprRef parseMultiplicative();
  ExprRef parseUnary();
  ExprRef parsePrimary();
  std::vector<ExprRef> parseArgs();

  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Index = 0;
  unsigned Depth = 0; ///< nesting levels currently open
};

} // namespace commcsl

#endif // COMMCSL_PARSER_PARSER_H
