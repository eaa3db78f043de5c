//===-- cert/Cert.cpp - Certificate model, printer, parser -----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string_view>

using namespace commcsl;
using namespace commcsl::cert;

//===----------------------------------------------------------------------===//
// Term pool
//===----------------------------------------------------------------------===//

namespace {

uint64_t hashTerm(const CTerm &T) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ULL;
  };
  Mix(static_cast<uint64_t>(T.K));
  switch (T.K) {
  case CTerm::Kind::Const:
    // The canonical rendering is the platform-stable identity of a value.
    H = fnv64(printValue(T.ConstVal), H);
    break;
  case CTerm::Kind::Sym:
    Mix(T.SymId);
    break;
  case CTerm::Kind::Unary:
    Mix(static_cast<uint64_t>(T.UOp));
    break;
  case CTerm::Kind::Binary:
    Mix(static_cast<uint64_t>(T.BOp));
    break;
  case CTerm::Kind::Builtin:
    Mix(static_cast<uint64_t>(T.BK));
    break;
  }
  for (uint32_t A : T.Args)
    Mix(A);
  return H;
}

bool sameTerm(const CTerm &A, const CTerm &B) {
  if (A.K != B.K || A.Args != B.Args)
    return false;
  switch (A.K) {
  case CTerm::Kind::Const:
    return Value::equal(A.ConstVal, B.ConstVal);
  case CTerm::Kind::Sym:
    return A.SymId == B.SymId;
  case CTerm::Kind::Unary:
    return A.UOp == B.UOp;
  case CTerm::Kind::Binary:
    return A.BOp == B.BOp;
  case CTerm::Kind::Builtin:
    return A.BK == B.BK;
  }
  return false;
}

} // namespace

uint32_t TermPool::intern(CTerm T) {
  uint64_t H = hashTerm(T);
  std::vector<uint32_t> &Bucket = Buckets[H];
  for (uint32_t Id : Bucket)
    if (sameTerm(Terms[Id], T))
      return Id;
  uint32_t Id = static_cast<uint32_t>(Terms.size());
  Terms.push_back(std::move(T));
  Bucket.push_back(Id);
  return Id;
}

uint32_t TermPool::constant(ValueRef V) {
  CTerm T;
  T.K = CTerm::Kind::Const;
  T.ConstVal = std::move(V);
  return intern(std::move(T));
}

uint32_t TermPool::intConst(int64_t V) { return constant(ValueFactory::intV(V)); }
uint32_t TermPool::boolConst(bool V) { return constant(ValueFactory::boolV(V)); }

uint32_t TermPool::sym(uint32_t SymId, std::string Name) {
  CTerm T;
  T.K = CTerm::Kind::Sym;
  T.SymId = SymId;
  T.SymName = std::move(Name);
  return intern(std::move(T));
}

uint32_t TermPool::unary(UnaryOp Op, uint32_t A) {
  CTerm T;
  T.K = CTerm::Kind::Unary;
  T.UOp = Op;
  T.Args = {A};
  return intern(std::move(T));
}

uint32_t TermPool::binary(BinaryOp Op, uint32_t A, uint32_t B) {
  CTerm T;
  T.K = CTerm::Kind::Binary;
  T.BOp = Op;
  T.Args = {A, B};
  return intern(std::move(T));
}

uint32_t TermPool::builtin(BuiltinKind BK, std::vector<uint32_t> Args) {
  CTerm T;
  T.K = CTerm::Kind::Builtin;
  T.BK = BK;
  T.Args = std::move(Args);
  return intern(std::move(T));
}

uint32_t TermPool::mkNot(uint32_t A) {
  const CTerm &T = at(A);
  if (T.isConst() && T.ConstVal->isBool())
    return boolConst(!T.ConstVal->getBool());
  if (T.K == CTerm::Kind::Unary && T.UOp == UnaryOp::Not)
    return T.Args[0];
  return unary(UnaryOp::Not, A);
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

namespace {

void escapeInto(const std::string &S, std::string &Out) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += C;
    }
  }
  Out += '"';
}

std::string quoted(const std::string &S) {
  std::string Out;
  escapeInto(S, Out);
  return Out;
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "#%016" PRIx64, V);
  return Buf;
}

void printValueInto(const ValueRef &V, std::string &Out) {
  if (!V) {
    Out += "none";
    return;
  }
  switch (V->kind()) {
  case ValueKind::Unit:
    Out += "un";
    return;
  case ValueKind::Int:
    Out += "(i " + std::to_string(V->getInt()) + ")";
    return;
  case ValueKind::Bool:
    Out += V->getBool() ? "tt" : "ff";
    return;
  case ValueKind::String:
    Out += "(str ";
    escapeInto(V->getString(), Out);
    Out += ')';
    return;
  case ValueKind::Pair:
  case ValueKind::Seq:
  case ValueKind::Set:
  case ValueKind::Multiset: {
    switch (V->kind()) {
    case ValueKind::Pair:
      Out += "(p";
      break;
    case ValueKind::Seq:
      Out += "(sq";
      break;
    case ValueKind::Set:
      Out += "(st";
      break;
    default:
      Out += "(ms";
      break;
    }
    for (const ValueRef &E : V->elems()) {
      Out += ' ';
      printValueInto(E, Out);
    }
    Out += ')';
    return;
  }
  case ValueKind::Map: {
    Out += "(mp";
    for (const auto &[K, Val] : V->mapEntries()) {
      Out += " (";
      printValueInto(K, Out);
      Out += ' ';
      printValueInto(Val, Out);
      Out += ')';
    }
    Out += ')';
    return;
  }
  }
}

void printTermInto(const CTerm &T, std::string &Out) {
  switch (T.K) {
  case CTerm::Kind::Const:
    Out += "(c ";
    printValueInto(T.ConstVal, Out);
    Out += ')';
    return;
  case CTerm::Kind::Sym:
    Out += "(s " + std::to_string(T.SymId) + ' ' + quoted(T.SymName) + ')';
    return;
  case CTerm::Kind::Unary:
    Out += std::string("(u ") + unaryOpName(T.UOp) + ' ' +
           std::to_string(T.Args[0]) + ')';
    return;
  case CTerm::Kind::Binary:
    Out += std::string("(b ") + binaryOpName(T.BOp) + ' ' +
           std::to_string(T.Args[0]) + ' ' + std::to_string(T.Args[1]) + ')';
    return;
  case CTerm::Kind::Builtin: {
    Out += std::string("(ap ") + builtinName(T.BK);
    for (uint32_t A : T.Args)
      Out += ' ' + std::to_string(A);
    Out += ')';
    return;
  }
  }
}

const char *familyName(Family F) {
  switch (F) {
  case Family::None:
    return "none";
  case Family::ConstantAbstraction:
    return "constant-abstraction";
  case Family::AcUpdate:
    return "ac-update";
  }
  return "none";
}

const char *ceName(CertCE::Prop P) {
  switch (P) {
  case CertCE::Prop::Precondition:
    return "pre";
  case CertCE::Prop::Commutativity:
    return "comm";
  case CertCE::Prop::History:
    return "hist";
  case CertCE::Prop::Invariant:
    return "inv";
  }
  return "comm";
}

void printSpecInto(const CertSpecUnit &S, std::string &Out) {
  Out += " (spec " + quoted(S.Name) + " (status " +
         (S.Valid ? "valid" : "invalid") + ")\n";
  Out += "  (scope " + std::to_string(S.ScopeLo) + ' ' +
         std::to_string(S.ScopeHi) + ' ' + std::to_string(S.ScopeBound) +
         ")\n";
  Out += "  (caps " + std::to_string(S.StatesCap) + ' ' +
         std::to_string(S.ArgsCap) + ")\n";
  Out += "  (universe " + std::to_string(S.NumStates) + ' ' +
         std::to_string(S.NumAlphaPairs) + " (args";
  for (const auto &[Name, N] : S.ArgCounts)
    Out += " (" + quoted(Name) + ' ' + std::to_string(N) + ')';
  Out += "))\n";
  Out += "  (samples " + std::to_string(S.SampleCount) + ' ' +
         hex64(S.SampleDigest) + ")\n";
  Out += "  (family ";
  if (S.Fam == Family::AcUpdate)
    Out += std::string("(ac-update ") + quoted(S.FamilyOp) + ')';
  else
    Out += familyName(S.Fam);
  Out += ")\n";
  Out += "  (checks " + std::to_string(S.BoundedChecks) + ' ' +
         std::to_string(S.RandomChecks) + ")\n";
  if (S.Absint) {
    const CertAbsSection &A = *S.Absint;
    Out += std::string("  (absint ") + (A.Unbounded ? "unbounded" : "partial") +
           " (comps " + std::to_string(A.NumComps) + ")\n";
    for (const auto &[Action, U] : A.Templates)
      Out += "   (u " + quoted(Action) + ' ' + quoted(U) + ")\n";
    for (const CertAbsOb &Ob : A.Obligations) {
      Out += Ob.IsPre ? "   (pre " + quoted(Ob.ActionA)
                      : "   (comm " + quoted(Ob.ActionA) + ' ' +
                            quoted(Ob.ActionB);
      Out += " (tree";
      for (const std::string &G : Ob.Tree)
        Out += ' ' + quoted(G);
      Out += "))\n";
    }
    Out += "  )\n";
  }
  if (S.CE) {
    Out += std::string("  (ce ") + ceName(S.CE->P) + ' ' +
           quoted(S.CE->ActionA) + ' ' + quoted(S.CE->ActionB);
    for (const ValueRef *V :
         {&S.CE->V1, &S.CE->V2, &S.CE->Arg1, &S.CE->Arg2, &S.CE->AlphaLeft,
          &S.CE->AlphaRight}) {
      Out += ' ';
      printValueInto(*V, Out);
    }
    Out += ")\n";
  }
  Out += " )\n";
}

void printProcInto(const CertProcUnit &P, std::string &Out) {
  Out += " (proc " + quoted(P.Name) + " (status " +
         (P.Ok ? "ok" : "rejected") + ")";
  if (P.StructuralFail)
    Out += " (structural)";
  Out += "\n";
  Out += "  (terms\n";
  for (uint32_t I = 0; I < P.Pool.size(); ++I) {
    Out += "   (t " + std::to_string(I) + ' ';
    printTermInto(P.Pool.at(I), Out);
    Out += ")\n";
  }
  Out += "  )\n";
  Out += "  (facts\n";
  for (size_t I = 0; I < P.Facts.size(); ++I) {
    const CertFact &F = P.Facts[I];
    Out += "   (f " + std::to_string(I) + ' ';
    switch (F.K) {
    case CertFact::Kind::Eq:
      Out += "(eq " + std::to_string(F.A) + ' ' + std::to_string(F.B) + ')';
      break;
    case CertFact::Kind::True:
      Out += "(tr " + std::to_string(F.A) + ')';
      break;
    case CertFact::Kind::Le:
      Out += "(le " + std::to_string(F.A) + ' ' + std::to_string(F.B) + ' ' +
             std::to_string(F.Bias) + ')';
      break;
    }
    Out += ")\n";
  }
  Out += "  )\n";
  for (const CertObligation &Ob : P.Obligations) {
    Out += "  (ob " + quoted(Ob.Label) + (Ob.Ok ? " ok" : " fail") + "\n";
    for (const CertQuery &Q : Ob.Queries) {
      Out += "   (q ";
      if (Q.IsEq)
        Out += "eq " + std::to_string(Q.A) + ' ' + std::to_string(Q.B);
      else
        Out += "tr " + std::to_string(Q.A);
      Out += Q.Proved ? " proved" : " refuted";
      Out += " (ctx";
      for (uint32_t F : Q.Ctx)
        Out += ' ' + std::to_string(F);
      Out += "))\n";
    }
    Out += "  )\n";
  }
  Out += " )\n";
}

} // namespace

std::string cert::printValue(const ValueRef &V) {
  std::string Out;
  printValueInto(V, Out);
  return Out;
}

std::string cert::printSpecUnit(const CertSpecUnit &S) {
  std::string Out;
  printSpecInto(S, Out);
  return Out;
}

std::string cert::print(const Certificate &C) {
  std::string Out;
  Out.reserve(4096);
  Out += "(commcsl-cert v1\n";
  Out += " (program " + quoted(C.ProgramName) + ' ' + hex64(C.ProgramDigest) +
         ")\n";
  Out += std::string(" (verdict ") + (C.Verified ? "verified" : "rejected") +
         ")\n";
  for (const CertSpecUnit &S : C.Specs)
    printSpecInto(S, Out);
  for (const CertProcUnit &P : C.Procs)
    printProcInto(P, Out);
  Out += ")\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Lexer / s-expression reader (hand-rolled, LFSC style)
//===----------------------------------------------------------------------===//

namespace {

/// One node of a read document. Nodes are trivially copyable views: atom
/// text points into the input (string payloads into the reader's unescaped
/// copies), and a list's kids are one contiguous block the reader owns.
struct SExpr {
  bool IsList = false;
  bool IsString = false; ///< atom came quoted
  std::string_view Atom; ///< atom text or unescaped string payload
  std::span<const SExpr> Kids;

  bool isAtom(const char *S) const {
    return !IsList && !IsString && Atom == S;
  }
  /// `(head ...)` with atom head \p S.
  bool isForm(const char *S) const {
    return IsList && !Kids.empty() && Kids[0].isAtom(S);
  }
};

/// Reads one s-expression. Kids are collected on a shared stack and copied
/// into an exactly sized block when their list closes, so a large
/// certificate costs one small node per atom and one allocation per list.
/// The nodes live as long as the reader.
class Lexer {
public:
  Lexer(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool fail(const std::string &Msg) {
    if (Error && Error->empty())
      *Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\n' || Text[Pos] == '\t' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool read(SExpr &Out) {
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    Out = SExpr();
    if (C == '(') {
      ++Pos;
      Out.IsList = true;
      size_t Base = Stack.size();
      for (;;) {
        skipSpace();
        if (Pos >= Text.size())
          return fail("unterminated list");
        if (Text[Pos] == ')') {
          ++Pos;
          break;
        }
        SExpr Kid;
        if (!read(Kid))
          return false;
        Stack.push_back(Kid);
      }
      size_t N = Stack.size() - Base;
      Blocks.push_back(std::make_unique<SExpr[]>(N));
      std::copy(Stack.begin() + Base, Stack.end(), Blocks.back().get());
      Stack.resize(Base);
      Out.Kids = {Blocks.back().get(), N};
      return true;
    }
    if (C == ')')
      return fail("unexpected ')'");
    if (C == '"') {
      ++Pos;
      Out.IsString = true;
      std::string &Payload = Strings.emplace_back();
      while (Pos < Text.size() && Text[Pos] != '"') {
        char D = Text[Pos++];
        if (D == '\\') {
          if (Pos >= Text.size())
            return fail("unterminated escape");
          char E = Text[Pos++];
          switch (E) {
          case '"':
            Payload += '"';
            break;
          case '\\':
            Payload += '\\';
            break;
          case 'n':
            Payload += '\n';
            break;
          case 't':
            Payload += '\t';
            break;
          case 'r':
            Payload += '\r';
            break;
          default:
            return fail("unknown escape");
          }
        } else {
          Payload += D;
        }
      }
      if (Pos >= Text.size())
        return fail("unterminated string");
      ++Pos; // closing quote
      Out.Atom = Payload;
      return true;
    }
    // Atom: everything up to whitespace or a paren.
    size_t Start = Pos;
    while (Pos < Text.size()) {
      char D = Text[Pos];
      if (D == '(' || D == ')' || D == ' ' || D == '\n' || D == '\t' ||
          D == '\r' || D == '"')
        break;
      ++Pos;
    }
    if (Pos == Start)
      return fail("empty atom");
    Out.Atom = std::string_view(Text).substr(Start, Pos - Start);
    return true;
  }

private:
  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
  std::vector<SExpr> Stack; ///< kids of the lists being read
  std::vector<std::unique_ptr<SExpr[]>> Blocks;
  std::deque<std::string> Strings; ///< unescaped string payloads
};

//===----------------------------------------------------------------------===//
// Parser (SExpr -> document model)
//===----------------------------------------------------------------------===//

struct Parser {
  std::string *Error;

  bool fail(const std::string &Msg) {
    if (Error && Error->empty())
      *Error = Msg;
    return false;
  }

  bool parseI64(const SExpr &E, int64_t &Out) {
    if (E.IsList || E.IsString || E.Atom.empty())
      return fail("expected integer");
    int64_t V = 0;
    const char *End = E.Atom.data() + E.Atom.size();
    auto [Ptr, Ec] = std::from_chars(E.Atom.data(), End, V);
    if (Ec != std::errc() || Ptr != End)
      return fail("bad integer '" + std::string(E.Atom) + "'");
    Out = V;
    return true;
  }

  bool parseU64(const SExpr &E, uint64_t &Out) {
    int64_t V = 0;
    if (!parseI64(E, V))
      return false;
    if (V < 0)
      return fail("expected unsigned integer");
    Out = static_cast<uint64_t>(V);
    return true;
  }

  bool parseU32(const SExpr &E, uint32_t &Out) {
    uint64_t V = 0;
    if (!parseU64(E, V))
      return false;
    if (V > 0xFFFFFFFFULL)
      return fail("id out of range");
    Out = static_cast<uint32_t>(V);
    return true;
  }

  bool parseHex(const SExpr &E, uint64_t &Out) {
    if (E.IsList || E.IsString || E.Atom.size() < 2 || E.Atom[0] != '#')
      return fail("expected #hex digest");
    Out = 0;
    for (size_t I = 1; I < E.Atom.size(); ++I) {
      char C = E.Atom[I];
      uint64_t D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = 10 + (C - 'a');
      else
        return fail("bad hex digest");
      Out = (Out << 4) | D;
    }
    return true;
  }

  bool parseStr(const SExpr &E, std::string &Out) {
    if (!E.IsString)
      return fail("expected string");
    Out = E.Atom;
    return true;
  }

  bool parseValue(const SExpr &E, ValueRef &Out) {
    if (!E.IsList) {
      if (E.IsString)
        return fail("bare string is not a value");
      if (E.Atom == "un") {
        Out = ValueFactory::unit();
        return true;
      }
      if (E.Atom == "tt") {
        Out = ValueFactory::boolV(true);
        return true;
      }
      if (E.Atom == "ff") {
        Out = ValueFactory::boolV(false);
        return true;
      }
      if (E.Atom == "none") {
        Out = nullptr;
        return true;
      }
      return fail("unknown value atom '" + std::string(E.Atom) + "'");
    }
    if (E.Kids.empty() || E.Kids[0].IsList || E.Kids[0].IsString)
      return fail("bad value form");
    std::string_view Head = E.Kids[0].Atom;
    if (Head == "i") {
      int64_t V;
      if (E.Kids.size() != 2 || !parseI64(E.Kids[1], V))
        return fail("bad int value");
      Out = ValueFactory::intV(V);
      return true;
    }
    if (Head == "str") {
      std::string S;
      if (E.Kids.size() != 2 || !parseStr(E.Kids[1], S))
        return fail("bad string value");
      Out = ValueFactory::stringV(std::move(S));
      return true;
    }
    if (Head == "p" || Head == "sq" || Head == "st" || Head == "ms") {
      std::vector<ValueRef> Elems;
      Elems.reserve(E.Kids.size() - 1);
      for (size_t I = 1; I < E.Kids.size(); ++I) {
        ValueRef V;
        if (!parseValue(E.Kids[I], V) || !V)
          return fail("bad collection element");
        Elems.push_back(std::move(V));
      }
      if (Head == "p") {
        if (Elems.size() != 2)
          return fail("pair needs two elements");
        Out = ValueFactory::pair(Elems[0], Elems[1]);
      } else if (Head == "sq") {
        Out = ValueFactory::seq(std::move(Elems));
      } else if (Head == "st") {
        Out = ValueFactory::set(std::move(Elems));
      } else {
        Out = ValueFactory::multiset(std::move(Elems));
      }
      return true;
    }
    if (Head == "mp") {
      std::vector<std::pair<ValueRef, ValueRef>> Entries;
      for (size_t I = 1; I < E.Kids.size(); ++I) {
        const SExpr &Kid = E.Kids[I];
        if (!Kid.IsList || Kid.Kids.size() != 2)
          return fail("bad map entry");
        ValueRef K, V;
        if (!parseValue(Kid.Kids[0], K) || !K || !parseValue(Kid.Kids[1], V) ||
            !V)
          return fail("bad map entry");
        Entries.emplace_back(std::move(K), std::move(V));
      }
      Out = ValueFactory::map(std::move(Entries));
      return true;
    }
    return fail("unknown value form '" + std::string(Head) + "'");
  }

  bool unaryOpByName(std::string_view Name, UnaryOp &Out) {
    for (UnaryOp Op : {UnaryOp::Neg, UnaryOp::Not})
      if (Name == unaryOpName(Op)) {
        Out = Op;
        return true;
      }
    return fail("unknown unary op '" + std::string(Name) + "'");
  }

  bool binaryOpByName(std::string_view Name, BinaryOp &Out) {
    for (int I = 0; I <= static_cast<int>(BinaryOp::Implies); ++I) {
      BinaryOp Op = static_cast<BinaryOp>(I);
      if (Name == binaryOpName(Op)) {
        Out = Op;
        return true;
      }
    }
    return fail("unknown binary op '" + std::string(Name) + "'");
  }

  /// Parses a term body into \p T (Args referencing already-parsed ids,
  /// bounds-checked against \p PoolSize).
  bool parseTermBody(const SExpr &E, size_t PoolSize, CTerm &T) {
    if (!E.IsList || E.Kids.empty() || E.Kids[0].IsList || E.Kids[0].IsString)
      return fail("bad term body");
    std::string_view Head = E.Kids[0].Atom;
    auto ParseArg = [&](const SExpr &K, uint32_t &Out) {
      if (!parseU32(K, Out))
        return false;
      if (Out >= PoolSize)
        return fail("forward term reference");
      return true;
    };
    if (Head == "c") {
      if (E.Kids.size() != 2)
        return fail("bad const term");
      T.K = CTerm::Kind::Const;
      if (!parseValue(E.Kids[1], T.ConstVal) || !T.ConstVal)
        return fail("bad const term value");
      return true;
    }
    if (Head == "s") {
      if (E.Kids.size() != 3)
        return fail("bad sym term");
      T.K = CTerm::Kind::Sym;
      return parseU32(E.Kids[1], T.SymId) && parseStr(E.Kids[2], T.SymName);
    }
    if (Head == "u") {
      if (E.Kids.size() != 3 || E.Kids[1].IsList || E.Kids[1].IsString)
        return fail("bad unary term");
      T.K = CTerm::Kind::Unary;
      T.Args.resize(1);
      return unaryOpByName(E.Kids[1].Atom, T.UOp) &&
             ParseArg(E.Kids[2], T.Args[0]);
    }
    if (Head == "b") {
      if (E.Kids.size() != 4 || E.Kids[1].IsList || E.Kids[1].IsString)
        return fail("bad binary term");
      T.K = CTerm::Kind::Binary;
      T.Args.resize(2);
      return binaryOpByName(E.Kids[1].Atom, T.BOp) &&
             ParseArg(E.Kids[2], T.Args[0]) && ParseArg(E.Kids[3], T.Args[1]);
    }
    if (Head == "ap") {
      if (E.Kids.size() < 2 || E.Kids[1].IsList || E.Kids[1].IsString)
        return fail("bad builtin term");
      std::string Name(E.Kids[1].Atom);
      std::optional<BuiltinKind> BK = builtinByName(Name);
      if (!BK)
        return fail("unknown builtin '" + Name + "'");
      T.K = CTerm::Kind::Builtin;
      T.BK = *BK;
      T.Args.resize(E.Kids.size() - 2);
      for (size_t I = 2; I < E.Kids.size(); ++I)
        if (!ParseArg(E.Kids[I], T.Args[I - 2]))
          return false;
      return true;
    }
    return fail("unknown term form '" + std::string(Head) + "'");
  }

  bool parseSpec(const SExpr &E, CertSpecUnit &S) {
    // (spec "name" (status ..) (scope ..) (caps ..) (universe ..)
    //  (samples ..) (family ..) (checks ..) (ce ..)?)
    if (E.Kids.size() < 8 || !parseStr(E.Kids[1], S.Name))
      return fail("bad spec unit");
    size_t I = 2;
    const SExpr &St = E.Kids[I++];
    if (!St.isForm("status") || St.Kids.size() != 2)
      return fail("bad spec status");
    if (St.Kids[1].isAtom("valid"))
      S.Valid = true;
    else if (St.Kids[1].isAtom("invalid"))
      S.Valid = false;
    else
      return fail("bad spec status value");
    const SExpr &Sc = E.Kids[I++];
    int64_t Bound;
    if (!Sc.isForm("scope") || Sc.Kids.size() != 4 ||
        !parseI64(Sc.Kids[1], S.ScopeLo) || !parseI64(Sc.Kids[2], S.ScopeHi) ||
        !parseI64(Sc.Kids[3], Bound) || Bound < 0)
      return fail("bad spec scope");
    S.ScopeBound = static_cast<unsigned>(Bound);
    const SExpr &Caps = E.Kids[I++];
    if (!Caps.isForm("caps") || Caps.Kids.size() != 3 ||
        !parseU64(Caps.Kids[1], S.StatesCap) ||
        !parseU64(Caps.Kids[2], S.ArgsCap))
      return fail("bad spec caps");
    const SExpr &U = E.Kids[I++];
    if (!U.isForm("universe") || U.Kids.size() != 4 ||
        !parseU64(U.Kids[1], S.NumStates) ||
        !parseU64(U.Kids[2], S.NumAlphaPairs) || !U.Kids[3].isForm("args"))
      return fail("bad spec universe");
    for (size_t J = 1; J < U.Kids[3].Kids.size(); ++J) {
      const SExpr &AE = U.Kids[3].Kids[J];
      std::string Name;
      uint64_t N;
      if (!AE.IsList || AE.Kids.size() != 2 || !parseStr(AE.Kids[0], Name) ||
          !parseU64(AE.Kids[1], N))
        return fail("bad spec arg count");
      S.ArgCounts.emplace_back(std::move(Name), N);
    }
    const SExpr &Sm = E.Kids[I++];
    uint64_t SampleCount;
    if (!Sm.isForm("samples") || Sm.Kids.size() != 3 ||
        !parseU64(Sm.Kids[1], SampleCount) || !parseHex(Sm.Kids[2], S.SampleDigest))
      return fail("bad spec samples");
    S.SampleCount = static_cast<unsigned>(SampleCount);
    const SExpr &Fm = E.Kids[I++];
    if (!Fm.isForm("family") || Fm.Kids.size() != 2)
      return fail("bad spec family");
    if (Fm.Kids[1].isAtom("none"))
      S.Fam = Family::None;
    else if (Fm.Kids[1].isAtom("constant-abstraction"))
      S.Fam = Family::ConstantAbstraction;
    else if (Fm.Kids[1].isForm("ac-update") && Fm.Kids[1].Kids.size() == 2 &&
             parseStr(Fm.Kids[1].Kids[1], S.FamilyOp))
      S.Fam = Family::AcUpdate;
    else
      return fail("bad spec family value");
    const SExpr &Ck = E.Kids[I++];
    if (!Ck.isForm("checks") || Ck.Kids.size() != 3 ||
        !parseU64(Ck.Kids[1], S.BoundedChecks) ||
        !parseU64(Ck.Kids[2], S.RandomChecks))
      return fail("bad spec checks");
    if (I < E.Kids.size() && E.Kids[I].isForm("absint")) {
      const SExpr &Ab = E.Kids[I++];
      CertAbsSection A;
      if (Ab.Kids.size() < 3)
        return fail("bad spec absint");
      if (Ab.Kids[1].isAtom("unbounded"))
        A.Unbounded = true;
      else if (!Ab.Kids[1].isAtom("partial"))
        return fail("bad absint mode");
      uint64_t NComps;
      if (!Ab.Kids[2].isForm("comps") || Ab.Kids[2].Kids.size() != 2 ||
          !parseU64(Ab.Kids[2].Kids[1], NComps))
        return fail("bad absint comps");
      A.NumComps = static_cast<uint32_t>(NComps);
      for (size_t J = 3; J < Ab.Kids.size(); ++J) {
        const SExpr &K = Ab.Kids[J];
        if (K.isForm("u")) {
          std::string Action, U;
          if (K.Kids.size() != 3 || !parseStr(K.Kids[1], Action) ||
              !parseStr(K.Kids[2], U))
            return fail("bad absint template");
          A.Templates.emplace_back(std::move(Action), std::move(U));
          continue;
        }
        CertAbsOb Ob;
        size_t TreeAt;
        if (K.isForm("pre")) {
          Ob.IsPre = true;
          if (K.Kids.size() != 3 || !parseStr(K.Kids[1], Ob.ActionA))
            return fail("bad absint pre obligation");
          TreeAt = 2;
        } else if (K.isForm("comm")) {
          Ob.IsPre = false;
          if (K.Kids.size() != 4 || !parseStr(K.Kids[1], Ob.ActionA) ||
              !parseStr(K.Kids[2], Ob.ActionB))
            return fail("bad absint comm obligation");
          TreeAt = 3;
        } else {
          return fail("unknown absint field");
        }
        const SExpr &Tr = K.Kids[TreeAt];
        if (!Tr.isForm("tree"))
          return fail("bad absint tree");
        for (size_t G = 1; G < Tr.Kids.size(); ++G) {
          std::string Guard;
          if (!parseStr(Tr.Kids[G], Guard))
            return fail("bad absint guard");
          Ob.Tree.push_back(std::move(Guard));
        }
        A.Obligations.push_back(std::move(Ob));
      }
      S.Absint = std::move(A);
    }
    if (I < E.Kids.size()) {
      const SExpr &CE = E.Kids[I++];
      if (!CE.isForm("ce") || CE.Kids.size() != 10)
        return fail("bad spec ce");
      CertCE C;
      if (CE.Kids[1].isAtom("pre"))
        C.P = CertCE::Prop::Precondition;
      else if (CE.Kids[1].isAtom("comm"))
        C.P = CertCE::Prop::Commutativity;
      else if (CE.Kids[1].isAtom("hist"))
        C.P = CertCE::Prop::History;
      else if (CE.Kids[1].isAtom("inv"))
        C.P = CertCE::Prop::Invariant;
      else
        return fail("bad ce property");
      if (!parseStr(CE.Kids[2], C.ActionA) || !parseStr(CE.Kids[3], C.ActionB))
        return fail("bad ce actions");
      ValueRef *Slots[6] = {&C.V1,   &C.V2,        &C.Arg1,
                            &C.Arg2, &C.AlphaLeft, &C.AlphaRight};
      for (size_t J = 0; J < 6; ++J)
        if (!parseValue(CE.Kids[4 + J], *Slots[J]))
          return fail("bad ce value");
      S.CE = std::move(C);
    }
    if (I != E.Kids.size())
      return fail("trailing spec fields");
    return true;
  }

  bool parseProc(const SExpr &E, CertProcUnit &P) {
    if (E.Kids.size() < 5 || !parseStr(E.Kids[1], P.Name))
      return fail("bad proc unit");
    size_t I = 2;
    const SExpr &St = E.Kids[I++];
    if (!St.isForm("status") || St.Kids.size() != 2)
      return fail("bad proc status");
    if (St.Kids[1].isAtom("ok"))
      P.Ok = true;
    else if (St.Kids[1].isAtom("rejected"))
      P.Ok = false;
    else
      return fail("bad proc status value");
    if (I < E.Kids.size() && E.Kids[I].isForm("structural")) {
      P.StructuralFail = true;
      ++I;
    }
    if (I >= E.Kids.size() || !E.Kids[I].isForm("terms"))
      return fail("missing proc terms");
    const SExpr &Terms = E.Kids[I++];
    for (size_t J = 1; J < Terms.Kids.size(); ++J) {
      const SExpr &TE = Terms.Kids[J];
      uint32_t Id;
      if (!TE.isForm("t") || TE.Kids.size() != 3 || !parseU32(TE.Kids[1], Id))
        return fail("bad term entry");
      if (Id != J - 1)
        return fail("non-sequential term id");
      CTerm T;
      if (!parseTermBody(TE.Kids[2], P.Pool.size(), T))
        return false;
      uint32_t Got = 0;
      switch (T.K) {
      case CTerm::Kind::Const:
        Got = P.Pool.constant(T.ConstVal);
        break;
      case CTerm::Kind::Sym:
        Got = P.Pool.sym(T.SymId, T.SymName);
        break;
      case CTerm::Kind::Unary:
        Got = P.Pool.unary(T.UOp, T.Args[0]);
        break;
      case CTerm::Kind::Binary:
        Got = P.Pool.binary(T.BOp, T.Args[0], T.Args[1]);
        break;
      case CTerm::Kind::Builtin:
        Got = P.Pool.builtin(T.BK, T.Args);
        break;
      }
      if (Got != Id)
        return fail("duplicate term in pool");
    }
    if (I >= E.Kids.size() || !E.Kids[I].isForm("facts"))
      return fail("missing proc facts");
    const SExpr &Facts = E.Kids[I++];
    for (size_t J = 1; J < Facts.Kids.size(); ++J) {
      const SExpr &FE = Facts.Kids[J];
      uint32_t Id;
      if (!FE.isForm("f") || FE.Kids.size() != 3 || !parseU32(FE.Kids[1], Id) ||
          Id != J - 1)
        return fail("bad fact entry");
      const SExpr &Body = FE.Kids[2];
      CertFact F;
      auto TermId = [&](const SExpr &K, uint32_t &Out) {
        if (!parseU32(K, Out))
          return false;
        if (Out >= P.Pool.size())
          return fail("fact references unknown term");
        return true;
      };
      if (Body.isForm("eq") && Body.Kids.size() == 3) {
        F.K = CertFact::Kind::Eq;
        if (!TermId(Body.Kids[1], F.A) || !TermId(Body.Kids[2], F.B))
          return false;
      } else if (Body.isForm("tr") && Body.Kids.size() == 2) {
        F.K = CertFact::Kind::True;
        if (!TermId(Body.Kids[1], F.A))
          return false;
      } else if (Body.isForm("le") && Body.Kids.size() == 4) {
        F.K = CertFact::Kind::Le;
        if (!TermId(Body.Kids[1], F.A) || !TermId(Body.Kids[2], F.B) ||
            !parseI64(Body.Kids[3], F.Bias))
          return false;
      } else {
        return fail("bad fact form");
      }
      P.Facts.push_back(F);
    }
    for (; I < E.Kids.size(); ++I) {
      const SExpr &ObE = E.Kids[I];
      if (!ObE.isForm("ob") || ObE.Kids.size() < 3)
        return fail("bad obligation");
      CertObligation Ob;
      if (!parseStr(ObE.Kids[1], Ob.Label))
        return fail("bad obligation label");
      if (ObE.Kids[2].isAtom("ok"))
        Ob.Ok = true;
      else if (ObE.Kids[2].isAtom("fail"))
        Ob.Ok = false;
      else
        return fail("bad obligation status");
      for (size_t J = 3; J < ObE.Kids.size(); ++J) {
        const SExpr &QE = ObE.Kids[J];
        if (!QE.isForm("q") || QE.Kids.size() < 4)
          return fail("bad query");
        CertQuery Q;
        size_t K = 1;
        auto TermId = [&](const SExpr &KE, uint32_t &Out) {
          if (!parseU32(KE, Out))
            return false;
          if (Out >= P.Pool.size())
            return fail("query references unknown term");
          return true;
        };
        if (QE.Kids[K].isAtom("eq")) {
          Q.IsEq = true;
          ++K;
          if (QE.Kids.size() != 6 || !TermId(QE.Kids[K], Q.A) ||
              !TermId(QE.Kids[K + 1], Q.B))
            return fail("bad eq query");
          K += 2;
        } else if (QE.Kids[K].isAtom("tr")) {
          Q.IsEq = false;
          ++K;
          if (QE.Kids.size() != 5 || !TermId(QE.Kids[K], Q.A))
            return fail("bad tr query");
          K += 1;
        } else {
          return fail("bad query kind");
        }
        if (QE.Kids[K].isAtom("proved"))
          Q.Proved = true;
        else if (QE.Kids[K].isAtom("refuted"))
          Q.Proved = false;
        else
          return fail("bad query verdict");
        ++K;
        const SExpr &Ctx = QE.Kids[K];
        if (!Ctx.isForm("ctx"))
          return fail("missing query ctx");
        Q.Ctx.reserve(Ctx.Kids.size() - 1);
        for (size_t L = 1; L < Ctx.Kids.size(); ++L) {
          uint32_t F;
          if (!parseU32(Ctx.Kids[L], F))
            return false;
          if (F >= P.Facts.size())
            return fail("ctx references unknown fact");
          Q.Ctx.push_back(F);
        }
        Ob.Queries.push_back(std::move(Q));
      }
      P.Obligations.push_back(std::move(Ob));
    }
    return true;
  }
};

} // namespace

std::optional<Certificate> cert::parse(const std::string &Text,
                                       std::string *Error) {
  if (Error)
    Error->clear();
  Lexer Lex(Text, Error);
  SExpr Root;
  if (!Lex.read(Root))
    return std::nullopt;
  if (!Lex.atEnd()) {
    Lex.fail("trailing input after certificate");
    return std::nullopt;
  }
  Parser P{Error};
  if (!Root.isForm("commcsl-cert") || Root.Kids.size() < 4 ||
      !Root.Kids[1].isAtom("v1")) {
    P.fail("not a commcsl-cert v1 document");
    return std::nullopt;
  }
  Certificate C;
  const SExpr &Prog = Root.Kids[2];
  if (!Prog.isForm("program") || Prog.Kids.size() != 3 ||
      !P.parseStr(Prog.Kids[1], C.ProgramName) ||
      !P.parseHex(Prog.Kids[2], C.ProgramDigest)) {
    P.fail("bad program header");
    return std::nullopt;
  }
  const SExpr &Verdict = Root.Kids[3];
  if (!Verdict.isForm("verdict") || Verdict.Kids.size() != 2) {
    P.fail("bad verdict");
    return std::nullopt;
  }
  if (Verdict.Kids[1].isAtom("verified"))
    C.Verified = true;
  else if (Verdict.Kids[1].isAtom("rejected"))
    C.Verified = false;
  else {
    P.fail("bad verdict value");
    return std::nullopt;
  }
  for (size_t I = 4; I < Root.Kids.size(); ++I) {
    const SExpr &E = Root.Kids[I];
    if (E.isForm("spec")) {
      if (!C.Procs.empty()) {
        P.fail("spec unit after proc unit");
        return std::nullopt;
      }
      CertSpecUnit S;
      if (!P.parseSpec(E, S))
        return std::nullopt;
      C.Specs.push_back(std::move(S));
    } else if (E.isForm("proc")) {
      CertProcUnit Proc;
      if (!P.parseProc(E, Proc))
        return std::nullopt;
      C.Procs.push_back(std::move(Proc));
    } else {
      P.fail("unknown top-level form");
      return std::nullopt;
    }
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Structural equality
//===----------------------------------------------------------------------===//

namespace {

bool sameValue(const ValueRef &A, const ValueRef &B) {
  if (!A || !B)
    return !A && !B;
  return Value::equal(A, B);
}

bool samePool(const TermPool &A, const TermPool &B) {
  if (A.size() != B.size())
    return false;
  for (uint32_t I = 0; I < A.size(); ++I) {
    const CTerm &TA = A.at(I), &TB = B.at(I);
    if (!sameTerm(TA, TB))
      return false;
    if (TA.K == CTerm::Kind::Sym && TA.SymName != TB.SymName)
      return false;
  }
  return true;
}

bool sameCE(const std::optional<CertCE> &A, const std::optional<CertCE> &B) {
  if (A.has_value() != B.has_value())
    return false;
  if (!A)
    return true;
  return A->P == B->P && A->ActionA == B->ActionA && A->ActionB == B->ActionB &&
         sameValue(A->V1, B->V1) && sameValue(A->V2, B->V2) &&
         sameValue(A->Arg1, B->Arg1) && sameValue(A->Arg2, B->Arg2) &&
         sameValue(A->AlphaLeft, B->AlphaLeft) &&
         sameValue(A->AlphaRight, B->AlphaRight);
}

} // namespace

bool cert::structurallyEqual(const Certificate &A, const Certificate &B) {
  if (A.ProgramName != B.ProgramName || A.ProgramDigest != B.ProgramDigest ||
      A.Verified != B.Verified || A.Specs.size() != B.Specs.size() ||
      A.Procs.size() != B.Procs.size())
    return false;
  for (size_t I = 0; I < A.Specs.size(); ++I) {
    const CertSpecUnit &SA = A.Specs[I], &SB = B.Specs[I];
    if (SA.Name != SB.Name || SA.Valid != SB.Valid ||
        SA.ScopeLo != SB.ScopeLo || SA.ScopeHi != SB.ScopeHi ||
        SA.ScopeBound != SB.ScopeBound || SA.StatesCap != SB.StatesCap ||
        SA.ArgsCap != SB.ArgsCap || SA.NumStates != SB.NumStates ||
        SA.NumAlphaPairs != SB.NumAlphaPairs ||
        SA.ArgCounts != SB.ArgCounts || SA.SampleCount != SB.SampleCount ||
        SA.SampleDigest != SB.SampleDigest || SA.Fam != SB.Fam ||
        SA.FamilyOp != SB.FamilyOp || SA.BoundedChecks != SB.BoundedChecks ||
        SA.RandomChecks != SB.RandomChecks || !sameCE(SA.CE, SB.CE))
      return false;
    if (SA.Absint.has_value() != SB.Absint.has_value())
      return false;
    if (SA.Absint) {
      const CertAbsSection &AA = *SA.Absint, &AB = *SB.Absint;
      if (AA.Unbounded != AB.Unbounded || AA.NumComps != AB.NumComps ||
          AA.Templates != AB.Templates ||
          AA.Obligations.size() != AB.Obligations.size())
        return false;
      for (size_t J = 0; J < AA.Obligations.size(); ++J) {
        const CertAbsOb &OA = AA.Obligations[J], &OB = AB.Obligations[J];
        if (OA.IsPre != OB.IsPre || OA.ActionA != OB.ActionA ||
            OA.ActionB != OB.ActionB || OA.Tree != OB.Tree)
          return false;
      }
    }
  }
  for (size_t I = 0; I < A.Procs.size(); ++I) {
    const CertProcUnit &PA = A.Procs[I], &PB = B.Procs[I];
    if (PA.Name != PB.Name || PA.Ok != PB.Ok ||
        PA.StructuralFail != PB.StructuralFail ||
        PA.Facts.size() != PB.Facts.size() ||
        PA.Obligations.size() != PB.Obligations.size() ||
        !samePool(PA.Pool, PB.Pool))
      return false;
    for (size_t J = 0; J < PA.Facts.size(); ++J) {
      const CertFact &FA = PA.Facts[J], &FB = PB.Facts[J];
      if (FA.K != FB.K || FA.A != FB.A || FA.B != FB.B || FA.Bias != FB.Bias)
        return false;
    }
    for (size_t J = 0; J < PA.Obligations.size(); ++J) {
      const CertObligation &OA = PA.Obligations[J], &OB = PB.Obligations[J];
      if (OA.Label != OB.Label || OA.Ok != OB.Ok ||
          OA.Queries.size() != OB.Queries.size())
        return false;
      for (size_t K = 0; K < OA.Queries.size(); ++K) {
        const CertQuery &QA = OA.Queries[K], &QB = OB.Queries[K];
        if (QA.IsEq != QB.IsEq || QA.A != QB.A || QA.B != QB.B ||
            QA.Proved != QB.Proved || QA.Ctx != QB.Ctx)
          return false;
      }
    }
  }
  return true;
}
