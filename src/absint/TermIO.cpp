//===-- absint/TermIO.cpp - Canonical term serialization -------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/TermIO.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace commcsl;
using namespace commcsl::absint;

namespace {

const char *opHead(AOp K) {
  switch (K) {
  case AOp::Add:
    return "+";
  case AOp::Mul:
    return "*";
  case AOp::Div:
    return "/";
  case AOp::Mod:
    return "%%"; // distinct from symbol names, which start with one '%'
  case AOp::Eq:
    return "=";
  case AOp::Lt:
    return "<";
  case AOp::Le:
    return "<=";
  case AOp::Not:
    return "!";
  case AOp::And:
    return "and";
  case AOp::Or:
    return "or";
  case AOp::Ite:
    return "if";
  default:
    return nullptr;
  }
}

void printValue(const ValueRef &V, std::string &Out) {
  const char *Head = nullptr;
  switch (V->kind()) {
  case ValueKind::Int:
    Out += std::to_string(V->getInt());
    return;
  case ValueKind::Bool:
    Out += V->getBool() ? "#t" : "#f";
    return;
  case ValueKind::Unit:
    Out += "#u";
    return;
  case ValueKind::String:
    Out += '"';
    for (char C : V->getString()) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
    return;
  case ValueKind::Pair:
    Head = "#pair";
    break;
  case ValueKind::Seq:
    Head = "#seq";
    break;
  case ValueKind::Set:
    Head = "#set";
    break;
  case ValueKind::Multiset:
    Head = "#mset";
    break;
  case ValueKind::Map:
    Out += "(#map";
    for (const auto &[Key, Val] : V->mapEntries()) {
      Out += ' ';
      printValue(Key, Out);
      Out += ' ';
      printValue(Val, Out);
    }
    Out += ')';
    return;
  }
  Out += '(';
  Out += Head;
  for (const ValueRef &E : V->elems()) {
    Out += ' ';
    printValue(E, Out);
  }
  Out += ')';
}

void printInto(const ATerm *T, std::string &Out) {
  switch (T->K) {
  case AOp::Const:
    printValue(T->Val, Out);
    return;
  case AOp::Sym:
    Out += T->Str;
    return;
  default:
    break;
  }
  Out += '(';
  Out += T->K == AOp::Bi ? builtinName(T->B) : opHead(T->K);
  for (const ATerm *Kid : T->Kids) {
    Out += ' ';
    printInto(Kid, Out);
  }
  Out += ')';
}

class Parser {
public:
  Parser(TermFactory &F, const std::string &Text) : F(F), S(Text) {}

  const ATerm *run() {
    const ATerm *T = term();
    skipWs();
    return Pos == S.size() ? T : nullptr;
  }

private:
  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool atomChar(char C) const {
    return C != '(' && C != ')' && C != '"' &&
           !std::isspace(static_cast<unsigned char>(C));
  }

  std::string atom() {
    size_t Start = Pos;
    while (Pos < S.size() && atomChar(S[Pos]))
      ++Pos;
    return S.substr(Start, Pos - Start);
  }

  const ATerm *term() {
    skipWs();
    if (Pos >= S.size())
      return nullptr;
    if (S[Pos] == '"') {
      ++Pos;
      std::string V;
      while (Pos < S.size() && S[Pos] != '"') {
        if (S[Pos] == '\\' && Pos + 1 < S.size())
          ++Pos;
        V += S[Pos++];
      }
      if (Pos >= S.size())
        return nullptr;
      ++Pos; // closing quote
      return F.strConst(V);
    }
    if (S[Pos] != '(') {
      std::string A = atom();
      if (A.empty())
        return nullptr;
      if (A == "#t")
        return F.boolConst(true);
      if (A == "#f")
        return F.boolConst(false);
      if (A == "#u")
        return F.unitConst();
      bool Neg = A[0] == '-';
      if (std::isdigit(static_cast<unsigned char>(A[Neg ? 1 : 0])) &&
          A.size() > (Neg ? 1u : 0u)) {
        // Strict integer atom: every remaining char must be a digit
        // (symbols never start with a digit or '-digit').
        bool AllDigits = true;
        for (size_t I = Neg ? 1 : 0; I < A.size(); ++I)
          AllDigits &= std::isdigit(static_cast<unsigned char>(A[I])) != 0;
        if (AllDigits) {
          errno = 0;
          long long V = std::strtoll(A.c_str(), nullptr, 10);
          return F.intConst(static_cast<int64_t>(V));
        }
      }
      return F.sym(A);
    }
    ++Pos; // '('
    skipWs();
    std::string Head = atom();
    if (Head.empty())
      return nullptr;
    std::vector<const ATerm *> Kids;
    for (;;) {
      skipWs();
      if (Pos >= S.size())
        return nullptr;
      if (S[Pos] == ')') {
        ++Pos;
        break;
      }
      const ATerm *Kid = term();
      if (!Kid)
        return nullptr;
      Kids.push_back(Kid);
    }
    return apply(Head, std::move(Kids));
  }

  const ATerm *apply(const std::string &Head,
                     std::vector<const ATerm *> Kids) {
    struct OpEntry {
      const char *Name;
      AOp K;
      unsigned MinArity, MaxArity;
    };
    static const OpEntry Ops[] = {
        {"+", AOp::Add, 2, ~0u},  {"*", AOp::Mul, 2, ~0u},
        {"/", AOp::Div, 2, 2},    {"%%", AOp::Mod, 2, 2},
        {"=", AOp::Eq, 2, 2},     {"<", AOp::Lt, 2, 2},
        {"<=", AOp::Le, 2, 2},    {"!", AOp::Not, 1, 1},
        {"and", AOp::And, 2, ~0u}, {"or", AOp::Or, 2, ~0u},
        {"if", AOp::Ite, 3, 3},
    };
    for (const OpEntry &Op : Ops)
      if (Head == Op.Name) {
        if (Kids.size() < Op.MinArity || Kids.size() > Op.MaxArity)
          return nullptr;
        // Structure-preserving: recorded terms are already canonical, and
        // faithfulness matters more than repair — a tampered certificate
        // must fail comparison, not be silently fixed up.
        return F.app(Op.K, std::move(Kids));
      }
    if (Head[0] == '#')
      return constantOf(Head, Kids);
    std::optional<BuiltinKind> BK = builtinByName(Head);
    if (!BK)
      return nullptr;
    return F.bi(*BK, std::move(Kids));
  }

  /// A collection constant `(#seq ...)`, `(#map k v ...)`, ...; every
  /// element must itself be a constant.
  const ATerm *constantOf(const std::string &Head,
                          const std::vector<const ATerm *> &Kids) {
    std::vector<ValueRef> Elems;
    for (const ATerm *Kid : Kids) {
      if (!Kid->isConst())
        return nullptr;
      Elems.push_back(Kid->Val);
    }
    if (Head == "#pair")
      return Elems.size() == 2
                 ? F.constant(ValueFactory::pair(Elems[0], Elems[1]))
                 : nullptr;
    if (Head == "#seq")
      return F.constant(ValueFactory::seq(std::move(Elems)));
    if (Head == "#set")
      return F.constant(ValueFactory::set(std::move(Elems)));
    if (Head == "#mset")
      return F.constant(ValueFactory::multiset(std::move(Elems)));
    if (Head == "#map" && Elems.size() % 2 == 0) {
      std::vector<std::pair<ValueRef, ValueRef>> Entries;
      for (size_t I = 0; I < Elems.size(); I += 2)
        Entries.emplace_back(Elems[I], Elems[I + 1]);
      return F.constant(ValueFactory::map(std::move(Entries)));
    }
    return nullptr;
  }

  TermFactory &F;
  const std::string &S;
  size_t Pos = 0;
};

} // namespace

std::string commcsl::absint::printTerm(const ATerm *T) {
  std::string Out;
  printInto(T, Out);
  return Out;
}

const ATerm *commcsl::absint::parseTerm(TermFactory &F,
                                        const std::string &Text) {
  return Parser(F, Text).run();
}
