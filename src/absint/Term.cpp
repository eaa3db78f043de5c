//===-- absint/Term.cpp - Hash-consed symbolic terms -----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/Term.h"

#include <algorithm>
#include <sstream>

using namespace commcsl;
using namespace commcsl::absint;

int ATerm::compare(const ATerm *A, const ATerm *B) {
  if (A == B)
    return 0;
  if (A->K != B->K)
    return static_cast<int>(A->K) < static_cast<int>(B->K) ? -1 : 1;
  switch (A->K) {
  case AOp::Const:
    return Value::compare(A->Val, B->Val);
  case AOp::Sym:
    // Named symbols first (by name), then fresh ones (by creation number).
    if (A->Fresh != B->Fresh)
      return A->Fresh ? 1 : -1;
    if (A->Fresh)
      return A->SymId < B->SymId ? -1 : (A->SymId > B->SymId ? 1 : 0);
    return A->Str.compare(B->Str);
  case AOp::Bi:
    if (A->B != B->B)
      return static_cast<int>(A->B) < static_cast<int>(B->B) ? -1 : 1;
    break;
  default:
    break;
  }
  if (A->Kids.size() != B->Kids.size())
    return A->Kids.size() < B->Kids.size() ? -1 : 1;
  for (size_t I = 0; I < A->Kids.size(); ++I)
    if (int C = compare(A->Kids[I], B->Kids[I]))
      return C;
  return 0;
}

std::string ATerm::str() const {
  switch (K) {
  case AOp::Const:
    return Val->str();
  case AOp::Sym:
    return Fresh ? Str + "#" + std::to_string(SymId) : Str;
  default:
    break;
  }
  const char *Head = nullptr;
  switch (K) {
  case AOp::Add:
    Head = "+";
    break;
  case AOp::Mul:
    Head = "*";
    break;
  case AOp::Div:
    Head = "/";
    break;
  case AOp::Mod:
    Head = "%";
    break;
  case AOp::Eq:
    Head = "==";
    break;
  case AOp::Lt:
    Head = "<";
    break;
  case AOp::Le:
    Head = "<=";
    break;
  case AOp::Not:
    Head = "!";
    break;
  case AOp::And:
    Head = "&&";
    break;
  case AOp::Or:
    Head = "||";
    break;
  case AOp::Ite:
    Head = "ite";
    break;
  case AOp::Bi:
    Head = builtinName(B);
    break;
  default:
    Head = "?";
    break;
  }
  std::ostringstream OS;
  OS << "(" << Head;
  for (const ATerm *Kid : Kids)
    OS << " " << Kid->str();
  OS << ")";
  return OS.str();
}

bool TermFactory::Key::operator==(const Key &O) const {
  return K == O.K && B == O.B && Fresh == O.Fresh && SymId == O.SymId &&
         Str == O.Str && Kids == O.Kids &&
         (Val == O.Val || (Val && O.Val && Value::equal(Val, O.Val)));
}

size_t TermFactory::KeyHash::operator()(const Key &K) const {
  uint64_t H = 0x9E3779B97F4A7C15ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
  };
  Mix(static_cast<uint64_t>(K.K));
  Mix(static_cast<uint64_t>(K.B));
  Mix(K.Val ? K.Val->hash() : 0);
  Mix(std::hash<std::string>()(K.Str));
  Mix(K.Fresh ? K.SymId + 1 : 0);
  for (const ATerm *Kid : K.Kids)
    Mix(Kid->Hash);
  return static_cast<size_t>(H);
}

const ATerm *TermFactory::intern(Key K) {
  auto It = Terms.find(K);
  if (It != Terms.end())
    return It->second.get();
  auto T = std::make_unique<ATerm>();
  T->K = K.K;
  T->B = K.B;
  T->Val = K.Val;
  T->Str = K.Str;
  T->Fresh = K.Fresh;
  T->SymId = K.SymId;
  T->Kids = K.Kids;
  T->Hash = KeyHash()(K);
  T->Id = static_cast<uint32_t>(Terms.size());
  uint64_t Size = 1;
  for (const ATerm *Kid : T->Kids)
    Size += Kid->Size;
  T->Size = static_cast<uint32_t>(std::min<uint64_t>(Size, UINT32_MAX));
  const ATerm *Out = T.get();
  Terms.emplace(std::move(K), std::move(T));
  return Out;
}

const ATerm *TermFactory::constant(ValueRef V) {
  return intern({AOp::Const, BuiltinKind::PairMk, std::move(V), {}, false, 0,
                 {}});
}

const ATerm *TermFactory::intConst(int64_t V) {
  return constant(ValueFactory::intV(V));
}

const ATerm *TermFactory::boolConst(bool V) {
  return constant(ValueFactory::boolV(V));
}

const ATerm *TermFactory::strConst(const std::string &S) {
  return constant(ValueFactory::stringV(S));
}

const ATerm *TermFactory::unitConst() { return constant(ValueFactory::unit()); }

const ATerm *TermFactory::sym(const std::string &Name) {
  return intern({AOp::Sym, BuiltinKind::PairMk, nullptr, Name, false, 0, {}});
}

const ATerm *TermFactory::freshSym(const std::string &Name) {
  return intern({AOp::Sym, BuiltinKind::PairMk, nullptr, Name, true,
                 NextSymId++, {}});
}

const ATerm *TermFactory::app(AOp K, std::vector<const ATerm *> Kids) {
  return intern({K, BuiltinKind::PairMk, nullptr, {}, false, 0,
                 std::move(Kids)});
}

const ATerm *TermFactory::bi(BuiltinKind B, std::vector<const ATerm *> Kids) {
  return intern({AOp::Bi, B, nullptr, {}, false, 0, std::move(Kids)});
}

const ATerm *TermFactory::add2(const ATerm *A, const ATerm *B) {
  return app(AOp::Add, {A, B});
}

const ATerm *TermFactory::mul2(const ATerm *A, const ATerm *B) {
  return app(AOp::Mul, {A, B});
}

const ATerm *TermFactory::notT(const ATerm *A) { return app(AOp::Not, {A}); }

const ATerm *TermFactory::eq(const ATerm *A, const ATerm *B) {
  if (ATerm::compare(A, B) > 0)
    std::swap(A, B);
  return app(AOp::Eq, {A, B});
}

const ATerm *TermFactory::ite(const ATerm *C, const ATerm *T,
                              const ATerm *E) {
  return app(AOp::Ite, {C, T, E});
}
