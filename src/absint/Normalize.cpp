//===-- absint/Normalize.cpp - Equational normalizer -----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/Normalize.h"

#include "lang/ExprEval.h"
#include "value/ValueOps.h"

#include <algorithm>
#include <functional>

using namespace commcsl;
using namespace commcsl::absint;

namespace {

bool isB(const ATerm *T, BuiltinKind B) {
  return T->K == AOp::Bi && T->B == B;
}

/// An empty collection constant of kind \p VK. (Nullary builtins such as
/// `seq_empty()` are ground, so normal forms only ever hold the constant.)
bool isEmpty(const ATerm *T, ValueKind VK) {
  return T->isConst() && T->Val->kind() == VK &&
         (VK == ValueKind::Map ? T->Val->mapEntries().size() == 0
                               : T->Val->elems().empty());
}

/// Evaluates a builtin over constant arguments through the concrete
/// operation library. Partial builtins fold only where they are defined:
/// totalizing needs the result type, which only translation knows.
std::optional<ValueRef> foldGround(BuiltinKind B,
                                   const std::vector<const ATerm *> &Kids) {
  std::vector<ValueRef> Args;
  Args.reserve(Kids.size());
  for (const ATerm *Kid : Kids) {
    if (!Kid->isConst())
      return std::nullopt;
    Args.push_back(Kid->Val);
  }
  switch (B) {
  case BuiltinKind::SeqAt:
    return vops::seqAt(Args[0], Args[1]->getInt());
  case BuiltinKind::SeqHead:
    return vops::seqHead(Args[0]);
  case BuiltinKind::SeqLast:
    return vops::seqLast(Args[0]);
  case BuiltinKind::MapGet:
    return vops::mapGet(Args[0], Args[1]);
  default:
    return applyBuiltinOp(B, Args, nullptr);
  }
}

bool structLess(const ATerm *A, const ATerm *B) {
  return ATerm::compare(A, B) < 0;
}

// Wrap-around arithmetic matching vops::add / vops::mul (int64 two's
// complement in practice).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// Splits a normal-form product into (coefficient, base).
std::pair<int64_t, const ATerm *> coeffOf(TermFactory &F, const ATerm *T) {
  if (T->K == AOp::Mul && T->Kids.size() >= 2 && T->Kids[0]->isIntConst()) {
    std::vector<const ATerm *> Rest(T->Kids.begin() + 1, T->Kids.end());
    const ATerm *Base = Rest.size() == 1 ? Rest[0] : F.app(AOp::Mul, Rest);
    return {T->Kids[0]->intVal(), Base};
  }
  return {1, T};
}

/// `C * Base` in normal form: a product base keeps its factors flat (a
/// nested `C * (x * y)` would flatten, and rebuilding the sum would nest it
/// again — a rewrite cycle).
const ATerm *scaled(TermFactory &F, int64_t C, const ATerm *Base) {
  if (Base->K != AOp::Mul)
    return F.mul2(F.intConst(C), Base);
  std::vector<const ATerm *> Kids{F.intConst(C)};
  Kids.insert(Kids.end(), Base->Kids.begin(), Base->Kids.end());
  return F.app(AOp::Mul, std::move(Kids));
}

/// Collects the set/ms-add spine of \p T: returns the core (innermost
/// non-add term) and appends the added elements to \p Elems.
const ATerm *stripAdds(const ATerm *T, BuiltinKind AddKind,
                       std::vector<const ATerm *> &Elems) {
  while (isB(T, AddKind)) {
    Elems.push_back(T->Kids[1]);
    T = T->Kids[0];
  }
  return T;
}

/// Flattens a nested binary chain of the same builtin into leaves.
void flattenBi(const ATerm *T, BuiltinKind B,
               std::vector<const ATerm *> &Out) {
  if (isB(T, B)) {
    for (const ATerm *Kid : T->Kids)
      flattenBi(Kid, B, Out);
    return;
  }
  Out.push_back(T);
}

} // namespace

void Normalizer::blockOn(const ATerm *Guard) {
  if (Guard->isConst())
    return;
  if (Ctx.boolFact(Guard))
    return;
  if (GuardSet.insert(Guard).second)
    Guards.push_back(Guard);
}

const ATerm *Normalizer::normalize(const ATerm *T) {
  const ATerm *R = norm(T);
  return Blown ? nullptr : R;
}

const ATerm *Normalizer::normalizeOrRaw(const ATerm *T) {
  Steps = 0;
  Blown = false;
  const ATerm *R = norm(T);
  return Blown ? T : R;
}

const ATerm *Normalizer::norm(const ATerm *T) {
  if (Blown)
    return T;
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;
  if (!budget() || T->Size > Limits.MaxTermSize) {
    Blown = true;
    return T;
  }

  const ATerm *Cur = T;
  if (!Cur->Kids.empty()) {
    std::vector<const ATerm *> Kids;
    Kids.reserve(Cur->Kids.size());
    bool Changed = false;
    for (const ATerm *Kid : Cur->Kids) {
      const ATerm *NK = norm(Kid);
      Changed |= NK != Kid;
      Kids.push_back(NK);
    }
    if (Blown)
      return T;
    if (Changed)
      Cur = Cur->K == AOp::Bi ? F.bi(Cur->B, std::move(Kids))
                              : F.app(Cur->K, std::move(Kids));
  }

  // Fact application first: oriented equality rewrites and boolean facts
  // strictly decrease the term, so recursing terminates.
  if (const ATerm *Rw = Ctx.rewriteOf(Cur)) {
    Cur = norm(Rw);
  } else if (auto BF = Ctx.boolFact(Cur)) {
    Cur = F.boolConst(*BF);
  } else if (const ATerm *Next = rewriteRoot(Cur)) {
    if (Next != Cur && budget())
      Cur = norm(Next);
    else if (Next != Cur)
      Blown = true;
  }

  if (!Blown) {
    Memo[T] = Cur;
    Memo.emplace(Cur, Cur);
  }
  return Cur;
}

const ATerm *Normalizer::rewriteRoot(const ATerm *T) {
  switch (T->K) {
  case AOp::Const:
  case AOp::Sym:
    return nullptr;
  case AOp::Add:
    return rewriteAdd(T);
  case AOp::Mul:
    return rewriteMul(T);
  case AOp::Div: {
    const ATerm *A = T->Kids[0], *B = T->Kids[1];
    if (A->isIntConst() && B->isIntConst()) {
      if (B->intVal() == 0)
        return F.intConst(0); // vops::divT: division by zero yields 0
      if (A->intVal() == INT64_MIN && B->intVal() == -1)
        return F.intConst(INT64_MIN);
      return F.intConst(A->intVal() / B->intVal());
    }
    if (B->isInt(1))
      return A;
    if (A->isInt(0) && Ctx.absOf(B).Iv.contains(0) == false)
      return F.intConst(0); // only when divisor provably nonzero
    return nullptr;
  }
  case AOp::Mod: {
    const ATerm *A = T->Kids[0], *B = T->Kids[1];
    if (A->isIntConst() && B->isIntConst()) {
      if (B->intVal() == 0)
        return F.intConst(0); // vops::modT: modulo by zero yields 0
      if (A->intVal() == INT64_MIN && B->intVal() == -1)
        return F.intConst(0);
      return F.intConst(A->intVal() % B->intVal());
    }
    if (B->isInt(1) || B->isInt(-1))
      return F.intConst(0);
    return nullptr;
  }
  case AOp::Eq: {
    const ATerm *A = T->Kids[0], *B = T->Kids[1];
    Tri D = Ctx.decideEq(A, B);
    if (D != Tri::Unknown)
      return F.boolConst(D == Tri::True);
    // Pair congruence: split into a conjunction so one component can fold
    // and the other become the split target.
    if (isB(A, BuiltinKind::PairMk) && isB(B, BuiltinKind::PairMk))
      return F.app(AOp::And, {F.eq(A->Kids[0], B->Kids[0]),
                              F.eq(A->Kids[1], B->Kids[1])});
    return nullptr;
  }
  case AOp::Lt:
    // One comparison atom per pair of operands: `a < b` and its negation
    // `b <= a` then share the `<=` node, so deciding one decides the other
    // (both in a FactCtx and in the verifier's congruence closure).
    return F.notT(F.app(AOp::Le, {T->Kids[1], T->Kids[0]}));
  case AOp::Le: {
    Tri D = Ctx.decideCmp(T->Kids[0], T->Kids[1], /*Strict=*/false);
    if (D != Tri::Unknown)
      return F.boolConst(D == Tri::True);
    return nullptr;
  }
  case AOp::Not: {
    // No De Morgan and no comparison flipping: `!c` keeps `c` as a subterm,
    // so assuming `!c` decides `c` itself.
    const ATerm *A = T->Kids[0];
    if (A->isConst())
      return F.boolConst(!A->Val->getBool());
    if (A->K == AOp::Not)
      return A->Kids[0];
    return nullptr;
  }
  case AOp::And:
  case AOp::Or:
    return rewriteBool(T);
  case AOp::Ite: {
    const ATerm *C = T->Kids[0], *Th = T->Kids[1], *El = T->Kids[2];
    if (C->isConst())
      return C->Val->getBool() ? Th : El;
    if (Th == El)
      return Th;
    if (C->K == AOp::Not)
      return F.ite(C->Kids[0], El, Th);
    blockOn(C);
    return nullptr;
  }
  case AOp::Bi:
    if (T->B != BuiltinKind::Ite)
      if (std::optional<ValueRef> V = foldGround(T->B, T->Kids))
        return F.constant(std::move(*V));
    return rewriteBuiltin(T);
  }
  return nullptr;
}

const ATerm *Normalizer::rewriteAdd(const ATerm *T) {
  // The coefficient list: (atom, coefficient) pairs, merged by atom. Kids
  // are normal, so nesting is at most one level deep.
  int64_t CAcc = 0;
  std::vector<std::pair<const ATerm *, int64_t>> Coeffs;
  auto Collect = [&](const ATerm *P) {
    if (P->isIntConst()) {
      CAcc = wrapAdd(CAcc, P->intVal());
      return;
    }
    auto [C, Base] = coeffOf(F, P);
    Coeffs.emplace_back(Base, C);
  };
  for (const ATerm *Kid : T->Kids) {
    if (Kid->K != AOp::Add) {
      Collect(Kid);
      continue;
    }
    for (const ATerm *P : Kid->Kids)
      Collect(P);
  }
  auto ByAtom = [](const auto &A, const auto &B) {
    return structLess(A.first, B.first);
  };
  // Usually already sorted: a normal sum plus one more term.
  if (!std::is_sorted(Coeffs.begin(), Coeffs.end(), ByAtom))
    std::stable_sort(Coeffs.begin(), Coeffs.end(), ByAtom);
  std::vector<const ATerm *> Out;
  if (CAcc != 0)
    Out.push_back(F.intConst(CAcc));
  for (size_t I = 0; I < Coeffs.size();) {
    const ATerm *Base = Coeffs[I].first;
    int64_t C = 0;
    for (; I < Coeffs.size() && Coeffs[I].first == Base; ++I)
      C = wrapAdd(C, Coeffs[I].second);
    if (C != 0)
      Out.push_back(C == 1 ? Base : scaled(F, C, Base));
  }
  const ATerm *R = Out.empty()  ? F.intConst(0)
                   : Out.size() == 1 ? Out[0]
                                     : F.app(AOp::Add, std::move(Out));
  return R == T ? nullptr : R;
}

const ATerm *Normalizer::rewriteMul(const ATerm *T) {
  int64_t CAcc = 1;
  std::vector<const ATerm *> Factors;
  for (const ATerm *Kid : T->Kids) {
    std::vector<const ATerm *> Flat;
    if (Kid->K == AOp::Mul)
      Flat.assign(Kid->Kids.begin(), Kid->Kids.end());
    else
      Flat.push_back(Kid);
    for (const ATerm *P : Flat) {
      if (P->isIntConst())
        CAcc = wrapMul(CAcc, P->intVal());
      else
        Factors.push_back(P);
    }
  }
  if (CAcc == 0)
    return F.intConst(0);
  std::sort(Factors.begin(), Factors.end(), structLess);
  std::vector<const ATerm *> Out;
  if (CAcc != 1 || Factors.empty())
    Out.push_back(F.intConst(CAcc));
  Out.insert(Out.end(), Factors.begin(), Factors.end());
  const ATerm *R = Out.size() == 1 ? Out[0] : F.app(AOp::Mul, std::move(Out));
  return R == T ? nullptr : R;
}

const ATerm *Normalizer::rewriteBool(const ATerm *T) {
  const bool IsAnd = T->K == AOp::And;
  std::vector<const ATerm *> Kids;
  for (const ATerm *Kid : T->Kids) {
    std::vector<const ATerm *> Flat;
    if (Kid->K == T->K)
      Flat.assign(Kid->Kids.begin(), Kid->Kids.end());
    else
      Flat.push_back(Kid);
    for (const ATerm *P : Flat) {
      if (P->isConst()) {
        if (P->Val->getBool() != IsAnd)
          return F.boolConst(!IsAnd); // absorbing element
        continue;                     // identity element
      }
      Kids.push_back(P);
    }
  }
  std::sort(Kids.begin(), Kids.end(), structLess);
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());
  for (const ATerm *Kid : Kids)
    if (Kid->K == AOp::Not &&
        std::binary_search(Kids.begin(), Kids.end(), Kid->Kids[0],
                           structLess))
      return F.boolConst(!IsAnd); // x and !x together
  const ATerm *R = Kids.empty()  ? F.boolConst(IsAnd)
                   : Kids.size() == 1 ? Kids[0]
                                      : F.app(T->K, std::move(Kids));
  return R == T ? nullptr : R;
}

const ATerm *Normalizer::rewriteMinMax(const ATerm *T, bool IsMin) {
  std::vector<const ATerm *> Leaves;
  flattenBi(T, T->B, Leaves);
  bool HaveConst = false;
  int64_t CAcc = 0;
  std::vector<const ATerm *> Rest;
  for (const ATerm *L : Leaves) {
    if (L->isIntConst()) {
      CAcc = HaveConst ? (IsMin ? std::min(CAcc, L->intVal())
                                : std::max(CAcc, L->intVal()))
                       : L->intVal();
      HaveConst = true;
    } else {
      Rest.push_back(L);
    }
  }
  std::sort(Rest.begin(), Rest.end(), structLess);
  Rest.erase(std::unique(Rest.begin(), Rest.end()), Rest.end());
  // Prune leaves dominated under the branch facts, and fold the constant
  // into a dominated/dominating leaf when the comparison is decided.
  std::vector<const ATerm *> Kept;
  for (size_t I = 0; I < Rest.size(); ++I) {
    bool Dominated = false;
    for (size_t J = 0; J < Rest.size() && !Dominated; ++J) {
      if (I == J)
        continue;
      Tri IJ = Ctx.decideCmp(Rest[I], Rest[J], false); // Rest[I] <= Rest[J]
      Tri JI = Ctx.decideCmp(Rest[J], Rest[I], false);
      // For max, Rest[I] is redundant when Rest[I] <= Rest[J]; for min,
      // when Rest[J] <= Rest[I]. Decided-equal pairs keep the lower index.
      Tri Dom = IsMin ? JI : IJ;
      bool Tie = IJ == Tri::True && JI == Tri::True;
      if (Dom == Tri::True && (!Tie || I > J))
        Dominated = true;
    }
    if (!Dominated)
      Kept.push_back(Rest[I]);
  }
  if (HaveConst) {
    bool ConstNeeded = Kept.empty();
    const ATerm *CT = F.intConst(CAcc);
    std::vector<const ATerm *> Kept2;
    for (const ATerm *K : Kept) {
      Tri KLeC = Ctx.decideCmp(K, CT, false);
      Tri CLeK = Ctx.decideCmp(CT, K, false);
      Tri Drop = IsMin ? CLeK : KLeC;   // leaf dominated by the constant
      Tri DropC = IsMin ? KLeC : CLeK;  // constant dominated by the leaf
      if (Drop == Tri::True)
        continue;
      Kept2.push_back(K);
      if (DropC != Tri::True)
        ConstNeeded = true;
    }
    Kept = std::move(Kept2);
    if (ConstNeeded || Kept.empty())
      Kept.insert(Kept.begin(), CT);
  }
  const ATerm *R;
  if (Kept.size() == 1) {
    R = Kept[0];
  } else {
    std::sort(Kept.begin(), Kept.end(), structLess);
    R = Kept[0];
    for (size_t I = 1; I < Kept.size(); ++I)
      R = F.bi(T->B, {R, Kept[I]});
  }
  return R == T ? nullptr : R;
}

const ATerm *Normalizer::rewriteBuiltin(const ATerm *T) {
  const auto &K = T->Kids;
  switch (T->B) {
  case BuiltinKind::Fst:
    if (isB(K[0], BuiltinKind::PairMk))
      return K[0]->Kids[0];
    return nullptr;
  case BuiltinKind::Snd:
    if (isB(K[0], BuiltinKind::PairMk))
      return K[0]->Kids[1];
    return nullptr;
  case BuiltinKind::PairMk:
    // Surjective pairing: pair(fst t, snd t) == t.
    if (isB(K[0], BuiltinKind::Fst) && isB(K[1], BuiltinKind::Snd) &&
        K[0]->Kids[0] == K[1]->Kids[0])
      return K[0]->Kids[0];
    return nullptr;

  case BuiltinKind::SeqConcat:
    if (isEmpty(K[0], ValueKind::Seq))
      return K[1];
    if (isEmpty(K[1], ValueKind::Seq))
      return K[0];
    if (isB(K[0], BuiltinKind::SeqConcat)) // right-associate
      return F.bi(BuiltinKind::SeqConcat,
                  {K[0]->Kids[0],
                   F.bi(BuiltinKind::SeqConcat, {K[0]->Kids[1], K[1]})});
    // concat(s, append(t, x)) == append(concat(s, t), x)
    if (isB(K[1], BuiltinKind::SeqAppend))
      return F.bi(BuiltinKind::SeqAppend,
                  {F.bi(BuiltinKind::SeqConcat, {K[0], K[1]->Kids[0]}),
                   K[1]->Kids[1]});
    return nullptr;

  case BuiltinKind::SeqLen:
    if (isB(K[0], BuiltinKind::SeqAppend))
      return F.add2(F.bi(BuiltinKind::SeqLen, {K[0]->Kids[0]}),
                    F.intConst(1));
    if (isB(K[0], BuiltinKind::SeqConcat))
      return F.add2(F.bi(BuiltinKind::SeqLen, {K[0]->Kids[0]}),
                    F.bi(BuiltinKind::SeqLen, {K[0]->Kids[1]}));
    if (isB(K[0], BuiltinKind::MsToSeq))
      return F.bi(BuiltinKind::MsCard, {K[0]->Kids[0]});
    if (isB(K[0], BuiltinKind::SetToSeq))
      return F.bi(BuiltinKind::SetSize, {K[0]->Kids[0]});
    return nullptr;

  case BuiltinKind::SeqSum:
  case BuiltinKind::SeqMean:
    // The concrete fold SATURATES at the int64 boundary, which makes it
    // order-sensitive there — no append/concat homomorphism is sound.
    // Only ground sequences fold (above). `mean` also must not expand to
    // `sum / len`: it floors where `/` truncates.
    return nullptr;

  case BuiltinKind::SeqSort:
    // A sorted sequence is a function of its element multiset alone, and a
    // multiset lists its elements in sorted order: sort(s) is
    // mset_to_seq(seq_to_mset(s)), so differently-built sequences with
    // equal multisets compare equal (the Email-Metadata reasoning step).
    return F.bi(BuiltinKind::MsToSeq, {F.bi(BuiltinKind::SeqToMs, {K[0]})});

  case BuiltinKind::SeqToMs:
    if (isB(K[0], BuiltinKind::SeqAppend))
      return F.bi(BuiltinKind::MsAdd,
                  {F.bi(BuiltinKind::SeqToMs, {K[0]->Kids[0]}),
                   K[0]->Kids[1]});
    if (isB(K[0], BuiltinKind::SeqConcat))
      return F.bi(BuiltinKind::MsUnion,
                  {F.bi(BuiltinKind::SeqToMs, {K[0]->Kids[0]}),
                   F.bi(BuiltinKind::SeqToMs, {K[0]->Kids[1]})});
    if (isB(K[0], BuiltinKind::MsToSeq))
      return K[0]->Kids[0];
    return nullptr;

  case BuiltinKind::SeqToSet:
    if (isB(K[0], BuiltinKind::SeqAppend))
      return F.bi(BuiltinKind::SetAdd,
                  {F.bi(BuiltinKind::SeqToSet, {K[0]->Kids[0]}),
                   K[0]->Kids[1]});
    if (isB(K[0], BuiltinKind::SeqConcat))
      return F.bi(BuiltinKind::SetUnion,
                  {F.bi(BuiltinKind::SeqToSet, {K[0]->Kids[0]}),
                   F.bi(BuiltinKind::SeqToSet, {K[0]->Kids[1]})});
    if (isB(K[0], BuiltinKind::SetToSeq))
      return K[0]->Kids[0];
    return nullptr;

  case BuiltinKind::SeqContains:
    // Membership only depends on the element set; reuse its rules.
    return F.bi(BuiltinKind::SetMember,
                {F.bi(BuiltinKind::SeqToSet, {K[0]}), K[1]});

  case BuiltinKind::SetAdd:
  case BuiltinKind::MsAdd: {
    std::vector<const ATerm *> Elems;
    const ATerm *Core = stripAdds(T, T->B, Elems);
    std::reverse(Elems.begin(), Elems.end()); // restore inner-first order
    std::sort(Elems.begin(), Elems.end(), structLess);
    if (T->B == BuiltinKind::SetAdd) // set_add is idempotent
      Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
    const ATerm *R = Core;
    for (const ATerm *E : Elems)
      R = F.bi(T->B, {R, E});
    return R == T ? nullptr : R;
  }

  case BuiltinKind::SetUnion:
  case BuiltinKind::MsUnion: {
    const bool IsSet = T->B == BuiltinKind::SetUnion;
    const BuiltinKind AddK = IsSet ? BuiltinKind::SetAdd : BuiltinKind::MsAdd;
    std::vector<const ATerm *> Parts;
    flattenBi(T, T->B, Parts);
    std::vector<const ATerm *> Elems, Cores;
    ValueRef ConstCore = IsSet ? ValueFactory::emptySet()
                               : ValueFactory::emptyMultiset();
    for (const ATerm *P : Parts) {
      const ATerm *Core = stripAdds(P, AddK, Elems);
      if (!Core->isConst())
        Cores.push_back(Core);
      else // constant cores fold into one
        ConstCore = IsSet ? vops::setUnion(ConstCore, Core->Val)
                          : vops::msUnion(ConstCore, Core->Val);
    }
    if (!ConstCore->elems().empty())
      Cores.push_back(F.constant(ConstCore));
    std::sort(Cores.begin(), Cores.end(), structLess);
    if (IsSet) // set_union is idempotent; ms_union keeps duplicates
      Cores.erase(std::unique(Cores.begin(), Cores.end()), Cores.end());
    std::sort(Elems.begin(), Elems.end(), structLess);
    if (IsSet)
      Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
    const ATerm *R;
    if (Cores.empty()) {
      R = F.constant(ConstCore);
    } else {
      R = Cores[0];
      for (size_t I = 1; I < Cores.size(); ++I)
        R = F.bi(T->B, {R, Cores[I]});
    }
    for (const ATerm *E : Elems)
      R = F.bi(AddK, {R, E});
    return R == T ? nullptr : R;
  }

  case BuiltinKind::SetInter: {
    if (isEmpty(K[0], ValueKind::Set) || isEmpty(K[1], ValueKind::Set))
      return F.constant(ValueFactory::emptySet());
    if (K[0] == K[1])
      return K[0];
    if (ATerm::compare(K[0], K[1]) > 0) // commutative: canonical order
      return F.bi(BuiltinKind::SetInter, {K[1], K[0]});
    return nullptr;
  }
  case BuiltinKind::SetDiff:
    if (isEmpty(K[0], ValueKind::Set))
      return K[0];
    if (isEmpty(K[1], ValueKind::Set))
      return K[0];
    if (K[0] == K[1])
      return F.constant(ValueFactory::emptySet());
    return nullptr;
  case BuiltinKind::MsDiff:
    if (isEmpty(K[0], ValueKind::Multiset))
      return K[0];
    if (isEmpty(K[1], ValueKind::Multiset))
      return K[0];
    if (K[0] == K[1])
      return F.constant(ValueFactory::emptyMultiset());
    return nullptr;

  case BuiltinKind::SetMember: {
    const ATerm *S = K[0], *Y = K[1];
    if (isEmpty(S, ValueKind::Set))
      return F.boolConst(false);
    if (isB(S, BuiltinKind::SetAdd)) {
      Tri D = Ctx.decideEq(S->Kids[1], Y);
      if (D == Tri::True)
        return F.boolConst(true);
      if (D == Tri::False)
        return F.bi(BuiltinKind::SetMember, {S->Kids[0], Y});
      blockOn(F.eq(S->Kids[1], Y));
      return nullptr;
    }
    if (isB(S, BuiltinKind::SetUnion))
      return F.app(AOp::Or,
                   {F.bi(BuiltinKind::SetMember, {S->Kids[0], Y}),
                    F.bi(BuiltinKind::SetMember, {S->Kids[1], Y})});
    if (isB(S, BuiltinKind::MapDom))
      return F.bi(BuiltinKind::MapHas, {S->Kids[0], Y});
    return nullptr;
  }

  case BuiltinKind::SetSize:
    if (isB(K[0], BuiltinKind::SetAdd)) {
      const ATerm *B = K[0]->Kids[0], *X = K[0]->Kids[1];
      return F.ite(F.bi(BuiltinKind::SetMember, {B, X}),
                   F.bi(BuiltinKind::SetSize, {B}),
                   F.add2(F.bi(BuiltinKind::SetSize, {B}), F.intConst(1)));
    }
    return nullptr;

  case BuiltinKind::MsCard:
    if (isB(K[0], BuiltinKind::MsAdd))
      return F.add2(F.bi(BuiltinKind::MsCard, {K[0]->Kids[0]}),
                    F.intConst(1));
    if (isB(K[0], BuiltinKind::MsUnion))
      return F.add2(F.bi(BuiltinKind::MsCard, {K[0]->Kids[0]}),
                    F.bi(BuiltinKind::MsCard, {K[0]->Kids[1]}));
    if (isB(K[0], BuiltinKind::SeqToMs))
      return F.bi(BuiltinKind::SeqLen, {K[0]->Kids[0]});
    if (isB(K[0], BuiltinKind::MapValues))
      return F.bi(BuiltinKind::MapSize, {K[0]->Kids[0]});
    return nullptr;

  case BuiltinKind::MsCount: {
    const ATerm *M = K[0], *Y = K[1];
    if (isEmpty(M, ValueKind::Multiset))
      return F.intConst(0);
    if (isB(M, BuiltinKind::MsAdd)) {
      Tri D = Ctx.decideEq(M->Kids[1], Y);
      if (D == Tri::True)
        return F.add2(F.bi(BuiltinKind::MsCount, {M->Kids[0], Y}),
                      F.intConst(1));
      if (D == Tri::False)
        return F.bi(BuiltinKind::MsCount, {M->Kids[0], Y});
      blockOn(F.eq(M->Kids[1], Y));
      return nullptr;
    }
    if (isB(M, BuiltinKind::MsUnion))
      return F.add2(F.bi(BuiltinKind::MsCount, {M->Kids[0], Y}),
                    F.bi(BuiltinKind::MsCount, {M->Kids[1], Y}));
    return nullptr;
  }

  case BuiltinKind::MapPut: {
    const ATerm *M = K[0], *Ky = K[1], *V = K[2];
    if (isB(M, BuiltinKind::MapPut)) {
      const ATerm *M2 = M->Kids[0], *K2 = M->Kids[1], *V2 = M->Kids[2];
      Tri D = Ctx.decideEq(Ky, K2);
      if (D == Tri::True) // outer put shadows the inner one
        return F.bi(BuiltinKind::MapPut, {M2, Ky, V});
      if (D == Tri::False) {
        // Distinct keys commute; keep the chain key-sorted inner-first.
        if (ATerm::compare(Ky, K2) < 0)
          return F.bi(BuiltinKind::MapPut,
                      {F.bi(BuiltinKind::MapPut, {M2, Ky, V}), K2, V2});
        return nullptr;
      }
      blockOn(F.eq(Ky, K2));
    }
    return nullptr;
  }

  case BuiltinKind::MapGet: {
    const ATerm *M = K[0], *Ky = K[1];
    if (isB(M, BuiltinKind::MapPut)) {
      Tri D = Ctx.decideEq(M->Kids[1], Ky);
      if (D == Tri::True)
        return M->Kids[2];
      if (D == Tri::False)
        return F.bi(BuiltinKind::MapGet, {M->Kids[0], Ky});
      blockOn(F.eq(M->Kids[1], Ky));
    }
    return nullptr;
  }

  case BuiltinKind::MapGetOr: {
    const ATerm *M = K[0], *Ky = K[1], *D = K[2];
    if (isEmpty(M, ValueKind::Map))
      return D;
    if (isB(M, BuiltinKind::MapPut)) {
      Tri E = Ctx.decideEq(M->Kids[1], Ky);
      if (E == Tri::True)
        return M->Kids[2];
      if (E == Tri::False)
        return F.bi(BuiltinKind::MapGetOr, {M->Kids[0], Ky, D});
      blockOn(F.eq(M->Kids[1], Ky));
      return nullptr;
    }
    // Stuck on an opaque map: a presence fact still decides it.
    const ATerm *Has = F.bi(BuiltinKind::MapHas, {M, Ky});
    if (auto HF = Ctx.boolFact(Has))
      return *HF ? F.bi(BuiltinKind::MapGet, {M, Ky}) : D;
    blockOn(Has);
    return nullptr;
  }

  case BuiltinKind::MapHas: {
    const ATerm *M = K[0], *Ky = K[1];
    if (isEmpty(M, ValueKind::Map))
      return F.boolConst(false);
    if (isB(M, BuiltinKind::MapPut)) {
      Tri D = Ctx.decideEq(M->Kids[1], Ky);
      if (D == Tri::True)
        return F.boolConst(true);
      if (D == Tri::False)
        return F.bi(BuiltinKind::MapHas, {M->Kids[0], Ky});
      blockOn(F.eq(M->Kids[1], Ky));
    }
    return nullptr;
  }

  case BuiltinKind::MapRemove: {
    const ATerm *M = K[0], *Ky = K[1];
    if (isEmpty(M, ValueKind::Map))
      return M;
    if (isB(M, BuiltinKind::MapPut)) {
      Tri D = Ctx.decideEq(M->Kids[1], Ky);
      if (D == Tri::True)
        return F.bi(BuiltinKind::MapRemove, {M->Kids[0], Ky});
      if (D == Tri::False)
        return F.bi(BuiltinKind::MapPut,
                    {F.bi(BuiltinKind::MapRemove, {M->Kids[0], Ky}),
                     M->Kids[1], M->Kids[2]});
      blockOn(F.eq(M->Kids[1], Ky));
    }
    return nullptr;
  }

  case BuiltinKind::MapDom:
    if (isB(K[0], BuiltinKind::MapPut))
      return F.bi(BuiltinKind::SetAdd,
                  {F.bi(BuiltinKind::MapDom, {K[0]->Kids[0]}),
                   K[0]->Kids[1]});
    if (isB(K[0], BuiltinKind::MapRemove))
      return F.bi(BuiltinKind::SetDiff,
                  {F.bi(BuiltinKind::MapDom, {K[0]->Kids[0]}),
                   F.bi(BuiltinKind::SetAdd,
                        {F.constant(ValueFactory::emptySet()), K[0]->Kids[1]})});
    return nullptr;

  case BuiltinKind::MapSize:
    if (isB(K[0], BuiltinKind::MapPut)) {
      const ATerm *M = K[0]->Kids[0], *Ky = K[0]->Kids[1];
      return F.ite(F.bi(BuiltinKind::MapHas, {M, Ky}),
                   F.bi(BuiltinKind::MapSize, {M}),
                   F.add2(F.bi(BuiltinKind::MapSize, {M}), F.intConst(1)));
    }
    return nullptr;

  case BuiltinKind::Ite:
    // Surface-level ite builtin; reuse the AOp::Ite rules.
    return F.ite(K[0], K[1], K[2]);

  case BuiltinKind::Declassify:
    // A single run's value of `declassify e` is exactly `e`; the release it
    // grants is relational and handled by the verifier's product state.
    return K[0];

  case BuiltinKind::Min:
    return rewriteMinMax(T, /*IsMin=*/true);
  case BuiltinKind::Max:
    return rewriteMinMax(T, /*IsMin=*/false);

  case BuiltinKind::Abs: {
    const ATerm *A = K[0];
    if (isB(A, BuiltinKind::Abs))
      return A;
    AbsVal AV = Ctx.absOf(A);
    if (!AV.Iv.LoInf && AV.Iv.Lo >= 0)
      return A;
    if (!AV.Iv.HiInf && AV.Iv.Hi <= 0)
      return F.mul2(F.intConst(-1), A);
    return nullptr;
  }

  default:
    return nullptr;
  }
}
