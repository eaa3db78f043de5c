//===-- solver/Solver.cpp - Congruence closure + bounds ---------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "absint/Domain.h"

#include <cassert>
#include <functional>

using namespace commcsl;
using absint::AOp;

//===----------------------------------------------------------------------===//
// The binary operand view
//===----------------------------------------------------------------------===//

SolverArgs commcsl::solverArgs(absint::TermFactory &F, TermRef T) {
  SolverArgs Out;
  const auto &K = T->Kids;
  bool Arith = T->K == AOp::Add || T->K == AOp::Mul;
  bool AC = Arith || T->K == AOp::And || T->K == AOp::Or;
  bool ConstFirst = Arith && !K.empty() && K[0]->isConst();
  if (!AC || K.size() < 2 || (K.size() == 2 && !ConstFirst)) {
    assert(K.size() <= 3 && "operator wider than any builtin");
    for (TermRef Kid : K)
      Out.Arg[Out.N++] = Kid;
    return Out;
  }
  Out.N = 2;
  if (ConstFirst) {
    // (c + x1 + ... + xn) is ((x1 + ... + xn) + c).
    Out.Arg[0] = K.size() == 2
                     ? K[1]
                     : F.app(T->K, std::vector<TermRef>(K.begin() + 1,
                                                        K.end()));
    Out.Arg[1] = K[0];
    return Out;
  }
  Out.Arg[0] = F.app(T->K, std::vector<TermRef>(K.begin(), K.end() - 1));
  Out.Arg[1] = K.back();
  return Out;
}

//===----------------------------------------------------------------------===//
// Union-find + congruence
//===----------------------------------------------------------------------===//

Solver::Solver(absint::TermFactory &F)
    : F(&F), True(F.boolConst(true)), False(F.boolConst(false)),
      Zero(F.intConst(0)) {}

void Solver::reserveIds(uint32_t Id) {
  if (Id < Parent.size())
    return;
  size_t Old = Parent.size();
  size_t New = std::max<size_t>(F->size(), Id + 1);
  Parent.resize(New);
  for (size_t I = Old; I < New; ++I)
    Parent[I] = static_cast<uint32_t>(I);
  Registered.resize(New, 0);
  Uses.resize(New);
  ClassConst.resize(New, nullptr);
}

uint32_t Solver::find(uint32_t Id) {
  if (Id >= Parent.size() || Parent[Id] == Id)
    return Id;
  uint32_t Root = find(Parent[Id]);
  Parent[Id] = Root; // path compression
  return Root;
}

size_t Solver::SignatureHash::operator()(const Signature &S) const {
  uint64_t H = 0x9E3779B97F4A7C15ULL;
  for (uint64_t V : S)
    H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
  return static_cast<size_t>(H);
}

namespace {
bool isBi(TermRef T, BuiltinKind B) { return T->K == AOp::Bi && T->B == B; }

/// Operators whose two operands are interchangeable. Their signatures sort
/// the argument representatives, so congruence is insensitive to the
/// operand order the normalizer happened to pick on each execution side.
bool isCommutativeNode(TermRef T) {
  switch (T->K) {
  case AOp::Add:
  case AOp::Mul:
  case AOp::And:
  case AOp::Or:
  case AOp::Eq:
    return true;
  case AOp::Bi:
    return T->B == BuiltinKind::MsUnion || T->B == BuiltinKind::SetUnion ||
           T->B == BuiltinKind::SetInter || T->B == BuiltinKind::Min ||
           T->B == BuiltinKind::Max;
  default:
    return false;
  }
}

bool isInjectiveCtor(TermRef T) {
  return isBi(T, BuiltinKind::SeqAppend) || isBi(T, BuiltinKind::PairMk);
}

bool isNonNegative(TermRef T) {
  return isBi(T, BuiltinKind::Abs) || isBi(T, BuiltinKind::SeqLen) ||
         isBi(T, BuiltinKind::SetSize) || isBi(T, BuiltinKind::MsCard) ||
         isBi(T, BuiltinKind::MapSize) || isBi(T, BuiltinKind::MsCount);
}
} // namespace

Solver::Signature Solver::signatureOf(TermRef T) {
  SolverArgs Args = solverArgs(*F, T);
  // Unused argument slots hold a value no representative id takes.
  Signature Sig;
  Sig.fill(UINT64_MAX);
  Sig[0] = static_cast<uint64_t>(T->K) << 32;
  if (T->K == AOp::Bi)
    Sig[0] |= static_cast<uint64_t>(T->B) << 16;
  for (unsigned I = 0; I < Args.N; ++I)
    Sig[I + 1] = find(Args[I]->Id);
  if (isCommutativeNode(T) && Args.N == 2 && Sig[1] > Sig[2])
    std::swap(Sig[1], Sig[2]);
  return Sig;
}

void Solver::registerTerm(TermRef T) {
  reserveIds(T->Id);
  if (Registered[T->Id])
    return;
  Registered[T->Id] = 1;
  if (T->isConst())
    ClassConst[T->Id] = T;
  if (isInjectiveCtor(T))
    CtorMembers[T->Id].push_back(T);
  // Built-in non-negativity axioms: 0 <= |.|, lengths, sizes, counts.
  if (isNonNegative(T))
    LeFacts.push_back({Zero, T, 0});
  SolverArgs Args = solverArgs(*F, T);
  for (TermRef A : Args) {
    registerTerm(A);
    Uses[find(A->Id)].push_back(T);
  }
  if (Args.N) {
    Signature Sig = signatureOf(T);
    auto It = Sigs.find(Sig);
    if (It == Sigs.end())
      Sigs.emplace(Sig, T);
    else if (find(It->second->Id) != find(T->Id))
      merge(T, It->second); // congruent siblings
  }
  // Ite whose condition is already decided collapses to a branch.
  if (T->K == AOp::Ite) {
    TermRef C = ClassConst[find(T->Kids[0]->Id)];
    if (C && C->Val->isBool())
      merge(T, C->Val->getBool() ? T->Kids[1] : T->Kids[2]);
  }
}

void Solver::propagateClass(
    uint32_t Rep, std::vector<std::pair<TermRef, TermRef>> &Pending) {
  // Ite collapse: users of a class that acquired a boolean constant.
  TermRef C = ClassConst[Rep];
  if (C && C->Val->isBool()) {
    bool Cond = C->Val->getBool();
    for (TermRef U : Uses[Rep])
      if (U->K == AOp::Ite && find(U->Kids[0]->Id) == Rep)
        Pending.emplace_back(U, Cond ? U->Kids[1] : U->Kids[2]);
  }
  // Injectivity: all constructor members of one class have equal arguments.
  auto MIt = CtorMembers.find(Rep);
  if (MIt != CtorMembers.end() && MIt->second.size() > 1) {
    const std::vector<TermRef> &Members = MIt->second;
    TermRef First = Members.front();
    for (size_t I = 1; I < Members.size(); ++I) {
      TermRef M = Members[I];
      if (M->B != First->B)
        continue;
      for (size_t J = 0; J < First->Kids.size(); ++J)
        if (find(First->Kids[J]->Id) != find(M->Kids[J]->Id))
          Pending.emplace_back(First->Kids[J], M->Kids[J]);
    }
  }
}

void Solver::merge(TermRef A, TermRef B) {
  registerTerm(A);
  registerTerm(B);
  std::vector<std::pair<TermRef, TermRef>> Pending = {{A, B}};
  while (!Pending.empty()) {
    auto [X, Y] = Pending.back();
    Pending.pop_back();
    uint32_t Rx = find(X->Id);
    uint32_t Ry = find(Y->Id);
    if (Rx == Ry)
      continue;
    // Merge the class with fewer users into the other.
    if (Uses[Rx].size() > Uses[Ry].size())
      std::swap(Rx, Ry);
    Parent[Rx] = Ry;
    // Constants: conflicting constants mean contradiction.
    if (TermRef Cx = ClassConst[Rx]) {
      if (TermRef Cy = ClassConst[Ry]) {
        if (!Value::equal(Cx->Val, Cy->Val))
          Contradiction = true;
      } else {
        ClassConst[Ry] = Cx;
      }
    }
    // Merge constructor member lists.
    auto MxIt = CtorMembers.find(Rx);
    if (MxIt != CtorMembers.end()) {
      auto &Dst = CtorMembers[Ry];
      Dst.insert(Dst.end(), MxIt->second.begin(), MxIt->second.end());
      CtorMembers.erase(Rx);
    }
    // Re-signature all users of the absorbed class.
    std::vector<TermRef> Moved = std::move(Uses[Rx]);
    Uses[Rx].clear();
    for (TermRef U : Moved) {
      Uses[Ry].push_back(U);
      Signature Sig = signatureOf(U);
      auto It = Sigs.find(Sig);
      if (It == Sigs.end())
        Sigs.emplace(Sig, U);
      else if (find(It->second->Id) != find(U->Id))
        Pending.emplace_back(U, It->second);
    }
    // Theory propagation on the merged class.
    propagateClass(Ry, Pending);
  }
}

//===----------------------------------------------------------------------===//
// Assumptions
//===----------------------------------------------------------------------===//

void Solver::assumeEq(TermRef A, TermRef B) {
  if (Log)
    Assumed.push_back(Log->addFact(ProofFact::Kind::Eq, A, B));
  assumeEqImpl(A, B);
}

void Solver::assumeTrue(TermRef B) {
  if (Log)
    Assumed.push_back(Log->addFact(ProofFact::Kind::True, B, nullptr));
  assumeTrueImpl(B);
}

void Solver::assumeEqImpl(TermRef A, TermRef B) {
  registerTerm(A);
  registerTerm(B);
  merge(A, B);
}

void Solver::assumeTrueImpl(TermRef B) {
  if (B->isTrue())
    return;
  if (B->isFalse()) {
    Contradiction = true;
    return;
  }
  // Always decide the proposition itself first: Ite conditions over this
  // exact term must collapse, and the case-split engine must see it as
  // decided (otherwise it would split on the same condition forever).
  registerTerm(B);
  merge(B, True);

  // Then mine structure for stronger theory facts.
  SolverArgs Args = solverArgs(*F, B);
  switch (B->K) {
  case AOp::And:
    assumeTrueImpl(Args[0]);
    assumeTrueImpl(Args[1]);
    return;
  case AOp::Eq:
    assumeEqImpl(Args[0], Args[1]);
    return;
  case AOp::Le:
    LeFacts.push_back({Args[0], Args[1], 0});
    return;
  case AOp::Not: {
    TermRef Inner = Args[0];
    registerTerm(Inner);
    if (Inner->K == AOp::Eq)
      Disequals.emplace_back(Inner->Kids[0], Inner->Kids[1]);
    // !(a <= b)  ==>  b + 1 <= a  (integers).
    if (Inner->K == AOp::Le)
      LeFacts.push_back({Inner->Kids[1], Inner->Kids[0], 1});
    merge(Inner, False);
    return;
  }
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Linear bounds
//===----------------------------------------------------------------------===//

namespace {
/// Two's-complement wrap-around, as the certificate checker's int64
/// arithmetic behaves on every supported target (without the undefined
/// behaviour of signed overflow).
int64_t wrapMulAdd(int64_t Acc, int64_t K, int64_t V) {
  return static_cast<int64_t>(static_cast<uint64_t>(Acc) +
                              static_cast<uint64_t>(K) *
                                  static_cast<uint64_t>(V));
}
} // namespace

void Solver::LinForm::addScaled(const LinForm &O, int64_t K) {
  Const = wrapMulAdd(Const, K, O.Const);
  for (const auto &[Id, C] : O.Coeffs) {
    int64_t &Slot = Coeffs[Id];
    Slot = wrapMulAdd(Slot, K, C);
    if (Slot == 0)
      Coeffs.erase(Id);
  }
}

Solver::LinForm Solver::linearize(TermRef T) {
  absint::LinForm Atoms = absint::linearize(*F, T);
  LinForm L;
  L.Const = Atoms.Const;
  for (const auto &[Atom, C] : Atoms.Coeffs) {
    // Atoms are keyed by their congruence representative so that
    // equalities unify them; a class with a known integer constant
    // contributes that constant instead.
    registerTerm(Atom);
    LinForm A;
    uint32_t Rep = find(Atom->Id);
    if (TermRef C = ClassConst[Rep]; C && C->isIntConst())
      A.Const = C->intVal();
    else
      A.Coeffs[Rep] = 1;
    L.addScaled(A, C);
  }
  return L;
}

bool Solver::leImplied(TermRef A, TermRef B, int64_t Bias) {
  // Goal: 0 <= B - (A + Bias).
  LinForm Goal = linearize(B);
  Goal.addScaled(linearize(A), -1);
  Goal.Const = wrapMulAdd(Goal.Const, -1, Bias);
  if (Goal.isConst())
    return Goal.Const >= 0;

  // One assumed fact: goal - fact must be a non-negative constant.
  std::vector<LinForm> Facts;
  Facts.reserve(LeFacts.size());
  for (const LeFact &LF : LeFacts) {
    LinForm Fact = linearize(LF.Y);
    Fact.addScaled(linearize(LF.X), -1); // Fact - Bias >= 0
    Fact.Const = wrapMulAdd(Fact.Const, -1, LF.Bias);
    Facts.push_back(std::move(Fact));
  }
  for (const LinForm &Fact : Facts) {
    LinForm D = Goal;
    D.addScaled(Fact, -1);
    if (D.isConst() && D.Const >= 0)
      return true;
  }
  // Two assumed facts (covers transitivity chains).
  for (size_t I = 0; I < Facts.size(); ++I) {
    for (size_t J = I; J < Facts.size(); ++J) {
      LinForm D = Goal;
      D.addScaled(Facts[I], -1);
      D.addScaled(Facts[J], -1);
      if (D.isConst() && D.Const >= 0)
        return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

TermRef Solver::negate(TermRef B) {
  if (B->isConst())
    return F->boolConst(!B->Val->getBool());
  if (B->K == AOp::Not)
    return B->Kids[0];
  return F->notT(B);
}

TermRef Solver::findUndecidedIteCond(TermRef T, unsigned FuelDepth) {
  if (FuelDepth == 0)
    return nullptr;
  if (T->K == AOp::Ite) {
    registerTerm(T);
    TermRef C = ClassConst[find(T->Kids[0]->Id)];
    if (!C || !C->Val->isBool())
      return T->Kids[0];
  }
  for (TermRef A : solverArgs(*F, T))
    if (TermRef C = findUndecidedIteCond(A, FuelDepth - 1))
      return C;
  return nullptr;
}

bool Solver::caseSplitEq(TermRef A, TermRef B, unsigned Depth) {
  if (Depth == 0)
    return false;
  TermRef Cond = findUndecidedIteCond(A, 8);
  if (!Cond)
    Cond = findUndecidedIteCond(B, 8);
  if (!Cond)
    return false;
  Solver Pos = *this;
  Pos.Log = nullptr; // hypothetical context, not a verification assumption
  Pos.assumeTrue(Cond);
  if (!Pos.provesEqCore(A, B) && !Pos.caseSplitEq(A, B, Depth - 1))
    return false;
  Solver Neg = *this;
  Neg.Log = nullptr;
  Neg.assumeTrue(negate(Cond));
  return Neg.provesEqCore(A, B) || Neg.caseSplitEq(A, B, Depth - 1);
}

bool Solver::caseSplitTrue(TermRef B, unsigned Depth) {
  if (Depth == 0)
    return false;
  TermRef Cond = findUndecidedIteCond(B, 8);
  if (!Cond)
    return false;
  Solver Pos = *this;
  Pos.Log = nullptr; // hypothetical context, not a verification assumption
  Pos.assumeTrue(Cond);
  if (!Pos.provesTrueCore(B) && !Pos.caseSplitTrue(B, Depth - 1))
    return false;
  Solver Neg = *this;
  Neg.Log = nullptr;
  Neg.assumeTrue(negate(Cond));
  return Neg.provesTrueCore(B) || Neg.caseSplitTrue(B, Depth - 1);
}

namespace {
/// Encodes the AC operator of a chain head, or -1.
int acOpKey(TermRef T) {
  switch (T->K) {
  case AOp::Add:
    return 1;
  case AOp::Mul:
    return 2;
  case AOp::And:
    return 3;
  case AOp::Or:
    return 4;
  case AOp::Bi:
    switch (T->B) {
    case BuiltinKind::MsUnion:
      return 5;
    case BuiltinKind::SetUnion:
      return 6;
    case BuiltinKind::MsAdd: // chain over a base; element slots commute
      return 7;
    case BuiltinKind::SetAdd:
      return 8;
    default: // SeqConcat is NOT commutative; excluded
      return -1;
    }
  default:
    return -1;
  }
}
} // namespace

void Solver::flattenAC(TermRef T, int Key, std::vector<TermRef> &Out) {
  if (acOpKey(T) == Key) {
    SolverArgs Args = solverArgs(*F, T);
    flattenAC(Args[0], Key, Out);
    flattenAC(Args[1], Key, Out);
    return;
  }
  Out.push_back(T);
}

bool Solver::acChainsEq(TermRef A, TermRef B, unsigned Depth) {
  if (Depth == 0)
    return false;
  int Key = acOpKey(A);
  if (Key < 0 || acOpKey(B) != Key)
    return false;
  std::vector<TermRef> Xs, Ys;
  flattenAC(A, Key, Xs);
  flattenAC(B, Key, Ys);
  if (Xs.size() != Ys.size() || Xs.size() > 6)
    return false;
  // For add-chains (ms_add/set_add), the base (first operand) is
  // positional; elements commute. For fully commutative ops everything
  // commutes. Backtracking match.
  std::vector<bool> Used(Ys.size(), false);
  std::function<bool(size_t)> Match = [&](size_t I) -> bool {
    if (I == Xs.size())
      return true;
    for (size_t J = 0; J < Ys.size(); ++J) {
      if (Used[J])
        continue;
      if ((Key == 7 || Key == 8) && ((I == 0) != (J == 0)))
        continue; // bases must align
      bool Eq = false;
      registerTerm(Xs[I]);
      registerTerm(Ys[J]);
      if (Xs[I] == Ys[J] || find(Xs[I]->Id) == find(Ys[J]->Id))
        Eq = true;
      else
        Eq = acChainsEq(Xs[I], Ys[J], Depth - 1);
      if (!Eq)
        continue;
      Used[J] = true;
      if (Match(I + 1))
        return true;
      Used[J] = false;
    }
    return false;
  };
  return Match(0);
}

bool Solver::provesEqCore(TermRef A, TermRef B) {
  if (Contradiction)
    return true;
  if (A == B)
    return true;
  registerTerm(A);
  registerTerm(B);
  if (find(A->Id) == find(B->Id))
    return true;
  // Integer antisymmetry: a <= b and b <= a.
  if (leImplied(A, B, 0) && leImplied(B, A, 0))
    return true;
  // AC-chain matching.
  if (acChainsEq(A, B, 4))
    return true;
  return false;
}

bool Solver::provesEq(TermRef A, TermRef B) {
  // Ite case split (value-dependent sensitivity, high-branch joins).
  bool R = provesEqCore(A, B) || caseSplitEq(A, B, 4);
  if (Log && Log->inObligation()) {
    bool Reported = Log->Forge ? true : R;
    Log->recordQuery(/*IsEq=*/true, A, B, Reported, Assumed);
    return Reported;
  }
  return R;
}

bool Solver::provesTrue(TermRef B) {
  // Ite case split (unary postconditions of high conditionals).
  bool R = provesTrueCore(B) || caseSplitTrue(B, 4);
  if (Log && Log->inObligation()) {
    bool Reported = Log->Forge ? true : R;
    Log->recordQuery(/*IsEq=*/false, B, nullptr, Reported, Assumed);
    return Reported;
  }
  return R;
}

bool Solver::provesTrueCore(TermRef B) {
  if (Contradiction)
    return true;
  if (B->isTrue())
    return true;
  if (B->isFalse())
    return false;
  SolverArgs Args = solverArgs(*F, B);
  switch (B->K) {
  case AOp::And:
    return provesTrueCore(Args[0]) && provesTrueCore(Args[1]);
  case AOp::Or:
    if (provesTrueCore(Args[0]) || provesTrueCore(Args[1]))
      return true;
    break; // fall through to propositional lookup
  case AOp::Eq:
    if (provesEqCore(Args[0], Args[1]))
      return true;
    break;
  case AOp::Le:
    if (leImplied(Args[0], Args[1], 0))
      return true;
    break;
  case AOp::Not: {
    TermRef Inner = Args[0];
    registerTerm(Inner);
    // Known-false proposition.
    registerTerm(False);
    if (find(Inner->Id) == find(False->Id))
      return true;
    if (Inner->K == AOp::Eq) {
      TermRef X = Inner->Kids[0];
      TermRef Y = Inner->Kids[1];
      registerTerm(X);
      registerTerm(Y);
      uint32_t Rx = find(X->Id), Ry = find(Y->Id);
      // Distinct constants in the two classes.
      TermRef Cx = ClassConst[Rx], Cy = ClassConst[Ry];
      if (Cx && Cy && !Value::equal(Cx->Val, Cy->Val))
        return true;
      // Recorded disequality.
      for (const auto &[P, Q] : Disequals) {
        uint32_t Rp = find(P->Id), Rq = find(Q->Id);
        if ((Rp == Rx && Rq == Ry) || (Rp == Ry && Rq == Rx))
          return true;
      }
      // Strict bound separation: x + 1 <= y or y + 1 <= x.
      if (leImplied(X, Y, 1) || leImplied(Y, X, 1))
        return true;
    }
    // !(a <= b)  <=>  b + 1 <= a.
    if (Inner->K == AOp::Le && leImplied(Inner->Kids[1], Inner->Kids[0], 1))
      return true;
    return false;
  }
  default:
    break;
  }
  // Propositional lookup: same class as `true`.
  registerTerm(B);
  registerTerm(True);
  return find(B->Id) == find(True->Id);
}
