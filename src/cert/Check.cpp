//===-- cert/Check.cpp - Independent certificate checker -------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "cert/Check.h"

#include "cert/AbsCheck.h"
#include "cert/Algebra.h"
#include "cert/Evidence.h"
#include "support/trace/Metrics.h"
#include "support/trace/Trace.h"

using namespace commcsl;
using namespace commcsl::cert;

//===----------------------------------------------------------------------===//
// CheckSolver: the solver's decision procedure over pool ids
//===----------------------------------------------------------------------===//

void CheckSolver::set(IdMap &Map, Undo::Op K, uint32_t Key, uint32_t Val) {
  auto [It, Inserted] = Map.try_emplace(Key, Val);
  if (Inserted) {
    Trail.push_back({K, false, false, Key});
    return;
  }
  if (It->second == Val)
    return;
  Trail.push_back({K, true, false, Key, It->second});
  It->second = Val;
}

void CheckSolver::push(ListMap &Map, Undo::Op K, uint32_t Key, uint32_t Val) {
  auto [It, Inserted] = Map.try_emplace(Key);
  It->second.push_back(Val);
  Trail.push_back({K, !Inserted, false, Key});
}

std::vector<uint32_t> CheckSolver::moveList(ListMap &Map, Undo::Op K,
                                            uint32_t From, uint32_t To) {
  auto FIt = Map.find(From);
  if (FIt == Map.end())
    return {};
  std::vector<uint32_t> Moved = std::move(FIt->second);
  Map.erase(FIt);
  auto [TIt, Inserted] = Map.try_emplace(To);
  TIt->second.insert(TIt->second.end(), Moved.begin(), Moved.end());
  Trail.push_back({K, true, !Inserted, From, 0, To,
                   static_cast<uint32_t>(Moved.size())});
  return Moved;
}

void CheckSolver::addSig(std::vector<uint64_t> Sig, uint32_t Id) {
  SigTrail.push_back(Sigs.emplace(std::move(Sig), Id).first);
}

void CheckSolver::undo(const Mark &M) {
  while (Trail.size() > M.Trail) {
    const Undo &U = Trail.back();
    switch (U.K) {
    case Undo::Op::SetParent:
    case Undo::Op::SetClassConst: {
      IdMap &Map = U.K == Undo::Op::SetParent ? Parent : ClassConst;
      if (U.Existed)
        Map[U.Key] = U.Old;
      else
        Map.erase(U.Key);
      break;
    }
    case Undo::Op::Register:
      Registered.erase(U.Key);
      break;
    case Undo::Op::PushUses:
    case Undo::Op::PushCtor: {
      ListMap &Map = U.K == Undo::Op::PushUses ? Uses : CtorMembers;
      auto It = Map.find(U.Key);
      It->second.pop_back();
      if (!U.Existed)
        Map.erase(It);
      break;
    }
    case Undo::Op::MoveUses:
    case Undo::Op::MoveCtor: {
      ListMap &Map = U.K == Undo::Op::MoveUses ? Uses : CtorMembers;
      auto TIt = Map.find(U.To);
      std::vector<uint32_t> &Dst = TIt->second;
      std::vector<uint32_t> Back(Dst.end() - U.Count, Dst.end());
      Dst.resize(Dst.size() - U.Count);
      if (!U.ToExisted)
        Map.erase(TIt);
      Map.emplace(U.Key, std::move(Back));
      break;
    }
    }
    Trail.pop_back();
  }
  while (SigTrail.size() > M.SigTrail) {
    Sigs.erase(SigTrail.back());
    SigTrail.pop_back();
  }
  LeFacts.resize(M.LeFacts);
  Disequals.resize(M.Disequals);
  Contradiction = M.Contradiction;
}

uint32_t CheckSolver::find(uint32_t Id) {
  auto It = Parent.find(Id);
  if (It == Parent.end()) {
    set(Parent, Undo::Op::SetParent, Id, Id);
    return Id;
  }
  if (It->second == Id)
    return Id;
  uint32_t Root = find(It->second);
  set(Parent, Undo::Op::SetParent, Id, Root);
  return Root;
}

namespace {

bool isCommutativeNode(const CTerm &T) {
  if (T.K == CTerm::Kind::Binary)
    return T.BOp == BinaryOp::Add || T.BOp == BinaryOp::Mul ||
           T.BOp == BinaryOp::And || T.BOp == BinaryOp::Or ||
           T.BOp == BinaryOp::Eq;
  if (T.K == CTerm::Kind::Builtin)
    return T.BK == BuiltinKind::MsUnion || T.BK == BuiltinKind::SetUnion ||
           T.BK == BuiltinKind::SetInter || T.BK == BuiltinKind::Min ||
           T.BK == BuiltinKind::Max;
  return false;
}

bool isInjectiveCtor(const CTerm &T) {
  return T.K == CTerm::Kind::Builtin &&
         (T.BK == BuiltinKind::SeqAppend || T.BK == BuiltinKind::PairMk);
}

} // namespace

std::vector<uint64_t> CheckSolver::signatureOf(uint32_t Id) {
  const CTerm &T = Pool->at(Id);
  std::vector<uint64_t> Sig;
  Sig.reserve(T.Args.size() + 2);
  uint64_t Tag = static_cast<uint64_t>(T.K) << 32;
  switch (T.K) {
  case CTerm::Kind::Unary:
    Tag |= static_cast<uint64_t>(T.UOp);
    break;
  case CTerm::Kind::Binary:
    Tag |= static_cast<uint64_t>(T.BOp) << 8;
    break;
  case CTerm::Kind::Builtin:
    Tag |= static_cast<uint64_t>(T.BK) << 16;
    break;
  default:
    break;
  }
  Sig.push_back(Tag);
  for (uint32_t A : T.Args)
    Sig.push_back(find(A));
  if (isCommutativeNode(T) && Sig.size() == 3 && Sig[1] > Sig[2])
    std::swap(Sig[1], Sig[2]);
  return Sig;
}

void CheckSolver::registerTerm(uint32_t Id) {
  if (!Registered.insert(Id).second)
    return;
  Trail.push_back({Undo::Op::Register, false, false, Id});
  set(Parent, Undo::Op::SetParent, Id, Id);
  // Copy: interning below (intConst, merge) may grow the pool and
  // invalidate references into it.
  const CTerm T = Pool->at(Id);
  if (T.isConst())
    set(ClassConst, Undo::Op::SetClassConst, Id, Id);
  if (isInjectiveCtor(T))
    push(CtorMembers, Undo::Op::PushCtor, Id, Id);
  if (T.K == CTerm::Kind::Builtin &&
      (T.BK == BuiltinKind::Abs || T.BK == BuiltinKind::SeqLen ||
       T.BK == BuiltinKind::SetSize || T.BK == BuiltinKind::MsCard ||
       T.BK == BuiltinKind::MapSize || T.BK == BuiltinKind::MsCount))
    LeFacts.push_back({Pool->intConst(0), Id, 0});
  for (uint32_t A : T.Args) {
    registerTerm(A);
    push(Uses, Undo::Op::PushUses, find(A), Id);
  }
  if (!T.Args.empty()) {
    std::vector<uint64_t> Sig = signatureOf(Id);
    auto It = Sigs.find(Sig);
    if (It == Sigs.end())
      addSig(std::move(Sig), Id);
    else if (find(It->second) != find(Id))
      merge(Id, It->second);
  }
  if (T.K == CTerm::Kind::Builtin && T.BK == BuiltinKind::Ite) {
    auto CIt = ClassConst.find(find(T.Args[0]));
    if (CIt != ClassConst.end() &&
        Pool->at(CIt->second).ConstVal->isBool())
      merge(Id, Pool->at(CIt->second).ConstVal->getBool() ? T.Args[1]
                                                          : T.Args[2]);
  }
}

void CheckSolver::propagateClass(
    uint32_t Rep, std::vector<std::pair<uint32_t, uint32_t>> &Pending) {
  auto CIt = ClassConst.find(Rep);
  if (CIt != ClassConst.end() && Pool->at(CIt->second).ConstVal->isBool()) {
    bool Cond = Pool->at(CIt->second).ConstVal->getBool();
    auto UIt = Uses.find(Rep);
    if (UIt != Uses.end()) {
      for (uint32_t U : UIt->second) {
        const CTerm &TU = Pool->at(U);
        if (TU.K == CTerm::Kind::Builtin && TU.BK == BuiltinKind::Ite &&
            find(TU.Args[0]) == Rep)
          Pending.emplace_back(U, Cond ? TU.Args[1] : TU.Args[2]);
      }
    }
  }
  auto MIt = CtorMembers.find(Rep);
  if (MIt != CtorMembers.end() && MIt->second.size() > 1) {
    const std::vector<uint32_t> &Members = MIt->second;
    const CTerm &First = Pool->at(Members.front());
    for (size_t I = 1; I < Members.size(); ++I) {
      const CTerm &M = Pool->at(Members[I]);
      if (M.BK != First.BK)
        continue;
      for (size_t J = 0; J < First.Args.size(); ++J)
        if (find(First.Args[J]) != find(M.Args[J]))
          Pending.emplace_back(First.Args[J], M.Args[J]);
    }
  }
}

void CheckSolver::merge(uint32_t A, uint32_t B) {
  registerTerm(A);
  registerTerm(B);
  std::vector<std::pair<uint32_t, uint32_t>> Pending = {{A, B}};
  while (!Pending.empty()) {
    auto [X, Y] = Pending.back();
    Pending.pop_back();
    uint32_t Rx = find(X);
    uint32_t Ry = find(Y);
    if (Rx == Ry)
      continue;
    auto UsesOf = [&](uint32_t R) {
      auto It = Uses.find(R);
      return It == Uses.end() ? 0 : It->second.size();
    };
    if (UsesOf(Rx) > UsesOf(Ry))
      std::swap(Rx, Ry);
    set(Parent, Undo::Op::SetParent, Rx, Ry);
    auto CxIt = ClassConst.find(Rx);
    auto CyIt = ClassConst.find(Ry);
    if (CxIt != ClassConst.end()) {
      if (CyIt != ClassConst.end()) {
        if (!Value::equal(Pool->at(CxIt->second).ConstVal,
                          Pool->at(CyIt->second).ConstVal))
          Contradiction = true;
      } else {
        set(ClassConst, Undo::Op::SetClassConst, Ry, CxIt->second);
      }
    }
    moveList(CtorMembers, Undo::Op::MoveCtor, Rx, Ry);
    for (uint32_t U : moveList(Uses, Undo::Op::MoveUses, Rx, Ry)) {
      std::vector<uint64_t> Sig = signatureOf(U);
      auto It = Sigs.find(Sig);
      if (It == Sigs.end())
        addSig(std::move(Sig), U);
      else if (find(It->second) != find(U))
        Pending.emplace_back(U, It->second);
    }
    propagateClass(Ry, Pending);
  }
}

void CheckSolver::assume(const CertFact &F) {
  switch (F.K) {
  case CertFact::Kind::Eq:
    assumeEq(F.A, F.B);
    break;
  case CertFact::Kind::True:
    assumeTrue(F.A);
    break;
  case CertFact::Kind::Le:
    assumeLe(F.A, F.B, F.Bias);
    break;
  }
}

void CheckSolver::assumeEq(uint32_t A, uint32_t B) {
  registerTerm(A);
  registerTerm(B);
  merge(A, B);
}

void CheckSolver::assumeLe(uint32_t A, uint32_t B, int64_t Bias) {
  registerTerm(A);
  registerTerm(B);
  LeFacts.push_back({A, B, Bias});
}

void CheckSolver::assumeTrue(uint32_t B) {
  // Copy: boolConst interning below may grow the pool.
  const CTerm T = Pool->at(B);
  if (T.isTrue())
    return;
  if (T.isFalse()) {
    Contradiction = true;
    return;
  }
  registerTerm(B);
  merge(B, Pool->boolConst(true));

  if (T.K == CTerm::Kind::Binary) {
    if (T.BOp == BinaryOp::And) {
      assumeTrue(T.Args[0]);
      assumeTrue(T.Args[1]);
      return;
    }
    if (T.BOp == BinaryOp::Eq) {
      assumeEq(T.Args[0], T.Args[1]);
      return;
    }
    if (T.BOp == BinaryOp::Le) {
      LeFacts.push_back({T.Args[0], T.Args[1], 0});
      return;
    }
  }
  if (T.K == CTerm::Kind::Unary && T.UOp == UnaryOp::Not) {
    uint32_t Inner = T.Args[0];
    registerTerm(Inner);
    const CTerm TI = Pool->at(Inner);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Eq)
      Disequals.emplace_back(TI.Args[0], TI.Args[1]);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Le) {
      // !(a <= b)  ==>  b + 1 <= a  (integers).
      LeFacts.push_back({TI.Args[1], TI.Args[0], 1});
    }
    merge(Inner, Pool->boolConst(false));
    return;
  }
}

void CheckSolver::LinForm::addScaled(const LinForm &O, int64_t K) {
  Const += K * O.Const;
  for (const auto &[Id, C] : O.Coeffs) {
    int64_t &Slot = Coeffs[Id];
    Slot += K * C;
    if (Slot == 0)
      Coeffs.erase(Id);
  }
}

CheckSolver::LinForm CheckSolver::linearize(uint32_t Id) {
  LinForm F;
  const CTerm &T = Pool->at(Id);
  if (T.isConst() && T.ConstVal->isInt()) {
    F.Const = T.ConstVal->getInt();
    return F;
  }
  if (T.K == CTerm::Kind::Binary && T.BOp == BinaryOp::Add) {
    F = linearize(T.Args[0]);
    F.addScaled(linearize(T.Args[1]), 1);
    return F;
  }
  if (T.K == CTerm::Kind::Binary && T.BOp == BinaryOp::Mul) {
    uint32_t L = T.Args[0], R = T.Args[1];
    const CTerm &TL = Pool->at(L);
    const CTerm &TR = Pool->at(R);
    if (TL.isConst() && TL.ConstVal->isInt()) {
      F = linearize(R);
      LinForm Out;
      Out.addScaled(F, TL.ConstVal->getInt());
      return Out;
    }
    if (TR.isConst() && TR.ConstVal->isInt()) {
      F = linearize(L);
      LinForm Out;
      Out.addScaled(F, TR.ConstVal->getInt());
      return Out;
    }
  }
  registerTerm(Id);
  uint32_t Rep = find(Id);
  auto It = ClassConst.find(Rep);
  if (It != ClassConst.end() && Pool->at(It->second).ConstVal->isInt()) {
    F.Const = Pool->at(It->second).ConstVal->getInt();
    return F;
  }
  F.Coeffs[Rep] = 1;
  return F;
}

bool CheckSolver::leImplied(uint32_t A, uint32_t B, int64_t Bias) {
  // Goal: 0 <= B - (A + Bias).
  LinForm Goal = linearize(B);
  Goal.addScaled(linearize(A), -1);
  Goal.Const -= Bias;
  if (Goal.isConst())
    return Goal.Const >= 0;

  std::vector<LinForm> Facts;
  Facts.reserve(LeFacts.size());
  for (const LeFact &LF : LeFacts) {
    LinForm F = linearize(LF.Y);
    F.addScaled(linearize(LF.X), -1); // F - Bias >= 0
    F.Const -= LF.Bias;
    Facts.push_back(std::move(F));
  }
  for (const LinForm &F : Facts) {
    LinForm D = Goal;
    D.addScaled(F, -1);
    if (D.isConst() && D.Const >= 0)
      return true;
  }
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

uint32_t CheckSolver::findUndecidedIteCond(uint32_t Id, unsigned FuelDepth) {
  if (FuelDepth == 0)
    return NoTerm;
  // Copy: registerTerm below may intern and grow the pool.
  const CTerm T = Pool->at(Id);
  if (T.K == CTerm::Kind::Builtin && T.BK == BuiltinKind::Ite) {
    registerTerm(Id);
    auto CIt = ClassConst.find(find(T.Args[0]));
    if (CIt == ClassConst.end() || !Pool->at(CIt->second).ConstVal->isBool())
      return T.Args[0];
  }
  for (uint32_t A : T.Args)
    if (uint32_t C = findUndecidedIteCond(A, FuelDepth - 1); C != NoTerm)
      return C;
  return NoTerm;
}

bool CheckSolver::splitOn(uint32_t Cond, const std::function<bool()> &Prove) {
  Mark M = mark();
  assumeTrue(Cond);
  bool Ok = Prove();
  undo(M);
  if (!Ok)
    return false;
  assumeTrue(Pool->mkNot(Cond));
  Ok = Prove();
  undo(M);
  return Ok;
}

bool CheckSolver::caseSplitEq(uint32_t A, uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  uint32_t Cond = findUndecidedIteCond(A, 8);
  if (Cond == NoTerm)
    Cond = findUndecidedIteCond(B, 8);
  if (Cond == NoTerm)
    return false;
  return splitOn(Cond, [&] {
    return provesEqCore(A, B) || caseSplitEq(A, B, Depth - 1);
  });
}

bool CheckSolver::caseSplitTrue(uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  uint32_t Cond = findUndecidedIteCond(B, 8);
  if (Cond == NoTerm)
    return false;
  return splitOn(Cond, [&] {
    return provesTrueCore(B) || caseSplitTrue(B, Depth - 1);
  });
}

namespace {

int acOpKey(const CTerm &T) {
  if (T.K == CTerm::Kind::Binary) {
    switch (T.BOp) {
    case BinaryOp::Add:
      return 1;
    case BinaryOp::Mul:
      return 2;
    case BinaryOp::And:
      return 3;
    case BinaryOp::Or:
      return 4;
    default:
      return -1;
    }
  }
  if (T.K == CTerm::Kind::Builtin) {
    switch (T.BK) {
    case BuiltinKind::MsUnion:
      return 5;
    case BuiltinKind::SetUnion:
      return 6;
    case BuiltinKind::MsAdd:
      return 7;
    case BuiltinKind::SetAdd:
      return 8;
    default: // SeqConcat is NOT commutative; excluded
      return -1;
    }
  }
  return -1;
}

void flattenAC(const TermPool &Pool, uint32_t Id, int Key,
               std::vector<uint32_t> &Out) {
  const CTerm &T = Pool.at(Id);
  if (acOpKey(T) == Key) {
    flattenAC(Pool, T.Args[0], Key, Out);
    flattenAC(Pool, T.Args[1], Key, Out);
    return;
  }
  Out.push_back(Id);
}

} // namespace

bool CheckSolver::acChainsEq(uint32_t A, uint32_t B, unsigned Depth) {
  if (Depth == 0)
    return false;
  int Key = acOpKey(Pool->at(A));
  if (Key < 0 || acOpKey(Pool->at(B)) != Key)
    return false;
  std::vector<uint32_t> Xs, Ys;
  flattenAC(*Pool, A, Key, Xs);
  flattenAC(*Pool, B, Key, Ys);
  if (Xs.size() != Ys.size() || Xs.size() > 6)
    return false;
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
      if (Xs[I] == Ys[J] || find(Xs[I]) == find(Ys[J]))
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

bool CheckSolver::provesEqCore(uint32_t A, uint32_t B) {
  if (Contradiction)
    return true;
  if (A == B)
    return true;
  registerTerm(A);
  registerTerm(B);
  if (find(A) == find(B))
    return true;
  if (leImplied(A, B, 0) && leImplied(B, A, 0))
    return true;
  if (acChainsEq(A, B, 4))
    return true;
  return false;
}

bool CheckSolver::provesEq(uint32_t A, uint32_t B) {
  if (provesEqCore(A, B))
    return true;
  return caseSplitEq(A, B, 4);
}

bool CheckSolver::provesTrue(uint32_t B) {
  if (provesTrueCore(B))
    return true;
  return caseSplitTrue(B, 4);
}

bool CheckSolver::provesTrueCore(uint32_t B) {
  if (Contradiction)
    return true;
  // Copy: the recursive provesEqCore/registerTerm calls below may intern
  // and grow the pool.
  const CTerm T = Pool->at(B);
  if (T.isTrue())
    return true;
  if (T.isFalse())
    return false;
  if (T.K == CTerm::Kind::Binary) {
    if (T.BOp == BinaryOp::And)
      return provesTrueCore(T.Args[0]) && provesTrueCore(T.Args[1]);
    if (T.BOp == BinaryOp::Or) {
      if (provesTrueCore(T.Args[0]) || provesTrueCore(T.Args[1]))
        return true;
      // fall through to propositional lookup
    }
    if (T.BOp == BinaryOp::Eq && provesEqCore(T.Args[0], T.Args[1]))
      return true;
    if (T.BOp == BinaryOp::Le && leImplied(T.Args[0], T.Args[1], 0))
      return true;
  }
  if (T.K == CTerm::Kind::Unary && T.UOp == UnaryOp::Not) {
    uint32_t Inner = T.Args[0];
    registerTerm(Inner);
    registerTerm(Pool->boolConst(false));
    if (find(Inner) == find(Pool->boolConst(false)))
      return true;
    const CTerm TI = Pool->at(Inner);
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Eq) {
      uint32_t X = TI.Args[0], Y = TI.Args[1];
      registerTerm(X);
      registerTerm(Y);
      uint32_t Rx = find(X), Ry = find(Y);
      auto Cx = ClassConst.find(Rx);
      auto Cy = ClassConst.find(Ry);
      if (Cx != ClassConst.end() && Cy != ClassConst.end() &&
          !Value::equal(Pool->at(Cx->second).ConstVal,
                        Pool->at(Cy->second).ConstVal))
        return true;
      for (const auto &[P, Q] : Disequals) {
        uint32_t Rp = find(P), Rq = find(Q);
        if ((Rp == Rx && Rq == Ry) || (Rp == Ry && Rq == Rx))
          return true;
      }
      // Strict bound separation: x + 1 <= y or y + 1 <= x.
      if (leImplied(X, Y, 1) || leImplied(Y, X, 1))
        return true;
    }
    if (TI.K == CTerm::Kind::Binary && TI.BOp == BinaryOp::Le) {
      // !(a <= b)  <=>  b + 1 <= a.
      if (leImplied(TI.Args[1], TI.Args[0], 1))
        return true;
    }
    return false;
  }
  registerTerm(B);
  registerTerm(Pool->boolConst(true));
  return find(B) == find(Pool->boolConst(true));
}

//===----------------------------------------------------------------------===//
// Incremental query replay
//===----------------------------------------------------------------------===//

bool ProcReplay::decide(const CertQuery &Q) {
  size_t Common = 0;
  while (Common < Assumed.size() && Common < Q.Ctx.size() &&
         Assumed[Common] == Q.Ctx[Common])
    ++Common;
  if (Common < Assumed.size()) {
    S.undo(Marks[Common]);
    Assumed.resize(Common);
    Marks.resize(Common);
  }
  for (size_t I = Common; I < Q.Ctx.size(); ++I) {
    Marks.push_back(S.mark());
    Assumed.push_back(Q.Ctx[I]);
    S.assume(P.Facts[Q.Ctx[I]]);
  }
  FactsAssumed += Q.Ctx.size() - Common;
  ++Queries;
  CheckSolver::Mark M = S.mark();
  bool Got = Q.IsEq ? S.provesEq(Q.A, Q.B) : S.provesTrue(Q.A);
  S.undo(M);
  return Got;
}

//===----------------------------------------------------------------------===//
// Document-level checking rules
//===----------------------------------------------------------------------===//

namespace {

CheckResult fail(std::string Msg) { return {false, std::move(Msg)}; }

CheckResult checkSpecUnit(const CertSpecUnit &S, const ResourceSpecDecl &Decl,
                          const Program &Prog) {
  std::string Where = "spec '" + S.Name + "': ";
  if (S.ScopeLo != Decl.ScopeIntLo || S.ScopeHi != Decl.ScopeIntHi ||
      S.ScopeBound != Decl.ScopeCollectionBound)
    return fail(Where + "recorded scope differs from the declaration");
  if (S.StatesCap < MinStatesCap || S.ArgsCap < MinArgsCap)
    return fail(Where + "universe caps below the checker floor");

  FamilyMatch Fam = matchFamily(Decl);
  if (S.Fam != Fam.Fam || (S.Fam == Family::AcUpdate && S.FamilyOp != Fam.Op))
    return fail(Where + "claimed algebraic family does not re-derive");

  SpecEvidence Ev = computeSpecEvidence(Decl, &Prog, S.StatesCap, S.ArgsCap,
                                        SampleDraws);
  if (Ev.NumStates != S.NumStates || Ev.NumAlphaPairs != S.NumAlphaPairs)
    return fail(Where + "recomputed state universe differs");
  if (Ev.ArgCounts != S.ArgCounts)
    return fail(Where + "recomputed argument universe differs");
  if (Ev.SampleCount != S.SampleCount || Ev.SampleDigest != S.SampleDigest)
    return fail(Where + "recomputed sample digest differs");

  if (S.Valid) {
    if (S.CE)
      return fail(Where + "valid unit carries a counterexample");
    if (!Ev.AllSamplesHold)
      return fail(Where + "claimed valid but a recomputed sample violates "
                          "the property");
  } else {
    if (!S.CE)
      return fail(Where + "invalid unit has no counterexample");
    if (!ceViolates(Decl, &Prog, *S.CE))
      return fail(Where + "counterexample does not re-execute as a "
                          "violation");
    if (S.Absint && S.Absint->Unbounded)
      return fail(Where + "invalid unit claims unbounded validity");
  }
  if (S.Absint) {
    std::string AbsError;
    if (!checkAbsintSection(*S.Absint, Decl, Prog, AbsError))
      return fail(Where + AbsError);
  }
  return {};
}

/// The SpecCheckMemo key: everything checkSpecUnit reads, each part
/// length-prefixed so no two inputs concatenate to the same key.
std::string specCheckKey(const CertSpecUnit &S, const ResourceSpecDecl &Decl,
                         const Program &Prog) {
  std::string Key;
  for (const std::string &Part :
       {printSpecUnit(S), Decl.str(), Prog.funcsStr()}) {
    Key += std::to_string(Part.size());
    Key += ':';
    Key += Part;
  }
  return Key;
}

CheckResult replayObligations(const CertProcUnit &P, ProcReplay &Replay) {
  std::string Where = "proc '" + P.Name + "': ";
  bool AllObOk = true;
  for (const CertObligation &Ob : P.Obligations) {
    bool AllProved = true;
    for (size_t QI = 0; QI < Ob.Queries.size(); ++QI) {
      const CertQuery &Q = Ob.Queries[QI];
      bool Got = Replay.decide(Q);
      if (Got != Q.Proved)
        return fail(Where + "obligation '" + Ob.Label + "' query " +
                    std::to_string(QI) + " replays as " +
                    (Got ? "proved" : "refuted") + " but was recorded " +
                    (Q.Proved ? "proved" : "refuted"));
      AllProved &= Q.Proved;
    }
    if (Ob.Ok != AllProved)
      return fail(Where + "obligation '" + Ob.Label +
                  "' status contradicts its queries");
    AllObOk &= Ob.Ok;
  }
  bool ExpectOk = AllObOk && !P.StructuralFail;
  if (P.Ok != ExpectOk)
    return fail(Where + "proc status contradicts its obligations");
  return {};
}

CheckResult checkProcUnit(const CertProcUnit &P) {
  TraceSpan Span("cert", [&] { return "proc " + P.Name; });
  // The replay interns case-split negations into the pool; work on a copy
  // so the certificate object itself stays untouched.
  TermPool Pool = P.Pool;
  ProcReplay Replay(P, Pool);
  CheckResult R = replayObligations(P, Replay);
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("cert.check.queries").add(Replay.queries());
  M.counter("cert.check.facts_assumed").add(Replay.factsAssumed());
  return R;
}

} // namespace

CheckResult cert::checkCertificate(const Certificate &C, const Program &Prog,
                                   SpecCheckMemo *Memo) {
  if (C.ProgramDigest != fnv64(Prog.str()))
    return fail("program digest mismatch (certificate was issued for a "
                "different program)");
  if (C.Specs.size() != Prog.Specs.size())
    return fail("certificate covers " + std::to_string(C.Specs.size()) +
                " specs, program declares " +
                std::to_string(Prog.Specs.size()));
  {
    TraceSpan Span("cert", "spec units");
    for (size_t I = 0; I < C.Specs.size(); ++I) {
      const CertSpecUnit &S = C.Specs[I];
      const ResourceSpecDecl &Decl = Prog.Specs[I];
      if (S.Name != Decl.Name)
        return fail("spec unit " + std::to_string(I) + " names '" + S.Name +
                    "', program declares '" + Decl.Name + "'");
      auto Check = [&] { return checkSpecUnit(S, Decl, Prog); };
      CheckResult R = Memo ? *Memo->getOrCompute(specCheckKey(S, Decl, Prog),
                                                 Check)
                           : Check();
      if (!R.Ok)
        return R;
    }
  }
  if (C.Procs.size() != Prog.Procs.size())
    return fail("certificate covers " + std::to_string(C.Procs.size()) +
                " procs, program declares " +
                std::to_string(Prog.Procs.size()));
  {
    TraceSpan Span("cert", "proc units");
    for (size_t I = 0; I < C.Procs.size(); ++I) {
      if (C.Procs[I].Name != Prog.Procs[I].Name)
        return fail("proc unit " + std::to_string(I) + " names '" +
                    C.Procs[I].Name + "', program declares '" +
                    Prog.Procs[I].Name + "'");
      if (CheckResult R = checkProcUnit(C.Procs[I]); !R.Ok)
        return R;
    }
  }
  bool AllSpecs = true, AllProcs = true;
  for (const CertSpecUnit &S : C.Specs)
    AllSpecs &= S.Valid;
  for (const CertProcUnit &P : C.Procs)
    AllProcs &= P.Ok;
  bool Expect = AllSpecs && AllProcs;
  if (C.Verified != Expect)
    return fail(std::string("verdict '") +
                (C.Verified ? "verified" : "rejected") +
                "' contradicts the units");
  return {};
}
