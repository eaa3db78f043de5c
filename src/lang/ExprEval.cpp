//===-- lang/ExprEval.cpp - Concrete expression evaluation -----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "lang/ExprEval.h"

#include "value/ValueOps.h"

#include <cassert>

using namespace commcsl;

inline ValueRef ExprEvaluator::evalLeaf(const Expr &E,
                                        const EvalEnv &Env) const {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return ValueFactory::intV(E.IntVal);
  case ExprKind::BoolLit:
    return ValueFactory::boolV(E.BoolVal);
  case ExprKind::Var: {
    const EvalEnv::const_iterator B = Env.begin();
    uint32_t Hint = E.SlotHint.load(std::memory_order_relaxed);
    if (Hint < Env.size() && envKeyEq(B[Hint].first, E.Name))
      return B[Hint].second;
    break; // cold: unhinted lookup in eval()
  }
  default:
    break;
  }
  return eval(E, Env);
}

inline const ValueRef &ExprEvaluator::evalArg(const Expr &E,
                                              const EvalEnv &Env,
                                              ValueRef &Tmp) const {
  if (E.Kind == ExprKind::Var) {
    const EvalEnv::const_iterator B = Env.begin();
    uint32_t Hint = E.SlotHint.load(std::memory_order_relaxed);
    if (Hint < Env.size() && envKeyEq(B[Hint].first, E.Name))
      return B[Hint].second;
  }
  Tmp = eval(E, Env);
  return Tmp;
}

ValueRef ExprEvaluator::eval(const Expr &E, const EvalEnv &Env) const {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return ValueFactory::intV(E.IntVal);
  case ExprKind::BoolLit:
    return ValueFactory::boolV(E.BoolVal);
  case ExprKind::StringLit:
    return ValueFactory::stringV(E.Name);
  case ExprKind::UnitLit:
    return ValueFactory::unit();
  case ExprKind::Var: {
    // Fast path: a Var node is almost always evaluated against environments
    // with the same layout (the same procedure's locals, the same spec
    // parameters), so the slot it resolved to last time is nearly always
    // right. The key check makes a stale hint harmless.
    const EvalEnv::const_iterator B = Env.begin();
    uint32_t Hint = E.SlotHint.load(std::memory_order_relaxed);
    if (Hint < Env.size() && envKeyEq(B[Hint].first, E.Name))
      return B[Hint].second;
    auto It = Env.find(E.Name);
    if (It != Env.end()) {
      E.SlotHint.store(static_cast<uint32_t>(It - B),
                       std::memory_order_relaxed);
      return It->second;
    }
    // Uninitialized variables evaluate to a default (total semantics).
    assert(E.Ty && "untyped variable without binding");
    return E.Ty->defaultValue();
  }
  case ExprKind::Unary: {
    ValueRef ATmp;
    const ValueRef &A = evalArg(*E.Args[0], Env, ATmp);
    switch (E.UOp) {
    case UnaryOp::Neg:
      return vops::neg(A);
    case UnaryOp::Not:
      return vops::logNot(A);
    }
    break;
  }
  case ExprKind::Binary: {
    // Short-circuit logical operators.
    if (E.BOp == BinaryOp::And) {
      ValueRef A = eval(*E.Args[0], Env);
      if (!A->getBool())
        return ValueFactory::boolV(false);
      return eval(*E.Args[1], Env);
    }
    if (E.BOp == BinaryOp::Or) {
      ValueRef A = eval(*E.Args[0], Env);
      if (A->getBool())
        return ValueFactory::boolV(true);
      return eval(*E.Args[1], Env);
    }
    if (E.BOp == BinaryOp::Implies) {
      ValueRef A = eval(*E.Args[0], Env);
      if (!A->getBool())
        return ValueFactory::boolV(true);
      return eval(*E.Args[1], Env);
    }
    ValueRef ATmp, BTmp;
    const ValueRef &A = evalArg(*E.Args[0], Env, ATmp);
    const ValueRef &B = evalArg(*E.Args[1], Env, BTmp);
    switch (E.BOp) {
    case BinaryOp::Add:
      return vops::add(A, B);
    case BinaryOp::Sub:
      return vops::sub(A, B);
    case BinaryOp::Mul:
      return vops::mul(A, B);
    case BinaryOp::Div:
      return vops::divT(A, B);
    case BinaryOp::Mod:
      return vops::modT(A, B);
    case BinaryOp::Eq:
      return vops::eq(A, B);
    case BinaryOp::Ne:
      return vops::ne(A, B);
    case BinaryOp::Lt:
      return vops::lt(A, B);
    case BinaryOp::Le:
      return vops::le(A, B);
    case BinaryOp::Gt:
      return vops::gt(A, B);
    case BinaryOp::Ge:
      return vops::ge(A, B);
    case BinaryOp::And:
    case BinaryOp::Or:
    case BinaryOp::Implies:
      break; // handled above
    }
    break;
  }
  case ExprKind::Builtin: {
    // Ite must short-circuit to stay total on the untaken branch.
    if (E.Builtin == BuiltinKind::Ite) {
      ValueRef C = eval(*E.Args[0], Env);
      return eval(C->getBool() ? *E.Args[1] : *E.Args[2], Env);
    }
    // Builtin arity is at most 3; borrow operands where possible and
    // evaluate the rest into a stack buffer.
    assert(E.Args.size() <= 3 && "unexpected builtin arity");
    ValueRef Tmps[3];
    const ValueRef *Args[3];
    for (size_t I = 0; I < E.Args.size(); ++I)
      Args[I] = &evalArg(*E.Args[I], Env, Tmps[I]);
    ValueRef R = applyBuiltinOp(E.Builtin, Args, E.Args.size(), E.Ty);
    if (E.Builtin == BuiltinKind::Declassify && DeclassifySink)
      DeclassifySink->push_back({&E, R});
    return R;
  }
  case ExprKind::Call: {
    assert(Prog && "function call without program context");
    const FuncDecl *F = Prog->findFunc(E.Name);
    assert(F && "call to unknown function after type checking");
    EvalEnv Inner;
    assert(F->Params.size() == E.Args.size() && "arity mismatch");
    for (size_t I = 0; I < E.Args.size(); ++I)
      Inner[F->Params[I].Name] = evalLeaf(*E.Args[I], Env);
    return eval(*F->Body, Inner);
  }
  }
  assert(false && "unhandled expression kind");
  return ValueFactory::unit();
}

ValueRef commcsl::applyBuiltinOp(BuiltinKind Kind,
                                 const ValueRef *const *Args, size_t NumArgs,
                                 const TypeRef &ResultTy) {
  (void)NumArgs;
  auto DefaultResult = [&]() -> ValueRef {
    assert(ResultTy && "partial builtin needs a result type to totalize");
    return ResultTy->defaultValue();
  };
  switch (Kind) {
  case BuiltinKind::PairMk:
    return ValueFactory::pair((*Args[0]), (*Args[1]));
  case BuiltinKind::Fst:
    return vops::fst((*Args[0]));
  case BuiltinKind::Snd:
    return vops::snd((*Args[0]));
  case BuiltinKind::SeqEmpty:
    return ValueFactory::emptySeq();
  case BuiltinKind::SeqAppend:
    return vops::seqAppend((*Args[0]), (*Args[1]));
  case BuiltinKind::SeqConcat:
    return vops::seqConcat((*Args[0]), (*Args[1]));
  case BuiltinKind::SeqLen:
    return vops::seqLen((*Args[0]));
  case BuiltinKind::SeqAt: {
    std::optional<ValueRef> V = vops::seqAt((*Args[0]), (*Args[1])->getInt());
    return V ? std::move(*V) : DefaultResult();
  }
  case BuiltinKind::SeqHead: {
    std::optional<ValueRef> V = vops::seqHead((*Args[0]));
    return V ? std::move(*V) : DefaultResult();
  }
  case BuiltinKind::SeqLast: {
    std::optional<ValueRef> V = vops::seqLast((*Args[0]));
    return V ? std::move(*V) : DefaultResult();
  }
  case BuiltinKind::SeqTail:
    return vops::seqTail((*Args[0]));
  case BuiltinKind::SeqInit:
    return vops::seqInit((*Args[0]));
  case BuiltinKind::SeqContains:
    return vops::seqContains((*Args[0]), (*Args[1]));
  case BuiltinKind::SeqTake:
    return vops::seqTake((*Args[0]), (*Args[1]));
  case BuiltinKind::SeqDrop:
    return vops::seqDrop((*Args[0]), (*Args[1]));
  case BuiltinKind::SeqSort:
    return vops::seqSort((*Args[0]));
  case BuiltinKind::SeqToMs:
    return vops::seqToMultiset((*Args[0]));
  case BuiltinKind::SeqToSet:
    return vops::seqToSet((*Args[0]));
  case BuiltinKind::SeqSum:
    return vops::seqSum((*Args[0]));
  case BuiltinKind::SeqMean:
    return vops::seqMean((*Args[0]));
  case BuiltinKind::SetEmpty:
    return ValueFactory::emptySet();
  case BuiltinKind::SetAdd:
    return vops::setAdd((*Args[0]), (*Args[1]));
  case BuiltinKind::SetUnion:
    return vops::setUnion((*Args[0]), (*Args[1]));
  case BuiltinKind::SetInter:
    return vops::setInter((*Args[0]), (*Args[1]));
  case BuiltinKind::SetDiff:
    return vops::setDiff((*Args[0]), (*Args[1]));
  case BuiltinKind::SetMember:
    return vops::setMember((*Args[0]), (*Args[1]));
  case BuiltinKind::SetSize:
    return vops::setSize((*Args[0]));
  case BuiltinKind::SetToSeq:
    return vops::setToSeq((*Args[0]));
  case BuiltinKind::MsEmpty:
    return ValueFactory::emptyMultiset();
  case BuiltinKind::MsAdd:
    return vops::msAdd((*Args[0]), (*Args[1]));
  case BuiltinKind::MsUnion:
    return vops::msUnion((*Args[0]), (*Args[1]));
  case BuiltinKind::MsDiff:
    return vops::msDiff((*Args[0]), (*Args[1]));
  case BuiltinKind::MsCard:
    return vops::msCard((*Args[0]));
  case BuiltinKind::MsCount:
    return vops::msCount((*Args[0]), (*Args[1]));
  case BuiltinKind::MsToSeq:
    return vops::msToSeq((*Args[0]));
  case BuiltinKind::MapEmpty:
    return ValueFactory::emptyMap();
  case BuiltinKind::MapPut:
    return vops::mapPut((*Args[0]), (*Args[1]), (*Args[2]));
  case BuiltinKind::MapGet: {
    std::optional<ValueRef> V = vops::mapGet((*Args[0]), (*Args[1]));
    return V ? std::move(*V) : DefaultResult();
  }
  case BuiltinKind::MapGetOr:
    return vops::mapGetOr((*Args[0]), (*Args[1]), (*Args[2]));
  case BuiltinKind::MapHas:
    return vops::mapHas((*Args[0]), (*Args[1]));
  case BuiltinKind::MapRemove:
    return vops::mapRemove((*Args[0]), (*Args[1]));
  case BuiltinKind::MapDom:
    return vops::mapDom((*Args[0]));
  case BuiltinKind::MapValues:
    return vops::mapValuesMs((*Args[0]));
  case BuiltinKind::MapSize:
    return vops::mapSize((*Args[0]));
  case BuiltinKind::Ite:
    return (*Args[0])->getBool() ? (*Args[1]) : (*Args[2]);
  case BuiltinKind::Min:
    return vops::minV((*Args[0]), (*Args[1]));
  case BuiltinKind::Max:
    return vops::maxV((*Args[0]), (*Args[1]));
  case BuiltinKind::Abs:
    return vops::absV((*Args[0]));
  case BuiltinKind::Declassify:
    // Identity on values; the release is a property of the relational
    // semantics (the pair of runs), not of a single execution.
    return *Args[0];
  }
  assert(false && "unhandled builtin");
  return ValueFactory::unit();
}
