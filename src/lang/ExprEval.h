//===-- lang/ExprEval.h - Concrete expression evaluation --------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete evaluation of (type-checked) expressions over the pure value
/// domain. Evaluation is deterministic and total, matching the expression
/// semantics assumed by the paper (Sec. 3.1); partial builtins are totalized
/// with the default value of the annotated result type.
///
/// Used by the interpreter, the resource-specification runtime (actions and
/// abstraction functions are expressions), and the validity checker.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_LANG_EXPREVAL_H
#define COMMCSL_LANG_EXPREVAL_H

#include "lang/Expr.h"
#include "lang/Program.h"
#include "value/Value.h"

#include <string>
#include <utility>
#include <vector>

namespace commcsl {

/// String equality tuned for environment keys: identifiers are a few
/// characters, so after the length check an inline byte loop beats the
/// out-of-line memcmp call `std::string::operator==` compiles to.
inline bool envKeyEq(const std::string &A, const std::string &B) {
  size_t N = A.size();
  if (N != B.size())
    return false;
  const char *PA = A.data(), *PB = B.data();
  for (size_t I = 0; I < N; ++I)
    if (PA[I] != PB[I])
      return false;
  return true;
}

/// Variable environment for evaluation: a flat association array with
/// linear lookup and small-buffer storage. Environments are tiny (a
/// handful of locals or spec parameters), so a cache-contiguous scan beats
/// the pointer-chasing and per-insert allocation of the `std::map` it
/// replaced — variable lookup and environment construction sit on the
/// interpreter's innermost path. The first `InlineCap` bindings live
/// inside the object itself, so the common case (spec evaluation binds
/// one or two parameters per call) touches the heap not at all; larger
/// environments spill to a vector once and stay there.
/// The drop-in surface of the old map is preserved (`operator[]`, `find`,
/// `count`, iteration, copies, initializer lists); keys are unique,
/// iteration order is insertion order.
class EvalEnv {
public:
  using value_type = std::pair<std::string, ValueRef>;
  using iterator = value_type *;
  using const_iterator = const value_type *;

  EvalEnv() = default;
  EvalEnv(std::initializer_list<value_type> Init) {
    for (const value_type &E : Init)
      (*this)[E.first] = E.second;
  }

  /// Returns the binding for \p K, default-inserting a null value like the
  /// map it replaces.
  ValueRef &operator[](const std::string &K) {
    value_type *D = data();
    for (size_t I = 0; I < N; ++I)
      if (envKeyEq(D[I].first, K))
        return D[I].second;
    return pushBack(K);
  }

  iterator find(const std::string &K) {
    iterator E = end();
    for (iterator I = begin(); I != E; ++I)
      if (envKeyEq(I->first, K))
        return I;
    return E;
  }
  const_iterator find(const std::string &K) const {
    const_iterator E = end();
    for (const_iterator I = begin(); I != E; ++I)
      if (envKeyEq(I->first, K))
        return I;
    return E;
  }

  iterator begin() { return data(); }
  iterator end() { return data() + N; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + N; }

  size_t count(const std::string &K) const { return find(K) != end() ? 1 : 0; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }

  /// operator[] with a caller-cached slot index: if `Idx` already names
  /// \p K's binding it is returned without scanning; otherwise the scan
  /// (or default-insert) runs and `Idx` is updated. Callers persist the
  /// index across evaluations of the same AST node, where the environment
  /// layout is almost always identical.
  ValueRef &slot(const std::string &K, uint32_t &Idx) {
    value_type *D = data();
    if (Idx < N && envKeyEq(D[Idx].first, K))
      return D[Idx].second;
    for (size_t I = 0; I < N; ++I)
      if (envKeyEq(D[I].first, K)) {
        Idx = static_cast<uint32_t>(I);
        return D[I].second;
      }
    Idx = static_cast<uint32_t>(N);
    return pushBack(K);
  }

  /// Drops every binding past the first \p M. Slot storage (including
  /// string capacity in the inline buffer) is retained for reuse; trimmed
  /// entries are unobservable through any accessor. Enables reusable
  /// scratch environments: bind the first M slots, truncate to M.
  void truncate(size_t M) {
    if (M >= N)
      return;
    if (!Overflow.empty())
      Overflow.resize(M);
    N = M;
  }

  /// Hinted find (no insertion), same index-caching contract as slot().
  const_iterator findHint(const std::string &K, uint32_t &Idx) const {
    const value_type *D = data();
    if (Idx < N && envKeyEq(D[Idx].first, K))
      return D + Idx;
    for (size_t I = 0; I < N; ++I)
      if (envKeyEq(D[I].first, K)) {
        Idx = static_cast<uint32_t>(I);
        return D + I;
      }
    return end();
  }

private:
  static constexpr size_t InlineCap = 4;

  value_type *data() {
    return Overflow.empty() ? InlineBuf : Overflow.data();
  }
  const value_type *data() const {
    return Overflow.empty() ? InlineBuf : Overflow.data();
  }

  ValueRef &pushBack(const std::string &K) {
    if (!Overflow.empty()) {
      Overflow.emplace_back(K, ValueRef());
      ++N;
      return Overflow.back().second;
    }
    if (N < InlineCap) {
      InlineBuf[N].first = K;
      InlineBuf[N].second = ValueRef();
      return InlineBuf[N++].second;
    }
    // Spill: move the inline bindings into the overflow vector, which
    // stays authoritative from here on.
    Overflow.reserve(InlineCap + 1);
    for (size_t I = 0; I < InlineCap; ++I)
      Overflow.push_back(std::move(InlineBuf[I]));
    Overflow.emplace_back(K, ValueRef());
    ++N;
    return Overflow.back().second;
  }

  value_type InlineBuf[InlineCap];
  std::vector<value_type> Overflow;
  size_t N = 0;
};

/// One value released by a `declassify` expression, keyed by the expression
/// (its site) that released it.
struct Release {
  const Expr *Site = nullptr;
  ValueRef Val;
};

/// Evaluates expressions concretely. Holds a (possibly null) program pointer
/// to resolve user-defined pure function calls, which are evaluated by
/// binding their parameters (they are non-recursive by construction).
class ExprEvaluator {
public:
  explicit ExprEvaluator(const Program *Prog = nullptr) : Prog(Prog) {}

  /// Evaluates \p E in \p Env. \p E must be type-checked (the `Ty`
  /// annotations of partial builtins provide totalization defaults).
  /// Unbound variables evaluate to the default value of their type,
  /// matching the paper's total expression semantics.
  ValueRef eval(const Expr &E, const EvalEnv &Env) const;

  /// When non-null, every `declassify` evaluation appends the released
  /// value and its site here in evaluation order. The interpreter points
  /// this at the run's release log; spec/validity evaluation leaves it null
  /// (the type checker keeps declassify out of those positions anyway).
  std::vector<Release> *DeclassifySink = nullptr;

private:
  /// eval() specialized for operand position: handles the overwhelmingly
  /// common leaf operands (hinted variables and int/bool literals) inline
  /// and falls back to eval() for everything else, saving a recursive call
  /// per operand of the operator cases.
  ValueRef evalLeaf(const Expr &E, const EvalEnv &Env) const;

  /// Borrowing variant of evalLeaf: a hinted variable operand is returned
  /// as a reference to its environment slot — no refcount traffic at all —
  /// and anything else is evaluated into \p Tmp. The returned reference is
  /// valid until \p Env or \p Tmp changes; operators consume it before
  /// either can.
  const ValueRef &evalArg(const Expr &E, const EvalEnv &Env,
                          ValueRef &Tmp) const;

  const Program *Prog;
};

/// Applies a builtin operation to concrete argument values. Partial
/// builtins (`at`, `head`, `last`, `map_get`) are totalized with the
/// default value of \p ResultTy (which must be non-null for those).
/// `Ite` must not be passed here (it short-circuits at a higher level, but
/// with concrete arguments the caller can simply select).
///
/// The pointer-of-pointers form is the hot-path entry: the evaluator passes
/// stack buffers of borrowed argument refs (builtin arity is at most 3),
/// avoiding both a vector allocation and a refcount bump per argument.
ValueRef applyBuiltinOp(BuiltinKind Kind, const ValueRef *const *Args,
                        size_t NumArgs, const TypeRef &ResultTy);

inline ValueRef applyBuiltinOp(BuiltinKind Kind, const ValueRef *Args,
                               size_t NumArgs, const TypeRef &ResultTy) {
  const ValueRef *Ptrs[3];
  for (size_t I = 0; I < NumArgs; ++I)
    Ptrs[I] = &Args[I];
  return applyBuiltinOp(Kind, Ptrs, NumArgs, ResultTy);
}

inline ValueRef applyBuiltinOp(BuiltinKind Kind,
                               const std::vector<ValueRef> &Args,
                               const TypeRef &ResultTy) {
  return applyBuiltinOp(Kind, Args.data(), Args.size(), ResultTy);
}

} // namespace commcsl

#endif // COMMCSL_LANG_EXPREVAL_H
