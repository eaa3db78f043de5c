//===-- absint/Term.h - Hash-consed symbolic terms ---------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hash-consed term language of the project (DESIGN §13). The
/// relational verifier, its entailment solver, certificate emission, and the
/// differencing validity tier all build, rewrite, and compare `ATerm`s:
/// expressions are translated by `translateExpr` (Differencing.h) and brought
/// into canonical form by the rewrite rules of `Normalizer` (Normalize.h).
///
/// A few operators get dedicated n-ary AC nodes (`Add`, `Mul`, `And`, `Or`);
/// integer sums are kept as coefficient lists (`c0 + c1*a1 + ...`, one kid
/// per distinct atom), so extending a sum merges instead of re-growing it.
/// Everything else reuses the surface language's `BuiltinKind` under a
/// generic application node, so the rewrite rules key on the same enum the
/// concrete evaluator dispatches on. Leaves are concrete `Value` constants
/// and symbols: *named* symbols (the validity tier's state, argument, and
/// slot variables) and *fresh* numbered symbols (the verifier's program
/// inputs and havocs).
///
/// Ordering between terms is *structural* (never pointer-based): the
/// canonical form of an AC node sorts its children with `ATerm::compare`,
/// which makes normal forms reproducible across factories — the certificate
/// checker re-normalizes in a fresh factory and must reach identical trees.
/// Fresh symbols order by creation number, which is deterministic per
/// factory.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ABSINT_TERM_H
#define COMMCSL_ABSINT_TERM_H

#include "lang/Expr.h"
#include "value/Value.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace commcsl {
namespace absint {

/// Term operator. `Bi` covers every `BuiltinKind` not given a dedicated
/// node; `Add`/`Mul`/`And`/`Or` are variadic and kept flattened + sorted.
enum class AOp : uint8_t {
  Const, ///< concrete value (`Val` payload)
  Sym,   ///< free symbol (named, or fresh and numbered)
  Add,   ///< n-ary, wrap-around int64 ring (matches vops::add)
  Mul,   ///< n-ary; constant factor first when present
  Div,
  Mod,
  Eq, ///< binary, children in canonical order
  Lt, ///< only in raw terms: normal forms use `!(b <= a)`
  Le,
  Not,
  And, ///< n-ary
  Or,  ///< n-ary
  Ite,
  Bi, ///< generic builtin application (BuiltinKind payload)
};

class ATerm {
public:
  AOp K;
  BuiltinKind B = BuiltinKind::PairMk; ///< valid when K == Bi
  ValueRef Val;                         ///< Const payload
  std::string Str; ///< Sym name (a display hint for fresh symbols)
  bool Fresh = false; ///< fresh symbol: identity is SymId, not Str
  uint32_t SymId = 0;
  std::vector<const ATerm *> Kids;
  uint64_t Hash = 0;
  uint32_t Size = 1; ///< tree node count (saturating), used by budgets
  uint32_t Id = 0;   ///< dense per-factory creation index

  /// Total structural order: negative/zero/positive like strcmp. Comparing
  /// interned terms from the same factory can shortcut on pointer equality,
  /// but the order itself never depends on pointers.
  static int compare(const ATerm *A, const ATerm *B);

  bool isConst() const { return K == AOp::Const; }
  bool isIntConst() const { return isConst() && Val->isInt(); }
  /// The payload of an int constant (isIntConst() must hold).
  int64_t intVal() const { return Val->getInt(); }
  bool isInt(int64_t V) const { return isIntConst() && Val->getInt() == V; }
  bool isBool(bool V) const {
    return isConst() && Val->isBool() && Val->getBool() == V;
  }
  bool isTrue() const { return isBool(true); }
  bool isFalse() const { return isBool(false); }

  /// Surface-ish rendering for diagnostics and tests.
  std::string str() const;
};

/// Hash-consing factory. Terms live as long as the factory; equal terms are
/// the same pointer. Construction does *not* normalize (see Normalize.h):
/// these constructors build exactly the node asked for, which is also what
/// the certificate parser needs to reproduce recorded structure faithfully.
/// Not thread-safe; one factory per verification run or analysis.
class TermFactory {
public:
  TermFactory() = default;
  TermFactory(const TermFactory &) = delete;
  TermFactory &operator=(const TermFactory &) = delete;

  const ATerm *constant(ValueRef V);
  const ATerm *intConst(int64_t V);
  const ATerm *boolConst(bool V);
  const ATerm *strConst(const std::string &S);
  const ATerm *unitConst();
  const ATerm *sym(const std::string &Name);
  /// A symbol distinct from every other; \p Name is a display hint.
  const ATerm *freshSym(const std::string &Name);

  const ATerm *app(AOp K, std::vector<const ATerm *> Kids);
  const ATerm *bi(BuiltinKind B, std::vector<const ATerm *> Kids);

  const ATerm *add2(const ATerm *A, const ATerm *B);
  const ATerm *mul2(const ATerm *A, const ATerm *B);
  const ATerm *notT(const ATerm *A);
  /// Equality with its two children in canonical (structural) order.
  const ATerm *eq(const ATerm *A, const ATerm *B);
  const ATerm *ite(const ATerm *C, const ATerm *T, const ATerm *E);

  /// Number of distinct terms interned so far.
  size_t size() const { return Terms.size(); }

private:
  struct Key {
    AOp K;
    BuiltinKind B;
    ValueRef Val;
    std::string Str;
    bool Fresh;
    uint32_t SymId;
    std::vector<const ATerm *> Kids;
    bool operator==(const Key &O) const;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  const ATerm *intern(Key K);

  std::unordered_map<Key, std::unique_ptr<ATerm>, KeyHash> Terms;
  uint32_t NextSymId = 0;
};

} // namespace absint
} // namespace commcsl

#endif // COMMCSL_ABSINT_TERM_H
