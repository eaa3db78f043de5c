//===-- absint/Normalize.h - Equational normalizer ---------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equational core shared by the verifier and the differencing tier
/// (DESIGN §13): an innermost rewrite engine that brings `ATerm`s into a
/// canonical form modulo the value domain's algebra — AC-flattening/sorting
/// for `+`, `*`, `&&`, `||`, `min`/`max`, set/multiset constructions, like-
/// term collection in sums, directed rules for the collection builtins
/// (`dom(map_put(m,k,v)) → set_add(dom(m),k)`, put/get commutation with key
/// case-splits, `seq_to_mset(append(s,x)) → ms_add(...)`,
/// `sort(s) → mset_to_seq(seq_to_mset(s))`, ...), transparency of
/// `declassify`, comparison canonicalization (`a < b → !(b <= a)`), constant
/// folding that mirrors `vops` exactly (ground builtin applications are
/// evaluated), and fact application from the current branch's `FactCtx`.
/// The verifier runs it with an empty `FactCtx`.
///
/// Rules whose applicability hinges on an undecided condition (a key
/// equality, a map/set membership, an `ite` condition) do not fire; instead
/// the condition is recorded as a *blocked guard*, in deterministic
/// traversal order, for the prover to case-split on.
///
/// Deliberately absent: any rule for `sum(seq)` / `mean(seq)` beyond
/// constant folding. The concrete fold saturates at the int64 boundary,
/// which makes it order-sensitive there, so treating it as homomorphic over
/// `append` or `concat` is unsound: `sum(append(s, 1))` need not equal
/// `sum(s) + 1` (examples/programs/broken/sum_saturation_leak.hv). Specs
/// abstracting through `sum(v)` stay with the bounded tiers; the Table 1
/// ghost-sum specs use plain `+`, which wraps (a commutative ring), and are
/// provable.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ABSINT_NORMALIZE_H
#define COMMCSL_ABSINT_NORMALIZE_H

#include "absint/Domain.h"
#include "absint/Term.h"

#include <unordered_map>
#include <unordered_set>

namespace commcsl {
namespace absint {

struct NormLimits {
  uint64_t MaxSteps = 50000;
  uint32_t MaxTermSize = 20000;
};

class Normalizer {
public:
  Normalizer(TermFactory &F, const FactCtx &Ctx, NormLimits Limits = {})
      : F(F), Ctx(Ctx), Limits(Limits) {}

  /// Canonical form of \p T under the branch facts, or null when a budget
  /// was exhausted (the caller must treat the obligation as inconclusive).
  /// The step budget is cumulative over the normalizer's lifetime.
  const ATerm *normalize(const ATerm *T);

  /// For long-lived normalizers (the verifier keeps one per procedure, so
  /// already-normal subterms are memo hits): runs \p T on a fresh step
  /// budget and returns \p T itself when that budget blows. A raw term is
  /// sound, only less canonical, so a blown budget can never count as a
  /// proof the normal form would not also give.
  const ATerm *normalizeOrRaw(const ATerm *T);

  /// Undecided conditions that blocked a rewrite, in first-encounter order.
  const std::vector<const ATerm *> &blockedGuards() const { return Guards; }

  uint64_t steps() const { return Steps; }

private:
  const ATerm *norm(const ATerm *T);
  /// One rewrite attempt at the root (kids already normal); returns the
  /// replacement or null when no rule applies. The replacement's subterms
  /// may need renormalization.
  const ATerm *rewriteRoot(const ATerm *T);

  const ATerm *rewriteAdd(const ATerm *T);
  const ATerm *rewriteMul(const ATerm *T);
  const ATerm *rewriteBool(const ATerm *T);
  const ATerm *rewriteBuiltin(const ATerm *T);
  const ATerm *rewriteMinMax(const ATerm *T, bool IsMin);

  void blockOn(const ATerm *Guard);
  bool budget() {
    return ++Steps <= Limits.MaxSteps;
  }

  TermFactory &F;
  const FactCtx &Ctx;
  NormLimits Limits;
  std::unordered_map<const ATerm *, const ATerm *> Memo;
  std::vector<const ATerm *> Guards;
  std::unordered_set<const ATerm *> GuardSet;
  uint64_t Steps = 0;
  bool Blown = false;
};

} // namespace absint
} // namespace commcsl

#endif // COMMCSL_ABSINT_NORMALIZE_H
