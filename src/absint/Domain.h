//===-- absint/Domain.h - Difference-domain product --------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric side of the differencing tier (DESIGN §13): an interval ×
/// parity product over integer-valued *atoms* (maximal uninterpreted
/// subterms such as `fst(x)` or a slot symbol), plus octagon-style
/// difference constraints `a - b ∈ [lo, hi]` between atom pairs. The
/// `FactCtx` accumulates the facts of one proof branch — term equalities
/// (oriented as rewrites), disequalities, and boolean facts whose numeric
/// content is compiled into the constraint store — and answers the three
/// questions the normalizer asks: is `t1 == t2` (Tri), is `t1 < / <= t2`
/// (Tri), and what is the abstract value of an integer term.
///
/// Constraint propagation runs to a fixpoint with widening: after a fixed
/// number of sweeps any still-moving bound is widened to its infinity,
/// which bounds the iteration count on any constraint system.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ABSINT_DOMAIN_H
#define COMMCSL_ABSINT_DOMAIN_H

#include "absint/Term.h"

#include <map>
#include <optional>

namespace commcsl {
namespace absint {

enum class Tri : uint8_t { False, True, Unknown };

inline Tri triOf(bool B) { return B ? Tri::True : Tri::False; }

/// Integer interval with explicit infinities. The difference tier reasons
/// in mathematical integers; concrete evaluation wraps at 2^64, so interval
/// conclusions are only trusted when the interval arithmetic itself never
/// overflows (operations saturate to infinity instead of wrapping).
struct Interval {
  bool LoInf = true, HiInf = true;
  int64_t Lo = 0, Hi = 0;

  static Interval top() { return {}; }
  static Interval point(int64_t V) { return {false, false, V, V}; }
  static Interval atLeast(int64_t V) { return {false, true, V, 0}; }
  static Interval atMost(int64_t V) { return {true, false, 0, V}; }

  bool isPoint() const { return !LoInf && !HiInf && Lo == Hi; }
  bool contains(int64_t V) const {
    return (LoInf || Lo <= V) && (HiInf || V <= Hi);
  }
  /// Meet; returns false when the result is empty (contradictory branch).
  bool meet(const Interval &O);
  void join(const Interval &O);
  /// Widening: bounds that moved outward versus \p Prev go to infinity.
  void widen(const Interval &Prev);

  static Interval add(const Interval &A, const Interval &B);
  static Interval negate(const Interval &A);
  static Interval mulConst(const Interval &A, int64_t C);

  bool operator==(const Interval &O) const {
    return LoInf == O.LoInf && HiInf == O.HiInf &&
           (LoInf || Lo == O.Lo) && (HiInf || Hi == O.Hi);
  }
};

/// Parity lattice: which residues mod 2 are possible.
struct Parity {
  bool Even = true, Odd = true;
  static Parity top() { return {}; }
  static Parity of(int64_t V) { return {(V & 1) == 0, (V & 1) != 0}; }
  static Parity add(Parity A, Parity B) {
    return {(A.Even && B.Even) || (A.Odd && B.Odd),
            (A.Even && B.Odd) || (A.Odd && B.Even)};
  }
  static Parity mulConst(Parity A, int64_t C) {
    if ((C & 1) == 0)
      return {true, false};
    return A;
  }
  bool excludesZero() const { return !Even; } // 0 is even
};

struct AbsVal {
  Interval Iv;
  Parity Par;
  static AbsVal top() { return {}; }
};

/// A linear form c0 + Σ ci·atom_i over interned atom terms. Coefficients
/// use wrap-around arithmetic like the concrete evaluator, so a form equals
/// its term modulo 2^64; over the integers it may differ (FactCtx::wrapFree).
struct LinForm {
  int64_t Const = 0;
  /// Atom -> coefficient, keyed and ordered structurally.
  std::map<const ATerm *, int64_t,
           bool (*)(const ATerm *, const ATerm *)>
      Coeffs{[](const ATerm *A, const ATerm *B) {
        return ATerm::compare(A, B) < 0;
      }};

  bool isConst() const { return Coeffs.empty(); }
  void add(const LinForm &O, int64_t Scale);
};

/// Linearizes an integer term: sums are decomposed, a product with a
/// constant factor (`c*t`, `t*c`, or `c*k1*...*kn`) scales the
/// linearization of the remaining factors, and everything else becomes an
/// atom with coefficient 1. The verifier's solver maps these atoms to
/// congruence classes; its decomposition must match the certificate
/// checker's over binary chains, which is why a constant on the right of a
/// binary (raw) product also counts.
LinForm linearize(TermFactory &F, const ATerm *T);

/// One proof branch's fact store.
class FactCtx {
public:
  explicit FactCtx(TermFactory &F) : F(F) {}

  /// Records `A == B`, oriented so the structurally larger side rewrites to
  /// the smaller (deterministic). Returns false on an immediate
  /// contradiction (branch infeasible).
  bool addEq(const ATerm *A, const ATerm *B);
  void addDiseq(const ATerm *A, const ATerm *B);
  /// Records a boolean term as true/false, compiling comparisons into the
  /// numeric store. Returns false on an immediate contradiction.
  bool addBool(const ATerm *T, bool Truth);

  /// The oriented rewrite for \p T, if an equality fact targets it.
  const ATerm *rewriteOf(const ATerm *T) const;
  /// Truth assignment for a boolean fact term, if any.
  std::optional<bool> boolFact(const ATerm *T) const;

  Tri decideEq(const ATerm *A, const ATerm *B) const;
  /// decideCmp(A, B, Strict): A < B (strict) or A <= B, as wrapped int64
  /// values. Unknown when the sides differ and one of them might wrap
  /// (see wrapFree).
  Tri decideCmp(const ATerm *A, const ATerm *B, bool Strict) const;

  AbsVal absOf(const ATerm *T) const;
  AbsVal absOfLin(const LinForm &L) const;

  /// Number of widening applications performed by propagation so far.
  uint64_t widenings() const { return Widenings; }
  bool infeasible() const { return Infeasible; }

  TermFactory &factory() const { return F; }

private:
  /// Re-runs constraint propagation to a (widened) fixpoint.
  void propagate();
  Interval boundOf(const ATerm *Atom) const;
  std::optional<Interval> diffBound(const ATerm *A, const ATerm *B) const;
  /// True when the term \p L linearizes is known to evaluate without
  /// wrapping: the form's value over the integers, with every atom in int64
  /// and within its fact bounds, fits in int64 (a constant or a bare atom
  /// always does).
  bool wrapFree(const LinForm &L) const;

  TermFactory &F;
  std::map<const ATerm *, const ATerm *> Rewrites; // larger -> smaller
  std::vector<std::pair<const ATerm *, const ATerm *>> Diseqs;
  std::map<const ATerm *, bool> BoolFacts;
  /// Interval per atom.
  std::map<const ATerm *, Interval> Bounds;
  /// Parity per atom.
  std::map<const ATerm *, Parity> Parities;
  /// Octagon-style: (a, b) -> interval of a - b, a < b structurally.
  std::map<std::pair<const ATerm *, const ATerm *>, Interval> Diffs;
  /// Raw comparison facts kept for propagation: L <= R + K (as linear
  /// forms ≤ 0 normalized: form <= 0).
  std::vector<LinForm> LeZero; ///< each recorded linear form is <= 0
  uint64_t Widenings = 0;
  bool Infeasible = false;
};

} // namespace absint
} // namespace commcsl

#endif // COMMCSL_ABSINT_DOMAIN_H
