//===-- absint/Domain.cpp - Difference-domain product ----------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "absint/Domain.h"

#include <algorithm>

using namespace commcsl;
using namespace commcsl::absint;

//===----------------------------------------------------------------------===//
// Interval
//===----------------------------------------------------------------------===//

namespace {

/// Saturating add for interval endpoints (mathematical integers, so the
/// abstraction saturates rather than wraps; a saturated bound is only ever
/// *widened*, never tightened, which keeps it sound).
int64_t satAdd(int64_t A, int64_t B) {
  if (B > 0 && A > INT64_MAX - B)
    return INT64_MAX;
  if (B < 0 && A < INT64_MIN - B)
    return INT64_MIN;
  return A + B;
}

bool mulOverflows(int64_t A, int64_t B, int64_t &Out) {
  return __builtin_mul_overflow(A, B, &Out);
}

} // namespace

bool Interval::meet(const Interval &O) {
  if (!O.LoInf && (LoInf || O.Lo > Lo)) {
    LoInf = false;
    Lo = O.Lo;
  }
  if (!O.HiInf && (HiInf || O.Hi < Hi)) {
    HiInf = false;
    Hi = O.Hi;
  }
  return LoInf || HiInf || Lo <= Hi;
}

void Interval::join(const Interval &O) {
  if (O.LoInf || (!LoInf && O.Lo < Lo)) {
    LoInf = O.LoInf;
    Lo = O.Lo;
  }
  if (O.HiInf || (!HiInf && O.Hi > Hi)) {
    HiInf = O.HiInf;
    Hi = O.Hi;
  }
}

void Interval::widen(const Interval &Prev) {
  if (!Prev.LoInf && (LoInf || Lo < Prev.Lo))
    LoInf = true;
  if (!Prev.HiInf && (HiInf || Hi > Prev.Hi))
    HiInf = true;
}

Interval Interval::add(const Interval &A, const Interval &B) {
  Interval R;
  R.LoInf = A.LoInf || B.LoInf;
  R.HiInf = A.HiInf || B.HiInf;
  if (!R.LoInf)
    R.Lo = satAdd(A.Lo, B.Lo);
  if (!R.HiInf)
    R.Hi = satAdd(A.Hi, B.Hi);
  return R;
}

Interval Interval::negate(const Interval &A) {
  Interval R;
  R.LoInf = A.HiInf;
  R.HiInf = A.LoInf;
  if (!R.LoInf)
    R.Lo = A.Hi == INT64_MIN ? INT64_MAX : -A.Hi;
  if (!R.HiInf)
    R.Hi = A.Lo == INT64_MIN ? INT64_MAX : -A.Lo;
  return R;
}

Interval Interval::mulConst(const Interval &A, int64_t C) {
  if (C == 0)
    return point(0);
  Interval Base = C < 0 ? negate(A) : A;
  int64_t M = C < 0 ? (C == INT64_MIN ? INT64_MAX : -C) : C;
  Interval R;
  R.LoInf = Base.LoInf;
  R.HiInf = Base.HiInf;
  int64_t P;
  if (!R.LoInf) {
    if (mulOverflows(Base.Lo, M, P))
      R.LoInf = true;
    else
      R.Lo = P;
  }
  if (!R.HiInf) {
    if (mulOverflows(Base.Hi, M, P))
      R.HiInf = true;
    else
      R.Hi = P;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Linear forms
//===----------------------------------------------------------------------===//

void LinForm::add(const LinForm &O, int64_t Scale) {
  Const += static_cast<int64_t>(static_cast<uint64_t>(O.Const) *
                                static_cast<uint64_t>(Scale));
  for (const auto &[Atom, C] : O.Coeffs) {
    int64_t Inc = static_cast<int64_t>(static_cast<uint64_t>(C) *
                                       static_cast<uint64_t>(Scale));
    int64_t &Slot = Coeffs[Atom];
    Slot = static_cast<int64_t>(static_cast<uint64_t>(Slot) +
                                static_cast<uint64_t>(Inc));
    if (Slot == 0)
      Coeffs.erase(Atom);
  }
}

LinForm commcsl::absint::linearize(TermFactory &F, const ATerm *T) {
  LinForm L;
  switch (T->K) {
  case AOp::Const:
    if (!T->isIntConst())
      break;
    L.Const = T->intVal();
    return L;
  case AOp::Add:
    for (const ATerm *Kid : T->Kids)
      L.add(linearize(F, Kid), 1);
    return L;
  case AOp::Mul: {
    // Canonical Mul keeps a constant factor first when present.
    const auto &K = T->Kids;
    if (K.size() >= 2 && K[0]->isIntConst()) {
      const ATerm *Rest =
          K.size() == 2
              ? K[1]
              : F.app(AOp::Mul, std::vector<const ATerm *>(K.begin() + 1,
                                                           K.end()));
      L.add(linearize(F, Rest), K[0]->intVal());
      return L;
    }
    if (K.size() == 2 && K[1]->isIntConst()) {
      L.add(linearize(F, K[0]), K[1]->intVal());
      return L;
    }
    break;
  }
  default:
    break;
  }
  L.Coeffs[T] = 1;
  return L;
}

//===----------------------------------------------------------------------===//
// FactCtx
//===----------------------------------------------------------------------===//

const ATerm *FactCtx::rewriteOf(const ATerm *T) const {
  auto It = Rewrites.find(T);
  return It == Rewrites.end() ? nullptr : It->second;
}

std::optional<bool> FactCtx::boolFact(const ATerm *T) const {
  auto It = BoolFacts.find(T);
  if (It == BoolFacts.end())
    return std::nullopt;
  return It->second;
}

bool FactCtx::addEq(const ATerm *A, const ATerm *B) {
  if (A == B)
    return true;
  if (decideEq(A, B) == Tri::False) {
    Infeasible = true;
    return false;
  }
  // Orient: structurally larger side rewrites to the smaller one. Chains
  // are flattened through existing rewrites where possible.
  if (const ATerm *R = rewriteOf(A))
    A = R;
  if (const ATerm *R = rewriteOf(B))
    B = R;
  if (A == B)
    return true;
  const ATerm *From = A, *To = B;
  if (ATerm::compare(From, To) < 0)
    std::swap(From, To);
  Rewrites[From] = To;
  // Numeric content: from == to, i.e. from - to ∈ [0, 0].
  LinForm D = linearize(F, From);
  D.add(linearize(F, To), -1);
  if (!D.isConst()) {
    LinForm Neg;
    Neg.add(D, -1);
    LeZero.push_back(D);   // from - to <= 0
    LeZero.push_back(Neg); // to - from <= 0
    propagate();
  } else if (D.Const != 0) {
    Infeasible = true;
    return false;
  }
  return true;
}

void FactCtx::addDiseq(const ATerm *A, const ATerm *B) {
  if (ATerm::compare(A, B) > 0)
    std::swap(A, B);
  Diseqs.emplace_back(A, B);
}

bool FactCtx::addBool(const ATerm *T, bool Truth) {
  // Push negations inward so the stored fact is positive.
  if (T->K == AOp::Not)
    return addBool(T->Kids[0], !Truth);
  if (T->isConst()) {
    if (!T->isBool(Truth))
      Infeasible = true;
    return !Infeasible;
  }
  if (T->K == AOp::And && Truth) {
    for (const ATerm *Kid : T->Kids)
      if (!addBool(Kid, true))
        return false;
    return true;
  }
  if (T->K == AOp::Or && !Truth) {
    for (const ATerm *Kid : T->Kids)
      if (!addBool(Kid, false))
        return false;
    return true;
  }
  auto Existing = BoolFacts.find(T);
  if (Existing != BoolFacts.end() && Existing->second != Truth) {
    Infeasible = true;
    return false;
  }
  BoolFacts[T] = Truth;
  if (T->K == AOp::Eq)
    return Truth ? addEq(T->Kids[0], T->Kids[1])
                 : (addDiseq(T->Kids[0], T->Kids[1]), true);
  if (T->K == AOp::Lt || T->K == AOp::Le) {
    // A < B  ==  A - B <= -1;  A <= B  ==  A - B <= 0. Negations flip.
    const ATerm *A = T->Kids[0], *B = T->Kids[1];
    bool Strict = T->K == AOp::Lt;
    LinForm D;
    if (Truth) {
      D = linearize(F, A);
      D.add(linearize(F, B), -1);
      D.Const = satAdd(D.Const, Strict ? 1 : 0); // A - B + strict <= 0
    } else {
      // !(A < B) == B <= A;  !(A <= B) == B < A.
      D = linearize(F, B);
      D.add(linearize(F, A), -1);
      D.Const = satAdd(D.Const, Strict ? 0 : 1);
    }
    if (D.isConst()) {
      if (D.Const > 0) {
        Infeasible = true;
        return false;
      }
      return true;
    }
    LeZero.push_back(std::move(D));
    propagate();
  }
  return !Infeasible;
}

Interval FactCtx::boundOf(const ATerm *Atom) const {
  if (Atom->isIntConst())
    return Interval::point(Atom->intVal());
  auto It = Bounds.find(Atom);
  return It == Bounds.end() ? Interval::top() : It->second;
}

std::optional<Interval> FactCtx::diffBound(const ATerm *A,
                                           const ATerm *B) const {
  bool Flip = ATerm::compare(A, B) > 0;
  if (Flip)
    std::swap(A, B);
  auto It = Diffs.find({A, B});
  if (It == Diffs.end())
    return std::nullopt;
  return Flip ? Interval::negate(It->second) : It->second;
}

void FactCtx::propagate() {
  // Fixpoint over the <=0 constraint store. Each sweep tightens atom
  // intervals (single-atom residue) and pairwise difference intervals
  // (two-atom ±1 residue). After `WidenAfter` sweeps, any bound still in
  // motion is widened to infinity, so the loop terminates on every input.
  constexpr unsigned WidenAfter = 3;
  constexpr unsigned HardCap = 16;
  for (unsigned Sweep = 0; Sweep < HardCap; ++Sweep) {
    bool Changed = false;
    auto PrevBounds = Bounds;
    auto PrevDiffs = Diffs;
    for (const LinForm &L : LeZero) {
      // For each atom a with coefficient c: c*a <= -(const + rest-min).
      for (const auto &[Atom, C] : L.Coeffs) {
        if (C != 1 && C != -1)
          continue; // octagon fragment only
        // rest = const + Σ other terms; bound rest from below.
        Interval Rest = Interval::point(L.Const);
        bool RestKnown = true;
        for (const auto &[OA, OC] : L.Coeffs) {
          if (OA == Atom)
            continue;
          Interval AV = boundOf(OA);
          Interval Scaled = Interval::mulConst(AV, OC);
          Rest = Interval::add(Rest, Scaled);
          if (Rest.LoInf && Rest.HiInf)
            RestKnown = false;
        }
        (void)RestKnown;
        Interval Tight = Interval::top();
        if (C == 1) {
          // a <= -rest  -> upper bound from rest's lower bound.
          if (!Rest.LoInf)
            Tight = Interval::atMost(Rest.Lo == INT64_MIN ? INT64_MAX
                                                          : -Rest.Lo);
        } else {
          // -a + rest <= 0  ->  a >= rest's lower bound.
          if (!Rest.LoInf)
            Tight = Interval::atLeast(Rest.Lo);
        }
        if (Tight.LoInf && Tight.HiInf)
          continue;
        Interval &Slot =
            Bounds.emplace(Atom, Interval::top()).first->second;
        Interval Before = Slot;
        if (!Slot.meet(Tight)) {
          Infeasible = true;
          return;
        }
        if (!(Slot == Before))
          Changed = true;
      }
      // Two-atom ±1 differences feed the octagon store.
      if (L.Coeffs.size() == 2) {
        auto It = L.Coeffs.begin();
        auto [A1, C1] = *It++;
        auto [A2, C2] = *It;
        if (C1 == 1 && C2 == -1) {
          // A1 - A2 <= -Const.
          Interval &Slot =
              Diffs.emplace(std::make_pair(A1, A2), Interval::top())
                  .first->second;
          Interval Before = Slot;
          if (!Slot.meet(Interval::atMost(
                  L.Const == INT64_MIN ? INT64_MAX : -L.Const))) {
            Infeasible = true;
            return;
          }
          if (!(Slot == Before))
            Changed = true;
        } else if (C1 == -1 && C2 == 1) {
          Interval &Slot =
              Diffs.emplace(std::make_pair(A1, A2), Interval::top())
                  .first->second;
          Interval Before = Slot;
          if (!Slot.meet(Interval::atLeast(L.Const))) {
            Infeasible = true;
            return;
          }
          if (!(Slot == Before))
            Changed = true;
        }
      }
    }
    if (!Changed)
      return;
    if (Sweep + 1 >= WidenAfter) {
      // Widen: any interval that moved this sweep loses its moving bounds.
      for (auto &[Atom, Iv] : Bounds) {
        auto It = PrevBounds.find(Atom);
        if (It != PrevBounds.end() && !(Iv == It->second)) {
          Iv.widen(It->second);
          ++Widenings;
        }
      }
      for (auto &[Pair, Iv] : Diffs) {
        auto It = PrevDiffs.find(Pair);
        if (It != PrevDiffs.end() && !(Iv == It->second)) {
          Iv.widen(It->second);
          ++Widenings;
        }
      }
    }
  }
}

AbsVal FactCtx::absOfLin(const LinForm &L) const {
  AbsVal V;
  V.Iv = Interval::point(L.Const);
  V.Par = Parity::of(L.Const);
  for (const auto &[Atom, C] : L.Coeffs) {
    Interval AV = boundOf(Atom);
    V.Iv = Interval::add(V.Iv, Interval::mulConst(AV, C));
    Parity AP = Parities.count(Atom) ? Parities.at(Atom) : Parity::top();
    if (AV.isPoint())
      AP = Parity::of(AV.Lo);
    V.Par = Parity::add(V.Par, Parity::mulConst(AP, C));
  }
  return V;
}

AbsVal FactCtx::absOf(const ATerm *T) const {
  return absOfLin(linearize(F, T));
}

Tri FactCtx::decideEq(const ATerm *A, const ATerm *B) const {
  if (A == B)
    return Tri::True;
  // Recorded rewrites identify terms.
  const ATerm *RA = rewriteOf(A), *RB = rewriteOf(B);
  if ((RA ? RA : A) == (RB ? RB : B))
    return Tri::True;
  // Distinct constants.
  if (A->isConst() && B->isConst())
    return triOf(Value::equal(A->Val, B->Val));
  // Pair congruence: equal iff both components equal.
  if (A->K == AOp::Bi && B->K == AOp::Bi &&
      A->B == BuiltinKind::PairMk && B->B == BuiltinKind::PairMk) {
    Tri L = decideEq(A->Kids[0], B->Kids[0]);
    Tri R = decideEq(A->Kids[1], B->Kids[1]);
    if (L == Tri::False || R == Tri::False)
      return Tri::False;
    if (L == Tri::True && R == Tri::True)
      return Tri::True;
    return Tri::Unknown;
  }
  // Recorded disequalities.
  {
    const ATerm *X = A, *Y = B;
    if (ATerm::compare(X, Y) > 0)
      std::swap(X, Y);
    for (const auto &[DA, DB] : Diseqs)
      if (DA == X && DB == Y)
        return Tri::False;
  }
  // Numeric difference: interval excluding zero, or odd parity.
  LinForm D = linearize(F, A);
  D.add(linearize(F, B), -1);
  if (D.isConst())
    return triOf(D.Const == 0);
  // Octagon lookup for a pure two-atom difference.
  if (D.Coeffs.size() == 2) {
    auto It = D.Coeffs.begin();
    auto [A1, C1] = *It++;
    auto [A2, C2] = *It;
    if (C1 == 1 && C2 == -1) {
      if (auto DB = diffBound(A1, A2)) {
        Interval Sum = Interval::add(*DB, Interval::point(D.Const));
        if (!Sum.contains(0))
          return Tri::False;
        if (Sum.isPoint() && Sum.Lo == 0)
          return Tri::True;
      }
    }
  }
  AbsVal V = absOfLin(D);
  if (!V.Iv.contains(0))
    return Tri::False;
  if (V.Iv.isPoint() && V.Iv.Lo == 0)
    return Tri::True;
  if (V.Par.excludesZero())
    return Tri::False;
  return Tri::Unknown;
}

namespace {

/// An interval over 128-bit integers: linear forms over int64 atoms are
/// evaluated here without overflow. A product bound beyond +-2^100 counts
/// as unbounded, which keeps every sum of such products far from overflow.
struct WideIv {
  bool LoInf = false, HiInf = false;
  __int128 Lo = 0, Hi = 0;

  static constexpr __int128 Cap = static_cast<__int128>(1) << 100;

  void addScaled(const Interval &Iv, __int128 C) {
    bool NLoInf = C > 0 ? Iv.LoInf : Iv.HiInf;
    bool NHiInf = C > 0 ? Iv.HiInf : Iv.LoInf;
    __int128 NLo = C * (C > 0 ? Iv.Lo : Iv.Hi);
    __int128 NHi = C * (C > 0 ? Iv.Hi : Iv.Lo);
    LoInf = LoInf || NLoInf || NLo < -Cap || NLo > Cap;
    HiInf = HiInf || NHiInf || NHi < -Cap || NHi > Cap;
    if (!LoInf)
      Lo += NLo;
    if (!HiInf)
      Hi += NHi;
  }
};

using WideCoeffs =
    std::map<const ATerm *, __int128, bool (*)(const ATerm *, const ATerm *)>;

/// An int atom's value lies in int64 whatever the facts say.
Interval int64Bounds(Interval Iv) {
  Iv.meet({false, false, INT64_MIN, INT64_MAX});
  return Iv;
}

} // namespace

bool FactCtx::wrapFree(const LinForm &L) const {
  WideIv Iv{false, false, L.Const, L.Const};
  for (const auto &[Atom, C] : L.Coeffs)
    Iv.addScaled(int64Bounds(boundOf(Atom)), C);
  return !Iv.LoInf && !Iv.HiInf && Iv.Lo >= INT64_MIN && Iv.Hi <= INT64_MAX;
}

Tri FactCtx::decideCmp(const ATerm *A, const ATerm *B, bool Strict) const {
  // Ints wrap (vops::add), so a linear form equals its term only modulo
  // 2^64: `h + 1 <= h` holds at h = INT64_MAX. The difference A - B
  // decides the order only when neither side can wrap, that is when each
  // side's value over the integers is known to fit in int64 (then the
  // wrapped value is that value). A difference that is identically zero is
  // the exception: A and B are then equal as wrapped ints too.
  LinForm LA = linearize(F, A), LB = linearize(F, B);
  WideCoeffs D(LA.Coeffs.key_comp());
  for (const auto &[Atom, C] : LA.Coeffs)
    D[Atom] += C;
  for (const auto &[Atom, C] : LB.Coeffs)
    if ((D[Atom] -= C) == 0)
      D.erase(Atom);
  __int128 DConst = static_cast<__int128>(LA.Const) - LB.Const;
  if (D.empty() && DConst == 0)
    return triOf(!Strict);
  if (!wrapFree(LA) || !wrapFree(LB))
    return Tri::Unknown;
  WideIv Iv{false, false, DConst, DConst};
  std::optional<Interval> DB;
  if (D.size() == 2 && D.begin()->second == 1 &&
      std::next(D.begin())->second == -1)
    DB = diffBound(D.begin()->first, std::next(D.begin())->first);
  if (DB) {
    Iv.addScaled(*DB, 1);
  } else {
    for (const auto &[Atom, C] : D)
      Iv.addScaled(int64Bounds(boundOf(Atom)), C);
  }
  // A - B ∈ Iv; decide Iv vs 0.
  if (!Iv.HiInf && (Strict ? Iv.Hi < 0 : Iv.Hi <= 0))
    return Tri::True;
  if (!Iv.LoInf && (Strict ? Iv.Lo >= 0 : Iv.Lo > 0))
    return Tri::False;
  return Tri::Unknown;
}
