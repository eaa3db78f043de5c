//===-- tests/absint/AbsintTest.cpp - Differencing tier unit tests ---------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the differencing abstract interpreter (DESIGN §13): the
/// term normalizer, the difference-domain fact store, and the per-spec
/// obligation analysis. The end-to-end wiring into the validity checker is
/// covered by rspec/ValidityTest.cpp; cross-tier agreement by the property
/// suite there.
///
//===----------------------------------------------------------------------===//

#include "absint/Differencing.h"
#include "absint/TermIO.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::absint;
using namespace commcsl::test;

namespace {

/// Parses a one-spec program and runs the differencing analysis on it.
SpecAbsResult analyze(const std::string &Source, AbsOptions Opts = {}) {
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(parseChecked(Source)));
  Program &P = *Keep.back();
  EXPECT_EQ(P.Specs.size(), 1u);
  return analyzeSpec(P.Specs[0], &P, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Normalizer
//===----------------------------------------------------------------------===//

TEST(AbsintNormalizeTest, AddIsFlattenedSortedAndFolded) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *X = F.sym("x"), *Y = F.sym("y");
  // (x + 2) + (y + 3) and 5 + (y + x) must meet in one normal form.
  const ATerm *A =
      F.add2(F.add2(X, F.intConst(2)), F.add2(Y, F.intConst(3)));
  const ATerm *B = F.add2(F.intConst(5), F.add2(Y, X));
  EXPECT_EQ(N.normalize(A), N.normalize(B));
}

TEST(AbsintNormalizeTest, SubtractionCancels) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *X = F.sym("x");
  // x + (-1)*x == 0
  const ATerm *T = F.add2(X, F.mul2(F.intConst(-1), X));
  EXPECT_TRUE(N.normalize(T)->isInt(0));
}

TEST(AbsintNormalizeTest, MultisetAddsCommute) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *M = F.sym("m"), *X = F.sym("x"), *Y = F.sym("y");
  auto MsAdd = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::MsAdd, {B, E});
  };
  EXPECT_EQ(N.normalize(MsAdd(MsAdd(M, X), Y)),
            N.normalize(MsAdd(MsAdd(M, Y), X)));
}

TEST(AbsintNormalizeTest, SeqToMsHomomorphism) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x"), *Y = F.sym("y");
  auto App = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::SeqAppend, {B, E});
  };
  auto ToMs = [&](const ATerm *T) { return F.bi(BuiltinKind::SeqToMs, {T}); };
  EXPECT_EQ(N.normalize(ToMs(App(App(S, X), Y))),
            N.normalize(ToMs(App(App(S, Y), X))));
}

TEST(AbsintNormalizeTest, SeqSumHasNoAppendRule) {
  // sum() saturates concretely, so the normalizer must NOT treat it as a
  // homomorphism — both orders stay stuck (and distinct from plain sums).
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x");
  const ATerm *T = F.bi(
      BuiltinKind::SeqSum, {F.bi(BuiltinKind::SeqAppend, {S, X})});
  const ATerm *NT = N.normalize(T);
  ASSERT_NE(NT, nullptr);
  EXPECT_EQ(NT, T) << NT->str();
}

TEST(AbsintNormalizeTest, MapPutsReorderUnderDisequality) {
  TermFactory F;
  FactCtx Ctx(F);
  const ATerm *M = F.sym("m"), *K1 = F.sym("k1"), *K2 = F.sym("k2");
  Ctx.addDiseq(K1, K2);
  Normalizer N(F, Ctx);
  auto Put = [&](const ATerm *Mp, const ATerm *K, const ATerm *V) {
    return F.bi(BuiltinKind::MapPut, {Mp, K, V});
  };
  const ATerm *V1 = F.intConst(1), *V2 = F.intConst(2);
  EXPECT_EQ(N.normalize(Put(Put(M, K1, V1), K2, V2)),
            N.normalize(Put(Put(M, K2, V2), K1, V1)));
}

TEST(AbsintNormalizeTest, UndecidedKeyEqualityBecomesBlockedGuard) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *M = F.sym("m"), *K1 = F.sym("k1"), *K2 = F.sym("k2");
  const ATerm *T = F.bi(
      BuiltinKind::MapGet,
      {F.bi(BuiltinKind::MapPut, {M, K1, F.intConst(7)}), K2});
  N.normalize(T);
  ASSERT_FALSE(N.blockedGuards().empty());
  EXPECT_EQ(N.blockedGuards()[0], F.eq(K1, K2));
}

TEST(AbsintNormalizeTest, IntervalFactsDecideKeyOrder) {
  // fst splits with sign information (the DisjointMap pattern): k1 < 0 and
  // k2 >= 0 makes the keys provably distinct.
  TermFactory F;
  FactCtx Ctx(F);
  const ATerm *K1 = F.sym("k1"), *K2 = F.sym("k2");
  ASSERT_TRUE(Ctx.addBool(F.app(AOp::Lt, {K1, F.intConst(0)}), true));
  ASSERT_TRUE(Ctx.addBool(F.app(AOp::Le, {F.intConst(0), K2}), true));
  EXPECT_EQ(Ctx.decideEq(K1, K2), Tri::False);
}

TEST(AbsintNormalizeTest, SortIsAFunctionOfTheElementMultiset) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s"), *X = F.sym("x"), *Y = F.sym("y");
  auto App = [&](const ATerm *B, const ATerm *E) {
    return F.bi(BuiltinKind::SeqAppend, {B, E});
  };
  auto Sort = [&](const ATerm *T) { return F.bi(BuiltinKind::SeqSort, {T}); };
  EXPECT_EQ(N.normalize(Sort(App(App(S, X), Y))),
            N.normalize(Sort(App(App(S, Y), X))));
}

TEST(AbsintNormalizeTest, SeqSumHasNoConcatRuleButFoldsGroundSequences) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *A = F.sym("a"), *B = F.sym("b");
  const ATerm *T =
      F.bi(BuiltinKind::SeqSum, {F.bi(BuiltinKind::SeqConcat, {A, B})});
  EXPECT_EQ(N.normalize(T), T);
  // A ground sequence folds through vops::seqSum, saturating.
  const ATerm *Ground = F.bi(
      BuiltinKind::SeqSum,
      {F.bi(BuiltinKind::SeqAppend,
            {F.bi(BuiltinKind::SeqAppend,
                  {F.bi(BuiltinKind::SeqEmpty, {}), F.intConst(INT64_MAX)}),
             F.intConst(1)})});
  EXPECT_TRUE(N.normalize(Ground)->isInt(INT64_MAX));
}

TEST(AbsintNormalizeTest, StrictComparisonsShareTheirNegationsAtom) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *X = F.sym("x"), *Y = F.sym("y");
  const ATerm *Le = F.app(AOp::Le, {Y, X});
  EXPECT_EQ(N.normalize(F.app(AOp::Lt, {X, Y})), F.notT(Le));
  EXPECT_EQ(N.normalize(F.notT(F.app(AOp::Lt, {X, Y}))), Le);
  // No De Morgan: a negated conjunction keeps the conjunction as a subterm.
  const ATerm *Conj = F.app(AOp::And, {X, Y});
  EXPECT_EQ(N.normalize(F.notT(Conj)), F.notT(Conj));
}

TEST(AbsintNormalizeTest, OrdersAreDecidedOnlyWithoutWrapAround) {
  // Ints wrap: h + 1 is below h at h = INT64_MAX. Under no facts the
  // difference (h + 1) - h = 1 must not decide the order, so max(h, h + 1)
  // keeps both operands; a bound that rules out the wrap lets it fold.
  TermFactory F;
  FactCtx NoFacts(F);
  Normalizer N(F, NoFacts);
  const ATerm *H = F.sym("h");
  const ATerm *H1 = N.normalize(F.add2(H, F.intConst(1)));
  EXPECT_EQ(NoFacts.decideCmp(H, H1, /*Strict=*/false), Tri::Unknown);
  EXPECT_EQ(NoFacts.decideCmp(H1, H1, /*Strict=*/false), Tri::True);
  EXPECT_EQ(NoFacts.decideCmp(H1, H1, /*Strict=*/true), Tri::False);
  const ATerm *Max = N.normalize(F.bi(BuiltinKind::Max, {H, H1}));
  ASSERT_EQ(Max->K, AOp::Bi);
  EXPECT_EQ(Max->B, BuiltinKind::Max);
  EXPECT_EQ(Max->Kids.size(), 2u);
  EXPECT_FALSE(N.normalize(F.app(AOp::Le, {H, H1}))->isConst());
  EXPECT_EQ(N.normalize(F.bi(BuiltinKind::Min, {H1, H1})), H1);
  // Atoms are int64 values, so comparisons with the extremes are decided.
  EXPECT_EQ(NoFacts.decideCmp(F.intConst(INT64_MIN), H, false), Tri::True);
  EXPECT_EQ(NoFacts.decideCmp(H, F.intConst(INT64_MAX), true), Tri::Unknown);

  FactCtx Bounded(F);
  ASSERT_TRUE(Bounded.addBool(F.app(AOp::Le, {H, F.intConst(100)}), true));
  Normalizer NB(F, Bounded);
  EXPECT_EQ(Bounded.decideCmp(H, H1, /*Strict=*/true), Tri::True);
  EXPECT_EQ(NB.normalize(F.bi(BuiltinKind::Max, {H, H1})), H1);
  EXPECT_EQ(NB.normalize(F.bi(BuiltinKind::Min, {H, H1})), H);
}

TEST(AbsintNormalizeTest, DeclassifyAndSortRules) {
  TermFactory F;
  FactCtx Ctx(F);
  Normalizer N(F, Ctx);
  const ATerm *S = F.sym("s");
  EXPECT_EQ(N.normalize(F.bi(BuiltinKind::Declassify, {S})), S);
  EXPECT_EQ(N.normalize(F.bi(BuiltinKind::SeqSort, {S})),
            F.bi(BuiltinKind::MsToSeq, {F.bi(BuiltinKind::SeqToMs, {S})}));
  // card(seq_to_mset(s)) is len(s).
  EXPECT_EQ(N.normalize(F.bi(BuiltinKind::MsCard,
                             {F.bi(BuiltinKind::SeqToMs, {S})})),
            F.bi(BuiltinKind::SeqLen, {S}));
}

//===----------------------------------------------------------------------===//
// Terms
//===----------------------------------------------------------------------===//

TEST(AbsintTermTest, FreshSymbolsAreDistinctAndOrderedAfterNamedOnes) {
  TermFactory F;
  const ATerm *A = F.freshSym("x");
  const ATerm *B = F.freshSym("x");
  const ATerm *Named = F.sym("x");
  EXPECT_NE(A, B);
  EXPECT_NE(A, Named);
  EXPECT_LT(ATerm::compare(A, B), 0);
  EXPECT_LT(ATerm::compare(Named, A), 0);
  EXPECT_EQ(A->str(), "x#0");
  // Ids are dense creation indices.
  EXPECT_EQ(A->Id, 0u);
  EXPECT_EQ(B->Id, 1u);
  EXPECT_EQ(Named->Id, 2u);
}

TEST(AbsintTermTest, ValueConstantsRoundTripThroughTermIO) {
  TermFactory F, G;
  ValueRef Map = ValueFactory::map(
      {{iv(1), sv({2, 3})}, {iv(4), ValueFactory::emptySeq()}});
  const ATerm *T = F.bi(
      BuiltinKind::PairMk,
      {F.constant(Map),
       F.bi(BuiltinKind::MsAdd,
            {F.constant(msv({1, 1})),
             F.constant(pv(ValueFactory::stringV("a\"b"),
                           ValueFactory::set({bv(true), bv(false)})))})});
  std::string Text = printTerm(T);
  EXPECT_EQ(Text, "(pair (#map 1 (#seq 2 3) 4 (#seq)) (mset_add (#mset 1 1) "
                  "(#pair \"a\\\"b\" (#set #f #t))))");
  const ATerm *Back = parseTerm(G, Text);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(printTerm(Back), Text);
  EXPECT_EQ(ATerm::compare(Back, T), 0);
  EXPECT_EQ(parseTerm(G, "(#pair 1)"), nullptr);
  EXPECT_EQ(parseTerm(G, "(#seq x)"), nullptr);
}

//===----------------------------------------------------------------------===//
// Per-spec analysis
//===----------------------------------------------------------------------===//

TEST(AbsintSpecTest, CounterIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
  ASSERT_EQ(R.Actions.size(), 1u);
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_EQ(R.Actions[0].Pre, ObStatus::Proved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Proved);
}

TEST(AbsintSpecTest, MapKeySetIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
}

TEST(AbsintSpecTest, GhostSumPairIsProvedUnbounded) {
  // The debt_sum shape: raw list plus ghost wrap-add sum, alpha = snd.
  SpecAbsResult R = analyze(R"(
    resource DebtList {
      state: pair<seq<pair<int, int>>, int>;
      alpha(v) = snd(v);
      shared action Append(a: pair<int, int>) {
        apply(v, a) = pair(append(fst(v), a), snd(v) + snd(a));
        requires low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
  // alpha = snd(v) is a single component, so the template uses slot 0.
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_TRUE(mentionsSym(R.Actions[0].U, slotSymName(0)))
      << R.Actions[0].U->str();
}

TEST(AbsintSpecTest, CountMapWithGetOrIsProvedUnbounded) {
  // The count_purchases shape: per-key counters via map_get_or.
  SpecAbsResult R = analyze(R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
  EXPECT_GT(R.Splits, 0u); // needs genuine key-equality case splits
}

TEST(AbsintSpecTest, Figure1AssignIsRefuted) {
  // Fig. 1: plain assignment does not commute modulo identity alpha.
  SpecAbsResult R = analyze(R"(
    resource Cell {
      state: int;
      alpha(v) = v;
      shared action Assign(a: int) {
        apply(v, a) = a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_FALSE(R.AllProved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Refuted);
  // The A' obligation still holds: low(a) forces equal arguments.
  EXPECT_EQ(R.Actions[0].Pre, ObStatus::Proved);
}

TEST(AbsintSpecTest, HighArgumentWithoutLowPreIsNotLowPreserving) {
  // No `low(a)` precondition: two runs may add different arguments, so
  // alpha equality is not preserved — A' must not be proved.
  SpecAbsResult R = analyze(R"(
    resource FreeAdd {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_NE(R.Actions[0].Pre, ObStatus::Proved);
  // Commutativity itself is fine (wrap-add commutes).
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Proved);
}

TEST(AbsintSpecTest, SaturatingSumAlphaStaysInconclusive) {
  // alpha goes through sum(), whose concrete fold saturates: the tier must
  // refuse to prove it (there is no sound append-homomorphism rule).
  SpecAbsResult R = analyze(R"(
    resource SumList {
      state: seq<int>;
      alpha(v) = sum(v);
      shared action Push(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_FALSE(R.AllProved);
  EXPECT_EQ(R.Pairs[0].Comm, ObStatus::Inconclusive);
}

TEST(AbsintSpecTest, MultisetAbstractionIsProvedUnbounded) {
  SpecAbsResult R = analyze(R"(
    resource EventList {
      state: seq<int>;
      alpha(v) = seq_to_mset(v);
      shared action Log(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved);
}

TEST(AbsintSpecTest, MaxMapIsProvedUnbounded) {
  // The max_map shape: keep the per-key maximum.
  SpecAbsResult R = analyze(R"(
    resource MaxMap {
      state: map<int, int>;
      alpha(v) = v;
      shared action PutMax(a: pair<int, int>) {
        apply(v, a) =
          map_put(v, fst(a), max(map_get_or(v, fst(a), snd(a)), snd(a)));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.AllProved) << "pre=" << obStatusName(R.Actions[0].Pre)
                           << " comm=" << obStatusName(R.Pairs[0].Comm);
}

TEST(AbsintSpecTest, UniqueSelfPairsAreSkipped) {
  SpecAbsResult R = analyze(R"(
    resource Once {
      state: int;
      alpha(v) = v;
      unique action Set(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )");
  ASSERT_TRUE(R.Applicable);
  EXPECT_TRUE(R.Pairs.empty());
  EXPECT_TRUE(R.AllProved);
}

TEST(AbsintSpecTest, AnalysisIsDeterministic) {
  const char *Source = R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )";
  SpecAbsResult A = analyze(Source);
  SpecAbsResult B = analyze(Source);
  ASSERT_EQ(A.Actions.size(), B.Actions.size());
  ASSERT_NE(A.Actions[0].U, nullptr);
  ASSERT_NE(B.Actions[0].U, nullptr);
  // Distinct factories, identical structure.
  EXPECT_EQ(A.Actions[0].U->str(), B.Actions[0].U->str());
  EXPECT_EQ(A.Splits, B.Splits);
  EXPECT_EQ(A.RewriteSteps, B.RewriteSteps);
}

TEST(AbsintSpecTest, ReplayAcceptsRecordedTreesAndRejectsTruncation) {
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(parseChecked(R"(
    resource PurchaseCounts {
      state: map<int, int>;
      alpha(v) = v;
      shared action AddCount(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), map_get_or(v, fst(a), 0) + snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )")));
  Program &P = *Keep.back();
  SpecAbsResult R = analyzeSpec(P.Specs[0], &P);
  ASSERT_TRUE(R.AllProved);
  ASSERT_EQ(R.Pairs.size(), 1u);
  ASSERT_NE(R.Pairs[0].Tree, nullptr);
  ASSERT_NE(R.Pairs[0].Tree->Guard, nullptr); // the proof needed splits

  TermFactory &F = *R.Factory;
  const ActionDecl &Act = P.Specs[0].Actions[0];
  const ATerm *L = nullptr, *Rt = nullptr;
  ASSERT_TRUE(buildCommObligation(F, P.Specs[0], &P, Act, Act, F.sym(argSymA()),
                                  F.sym(argSymB()), L, Rt));
  FactCtx Ctx(F);
  addUnaryPreFacts(Ctx, F, &P, Act, F.sym(argSymA()));
  addUnaryPreFacts(Ctx, F, &P, Act, F.sym(argSymB()));
  EXPECT_TRUE(replaySplitTree(F, L, Rt, Ctx, R.Pairs[0].Tree.get(), {}));

  // A truncated tree (bare leaf where splits are needed) must not check.
  SplitNode Leaf;
  EXPECT_FALSE(replaySplitTree(F, L, Rt, Ctx, &Leaf, {}));
}

TEST(AbsintSpecTest, InjectUnsoundCorruptsTemplateButNotVerdicts) {
  AbsOptions Opts;
  Opts.InjectUnsound = true;
  SpecAbsResult R = analyze(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                            Opts);
  ASSERT_TRUE(R.AllProved); // proof ran against the real template
  ASSERT_NE(R.Actions[0].U, nullptr);
  EXPECT_TRUE(R.Actions[0].U->isInt(42)); // ...but the record is corrupted
}
