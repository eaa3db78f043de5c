//===-- tests/solver/SolverTest.cpp - Term/solver unit tests ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier's view of the one term language: terms built and normalized
/// the way the verifier builds them (absint's factory and rewrite rules),
/// and the entailment solver over them.
///
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "absint/Differencing.h"
#include "tests/common/TermTestUtil.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {
class SolverFixture : public ::testing::Test {
protected:
  NormArena A;
  TermRef i(int64_t V) { return A.intConst(V); }
  TermRef sum(TermRef S) { return A.builtin(BuiltinKind::SeqSum, {S}); }
};
} // namespace

//===----------------------------------------------------------------------===//
// Term normalization
//===----------------------------------------------------------------------===//

TEST_F(SolverFixture, ConstantFolding) {
  EXPECT_EQ(A.add(i(2), i(3)), i(5));
  EXPECT_EQ(A.binary(BinaryOp::Mul, i(4), i(5)), i(20));
  EXPECT_EQ(A.binary(BinaryOp::Div, i(7), i(2)), i(3));
  EXPECT_TRUE(A.binary(BinaryOp::Lt, i(1), i(2))->isTrue());
  EXPECT_TRUE(A.binary(BinaryOp::Ge, i(2), i(2))->isTrue());
}

TEST_F(SolverFixture, AdditionIsACNormalized) {
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  // (x + 1) + (y + 2) == (y + (x + 3)) structurally after normalization.
  TermRef T1 = A.add(A.add(X, i(1)), A.add(Y, i(2)));
  TermRef T2 = A.add(Y, A.add(X, i(3)));
  EXPECT_EQ(T1, T2);
}

TEST_F(SolverFixture, SubtractionNormalizesToAddOfNegated) {
  TermRef X = A.freshSym("x");
  // (x + 5) - 5 == x.
  EXPECT_EQ(A.sub(A.add(X, i(5)), i(5)), X);
  // Sums collect like terms, so symbolic atoms cancel too.
  EXPECT_EQ(A.sub(X, X), i(0));
  EXPECT_EQ(A.add(X, X), A.binary(BinaryOp::Mul, i(2), X));
}

TEST_F(SolverFixture, ComparisonCanonicalization) {
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  // x < y is !(y <= x): a strict comparison and its negation share one
  // `<=` atom. (Rewriting it to x + 1 <= y would be unsound under the
  // wrap-around arithmetic of vops::add.)
  EXPECT_EQ(A.binary(BinaryOp::Lt, X, Y), A.logNot(A.le(Y, X)));
  EXPECT_EQ(A.binary(BinaryOp::Gt, Y, X), A.logNot(A.le(Y, X)));
  EXPECT_EQ(A.logNot(A.binary(BinaryOp::Lt, X, Y)), A.le(Y, X));
  // x >= y and y <= x too.
  EXPECT_EQ(A.binary(BinaryOp::Ge, X, Y), A.le(Y, X));
}

TEST_F(SolverFixture, DeclassifyIsTransparent) {
  TermRef X = A.freshSym("x");
  EXPECT_EQ(A.builtin(BuiltinKind::Declassify, {X}), X);
  EXPECT_EQ(A.builtin(BuiltinKind::Declassify, {A.add(X, i(1))}),
            A.add(i(1), X));
}

TEST_F(SolverFixture, PairProjection) {
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef P = A.builtin(BuiltinKind::PairMk, {X, Y});
  EXPECT_EQ(A.builtin(BuiltinKind::Fst, {P}), X);
  EXPECT_EQ(A.builtin(BuiltinKind::Snd, {P}), Y);
}

TEST_F(SolverFixture, SortIsMultisetCanonical) {
  TermRef S = A.freshSym("s");
  TermRef T = A.freshSym("t");
  // sort(s ++ [x]) where the multisets agree: sort(concat(s,t)) ==
  // sort(concat(t,s)) because seq_to_mset maps both to the same ms-union.
  TermRef L = A.builtin(BuiltinKind::SeqSort,
                        {A.builtin(BuiltinKind::SeqConcat, {S, T})});
  TermRef R = A.builtin(BuiltinKind::SeqSort,
                        {A.builtin(BuiltinKind::SeqConcat, {T, S})});
  EXPECT_EQ(L, R);
}

TEST_F(SolverFixture, LengthHomomorphism) {
  TermRef S = A.freshSym("s");
  TermRef X = A.freshSym("x");
  TermRef L = A.builtin(BuiltinKind::SeqLen,
                        {A.builtin(BuiltinKind::SeqAppend, {S, X})});
  EXPECT_EQ(L, A.add(A.builtin(BuiltinKind::SeqLen, {S}), i(1)));
}

TEST_F(SolverFixture, CardinalityOfMsUnion) {
  TermRef M1 = A.freshSym("m1");
  TermRef M2 = A.freshSym("m2");
  TermRef U = A.builtin(BuiltinKind::MsUnion, {M1, M2});
  TermRef C = A.builtin(BuiltinKind::MsCard, {U});
  EXPECT_EQ(C, A.add(A.builtin(BuiltinKind::MsCard, {M1}),
                     A.builtin(BuiltinKind::MsCard, {M2})));
}

TEST_F(SolverFixture, MsUnionIsCommutative) {
  TermRef M1 = A.freshSym("m1");
  TermRef M2 = A.freshSym("m2");
  EXPECT_EQ(A.builtin(BuiltinKind::MsUnion, {M1, M2}),
            A.builtin(BuiltinKind::MsUnion, {M2, M1}));
  // Empty multiset is the identity.
  TermRef Empty = A.constant(ValueFactory::emptyMultiset());
  EXPECT_EQ(A.builtin(BuiltinKind::MsUnion, {M1, Empty}), M1);
}

TEST_F(SolverFixture, DomOfMapPut) {
  TermRef M = A.freshSym("m");
  TermRef K = A.freshSym("k");
  TermRef V = A.freshSym("v");
  TermRef D = A.builtin(BuiltinKind::MapDom,
                        {A.builtin(BuiltinKind::MapPut, {M, K, V})});
  EXPECT_EQ(D, A.builtin(BuiltinKind::SetAdd,
                         {A.builtin(BuiltinKind::MapDom, {M}), K}));
}

TEST_F(SolverFixture, GetOfPutSameKey) {
  TermRef M = A.freshSym("m");
  TermRef K = A.freshSym("k");
  TermRef V = A.freshSym("v");
  TermRef P = A.builtin(BuiltinKind::MapPut, {M, K, V});
  EXPECT_EQ(A.builtin(BuiltinKind::MapGet, {P, K}), V);
}

TEST_F(SolverFixture, MeanStaysUninterpretedOnSymbolicSeqs) {
  // mean must NOT expand to Div(sum, len): Div truncates toward zero while
  // the concrete mean floors, so the expansion would equate terms that
  // differ on negative sums (mean([-3, -4]) is -4, but -7 / 2 is -3).
  TermRef S = A.freshSym("s");
  TermRef Mean = A.builtin(BuiltinKind::SeqMean, {S});
  TermRef Expanded =
      A.binary(BinaryOp::Div, A.builtin(BuiltinKind::SeqSum, {S}),
               A.builtin(BuiltinKind::SeqLen, {S}));
  EXPECT_NE(Mean, Expanded);
  EXPECT_EQ(Mean->K, absint::AOp::Bi);
  EXPECT_EQ(Mean->B, BuiltinKind::SeqMean);
}

TEST_F(SolverFixture, MeanConstantFoldsWithFloorSemantics) {
  // Constant sequences fold through the concrete evaluator, which floors.
  ValueRef Seq = ValueFactory::seq(
      {ValueFactory::intV(-3), ValueFactory::intV(-4)});
  TermRef Mean = A.builtin(BuiltinKind::SeqMean, {A.constant(Seq)});
  ASSERT_TRUE(Mean->isConst());
  EXPECT_EQ(Mean->intVal(), -4);
}

TEST_F(SolverFixture, BooleanSimplification) {
  TermRef B = A.freshSym("b");
  EXPECT_EQ(A.logAnd(B, A.boolConst(true)), B);
  EXPECT_TRUE(A.logAnd(B, A.boolConst(false))->isFalse());
  EXPECT_EQ(A.logNot(A.logNot(B)), B);
  EXPECT_TRUE(A.eq(B, B)->isTrue());
}

TEST_F(SolverFixture, HashConsingSharesStructure) {
  TermRef X = A.freshSym("x");
  TermRef T1 = A.add(X, i(1));
  size_t After = A.size();
  TermRef T2 = A.add(X, i(1));
  EXPECT_EQ(T1, T2);
  EXPECT_EQ(A.size(), After); // rebuilding interns nothing new
}

TEST_F(SolverFixture, SumsStayConstantSizeOnStraightLineCode) {
  // N pairs of `x := x + c*l; y := y + x`, symbolically executed through
  // the verifier's translation and rewrite rules: like terms collect, so
  // y stays `y0 + n*x0 + m*l` however long the program is.
  Program P = parseChecked("function fx(x: int, c: int, l: int): int = "
                           "x + c * l;\n"
                           "function fy(y: int, x: int): int = y + x;");
  auto SizeAfter = [&](int N) {
    NormArena B;
    std::map<std::string, TermRef> Env{{"x", B.freshSym("x0")},
                                       {"y", B.freshSym("y0")},
                                       {"l", B.freshSym("l")}};
    for (int I = 1; I <= N; ++I) {
      Env["c"] = B.intConst(I);
      Env["x"] = B.norm(
          absint::translateExpr(B.F, *P.Funcs[0].Body, Env, &P));
      Env["y"] = B.norm(
          absint::translateExpr(B.F, *P.Funcs[1].Body, Env, &P));
    }
    return Env["y"]->Size;
  };
  uint32_t At50 = SizeAfter(50);
  EXPECT_EQ(At50, SizeAfter(200));
  EXPECT_LE(At50, 8u);
}

//===----------------------------------------------------------------------===//
// Entailment
//===----------------------------------------------------------------------===//

TEST_F(SolverFixture, CongruencePropagatesEqualities) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef M = A.freshSym("m");
  S.assumeEq(X, Y);
  // f(x) == f(y) by congruence, through arbitrary operations.
  EXPECT_TRUE(S.provesEq(A.builtin(BuiltinKind::MapDom,
                                   {A.builtin(BuiltinKind::MapPut,
                                              {M, X, A.intConst(0)})}),
                         A.builtin(BuiltinKind::MapDom,
                                   {A.builtin(BuiltinKind::MapPut,
                                              {M, Y, A.intConst(0)})})));
}

TEST_F(SolverFixture, CongruenceIsRetroactive) {
  // Terms built before the equality is assumed still merge.
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef Fx = A.builtin(BuiltinKind::Abs, {X});
  TermRef Fy = A.builtin(BuiltinKind::Abs, {Y});
  EXPECT_FALSE(S.provesEq(Fx, Fy));
  S.assumeEq(X, Y);
  EXPECT_TRUE(S.provesEq(Fx, Fy));
}

TEST_F(SolverFixture, TransitiveEqualities) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef Z = A.freshSym("z");
  S.assumeEq(X, Y);
  S.assumeEq(Y, Z);
  EXPECT_TRUE(S.provesEq(X, Z));
}

TEST_F(SolverFixture, ConstantPropagation) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  S.assumeEq(X, i(3));
  EXPECT_TRUE(S.provesEq(A.add(X, i(4)), i(7)));
}

TEST_F(SolverFixture, LinearBounds) {
  Solver S(A.F);
  TermRef X = A.freshSym("i");
  TermRef N = A.freshSym("n");
  S.assumeTrue(A.le(i(0), X));                     // 0 <= i
  S.assumeTrue(A.binary(BinaryOp::Lt, X, N));      // i < n
  EXPECT_TRUE(S.provesTrue(A.le(A.add(X, i(1)), N)));   // i + 1 <= n
  EXPECT_TRUE(S.provesTrue(A.le(X, N)));                // i <= n
  EXPECT_TRUE(S.provesTrue(A.le(i(0), A.add(X, i(1))))); // 0 <= i + 1
  EXPECT_FALSE(S.provesTrue(A.le(N, X)));               // not n <= i
}

TEST_F(SolverFixture, TransitiveBounds) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef Z = A.freshSym("z");
  S.assumeTrue(A.le(X, Y));
  S.assumeTrue(A.le(Y, Z));
  EXPECT_TRUE(S.provesTrue(A.le(X, Z)));
}

TEST_F(SolverFixture, AntisymmetryProvesEquality) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  S.assumeTrue(A.le(X, Y));
  S.assumeTrue(A.le(Y, X));
  EXPECT_TRUE(S.provesEq(X, Y));
}

TEST_F(SolverFixture, NegatedLoopConditionUsable) {
  // After a While1 loop: !(i < n) gives n <= i.
  Solver S(A.F);
  TermRef X = A.freshSym("i");
  TermRef N = A.freshSym("n");
  S.assumeTrue(A.logNot(A.binary(BinaryOp::Lt, X, N)));
  S.assumeTrue(A.le(X, N));
  EXPECT_TRUE(S.provesEq(X, N));
}

TEST_F(SolverFixture, DisequalityFromDistinctConstants) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  S.assumeEq(X, i(1));
  S.assumeEq(Y, i(2));
  EXPECT_TRUE(S.provesTrue(A.binary(BinaryOp::Ne, X, Y)));
}

TEST_F(SolverFixture, ContradictionProvesEverything) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  S.assumeEq(X, i(1));
  S.assumeEq(X, i(2));
  EXPECT_TRUE(S.inContradiction());
  EXPECT_TRUE(S.provesTrue(A.boolConst(false)) || S.provesEq(i(1), i(2)));
}

TEST_F(SolverFixture, CloneIsIndependent) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  Solver S2 = S; // value semantics
  S2.assumeEq(X, Y);
  EXPECT_TRUE(S2.provesEq(X, Y));
  EXPECT_FALSE(S.provesEq(X, Y));
}

TEST_F(SolverFixture, LownessFlowsThroughDerivedOutputs) {
  // The Fig. 3 final step: Low(dom(v)) gives Low(sort(set_to_seq(dom(v)))).
  Solver S(A.F);
  TermRef VL = A.freshSym("v_L");
  TermRef VR = A.freshSym("v_R");
  S.assumeEq(A.builtin(BuiltinKind::MapDom, {VL}),
             A.builtin(BuiltinKind::MapDom, {VR}));
  auto Out = [&](TermRef V) {
    return A.builtin(
        BuiltinKind::SeqSort,
        {A.builtin(BuiltinKind::SetToSeq,
                   {A.builtin(BuiltinKind::MapDom, {V})})});
  };
  EXPECT_TRUE(S.provesEq(Out(VL), Out(VR)));
  // But the full map values are not low.
  EXPECT_FALSE(S.provesEq(A.builtin(BuiltinKind::MapValues, {VL}),
                          A.builtin(BuiltinKind::MapValues, {VR})));
}

TEST_F(SolverFixture, TranslationMatchesConcreteEval) {
  // Evaluating a closed expression symbolically folds to the same constant
  // the concrete evaluator produces.
  Program P = parseChecked(
      "function f(x: int): int = sum(append(append(seq_empty(), x), 2 * x));");
  TermRef T = A.norm(
      absint::translateExpr(A.F, *P.Funcs[0].Body, {{"x", i(5)}}, &P));
  ASSERT_TRUE(T->isConst());
  EXPECT_EQ(T->intVal(), 15);
}

TEST_F(SolverFixture, TranslationTotalizesPartialBuiltins) {
  // head of an empty sequence is the element type's default, as in the
  // concrete evaluator; only translation knows that type.
  Program P = parseChecked(
      "function f(s: seq<bool>): bool = head(s);");
  TermRef T = A.norm(absint::translateExpr(
      A.F, *P.Funcs[0].Body, {{"s", A.constant(ValueFactory::emptySeq())}},
      &P));
  EXPECT_TRUE(T->isFalse());
}

TEST_F(SolverFixture, TranslationSymbolicLowness) {
  // Two sides with equal inputs produce identical terms for deterministic
  // expressions — the basis of Low(e) checking.
  Program P = parseChecked(
      "function f(s: seq<int>): seq<int> = sort(concat(s, s));");
  TermRef S1 = A.freshSym("s");
  TermRef T1 =
      A.norm(absint::translateExpr(A.F, *P.Funcs[0].Body, {{"s", S1}}, &P));
  TermRef T2 =
      A.norm(absint::translateExpr(A.F, *P.Funcs[0].Body, {{"s", S1}}, &P));
  EXPECT_EQ(T1, T2);
}

TEST_F(SolverFixture, SaturatingSumIsNotAHomomorphism) {
  // vops::seqSum saturates at the int64 boundary, so sum(concat(a, b)) may
  // differ from sum(a) + sum(b) (and sum(append(s, 1)) from sum(s) + 1):
  // neither may be provable.
  Solver S(A.F);
  TermRef SA = A.freshSym("a");
  TermRef SB = A.freshSym("b");
  EXPECT_FALSE(S.provesEq(
      sum(A.builtin(BuiltinKind::SeqConcat, {SA, SB})),
      A.add(sum(SA), sum(SB))));
  EXPECT_FALSE(S.provesEq(
      sum(A.builtin(BuiltinKind::SeqAppend, {SA, i(1)})),
      A.add(sum(SA), i(1))));
  // Ground sequences still fold, saturating like the evaluator.
  TermRef Big = A.constant(ValueFactory::seq(
      {ValueFactory::intV(INT64_MAX), ValueFactory::intV(1)}));
  EXPECT_EQ(sum(Big), i(INT64_MAX));
}
