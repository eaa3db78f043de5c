//===-- tests/solver/SolverMoreTest.cpp - Newer solver rules ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the solver rules added for the verifier's completeness: Ite
/// collapse and case splits, injectivity propagation, AC-chain matching,
/// non-negativity axioms, and commutative-signature congruence.
///
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "tests/common/TermTestUtil.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {
class SolverMore : public ::testing::Test {
protected:
  NormArena A;
  TermRef i(int64_t V) { return A.intConst(V); }
  TermRef ite(TermRef C, TermRef T, TermRef E) {
    return A.builtin(BuiltinKind::Ite, {C, T, E});
  }
};
} // namespace

TEST_F(SolverMore, IteCollapsesWhenConditionDecided) {
  Solver S(A.F);
  TermRef B = A.freshSym("b");
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef T = ite(B, X, Y);
  EXPECT_FALSE(S.provesEq(T, X));
  S.assumeTrue(B);
  EXPECT_TRUE(S.provesEq(T, X));
}

TEST_F(SolverMore, IteCollapsesOnNegatedCondition) {
  Solver S(A.F);
  TermRef B = A.freshSym("b");
  TermRef T = ite(B, i(1), i(2));
  S.assumeTrue(A.logNot(B));
  EXPECT_TRUE(S.provesEq(T, i(2)));
}

TEST_F(SolverMore, AssumedComparisonDecidesIteCondition) {
  // The regression behind the fuzz-found stack overflow: assuming an
  // equality/comparison must decide the proposition itself.
  Solver S(A.F);
  TermRef H = A.freshSym("h");
  TermRef Cond = A.eq(A.binary(BinaryOp::Mod, H, i(8)), i(0));
  TermRef T = ite(Cond, i(1), i(2));
  S.assumeTrue(Cond);
  EXPECT_TRUE(S.provesEq(T, i(1)));
}

TEST_F(SolverMore, CaseSplitProvesBranchIndependentFacts) {
  Solver S(A.F);
  TermRef B = A.freshSym("b");
  TermRef T = ite(B, i(1), i(0));
  // 0 <= ite(b, 1, 0) regardless of b.
  EXPECT_TRUE(S.provesTrue(A.le(i(0), T)));
  EXPECT_TRUE(S.provesTrue(A.le(T, i(1))));
  EXPECT_FALSE(S.provesTrue(A.le(i(1), T))); // would need b
}

TEST_F(SolverMore, NestedCaseSplits) {
  Solver S(A.F);
  TermRef B1 = A.freshSym("b1");
  TermRef B2 = A.freshSym("b2");
  TermRef T = ite(B1, ite(B2, i(3), i(4)), i(5));
  EXPECT_TRUE(S.provesTrue(A.le(i(3), T)));
  EXPECT_TRUE(S.provesTrue(A.le(T, i(5))));
}

TEST_F(SolverMore, PairInjectivity) {
  Solver S(A.F);
  TermRef X1 = A.freshSym("x1");
  TermRef X2 = A.freshSym("x2");
  TermRef Y1 = A.freshSym("y1");
  TermRef Y2 = A.freshSym("y2");
  S.assumeEq(A.builtin(BuiltinKind::PairMk, {X1, Y1}),
             A.builtin(BuiltinKind::PairMk, {X2, Y2}));
  EXPECT_TRUE(S.provesEq(X1, X2));
  EXPECT_TRUE(S.provesEq(Y1, Y2));
}

TEST_F(SolverMore, AppendInjectivityPeelsChains) {
  // The unshare history mechanism: equal append-chains have equal links.
  Solver S(A.F);
  TermRef E = A.constant(ValueFactory::emptySeq());
  TermRef R1 = A.freshSym("r1");
  TermRef R2 = A.freshSym("r2");
  TermRef Q1 = A.freshSym("q1");
  TermRef Q2 = A.freshSym("q2");
  TermRef ChainL = A.builtin(
      BuiltinKind::SeqAppend,
      {A.builtin(BuiltinKind::SeqAppend, {E, R1}), R2});
  TermRef ChainR = A.builtin(
      BuiltinKind::SeqAppend,
      {A.builtin(BuiltinKind::SeqAppend, {E, Q1}), Q2});
  S.assumeEq(ChainL, ChainR);
  EXPECT_TRUE(S.provesEq(R1, Q1));
  EXPECT_TRUE(S.provesEq(R2, Q2));
}

TEST_F(SolverMore, NonNegativityAxioms) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef M = A.freshSym("m");
  EXPECT_TRUE(
      S.provesTrue(A.le(i(0), A.builtin(BuiltinKind::Abs, {X}))));
  EXPECT_TRUE(
      S.provesTrue(A.le(i(0), A.builtin(BuiltinKind::MsCard, {M}))));
  EXPECT_TRUE(
      S.provesTrue(A.le(i(0), A.builtin(BuiltinKind::SeqLen, {M}))));
  // And through sums: 0 <= abs(x) + 3.
  EXPECT_TRUE(S.provesTrue(
      A.le(i(0), A.add(A.builtin(BuiltinKind::Abs, {X}), i(3)))));
}

TEST_F(SolverMore, CommutativeCongruenceAcrossSides) {
  // max(x_L, 1) vs max(1, x_R): the per-side normal forms ordered the
  // operands differently; congruence must still connect them when the
  // sides are related.
  Solver S(A.F);
  TermRef XL = A.freshSym("x_L");
  // Create the constant between the syms, so creation order and
  // structural order disagree.
  TermRef MaxL = A.builtin(BuiltinKind::Max, {XL, i(100)});
  TermRef XR = A.freshSym("x_R");
  TermRef MaxR = A.builtin(BuiltinKind::Max, {XR, i(100)});
  S.assumeEq(XL, XR);
  EXPECT_TRUE(S.provesEq(MaxL, MaxR));
}

TEST_F(SolverMore, ACChainMatchingForAdds) {
  Solver S(A.F);
  TermRef XL = A.freshSym("xL");
  TermRef YL = A.freshSym("yL");
  TermRef XR = A.freshSym("xR");
  TermRef YR = A.freshSym("yR");
  S.assumeEq(XL, XR);
  S.assumeEq(YL, YR);
  EXPECT_TRUE(S.provesEq(A.add(A.add(XL, YL), i(2)),
                         A.add(A.add(YR, XR), i(2))));
}

TEST_F(SolverMore, ACChainMatchingForMsUnions) {
  Solver S(A.F);
  TermRef AL = A.freshSym("aL");
  TermRef BL = A.freshSym("bL");
  TermRef AR = A.freshSym("aR");
  TermRef BR = A.freshSym("bR");
  S.assumeEq(AL, AR);
  S.assumeEq(BL, BR);
  TermRef UL = A.builtin(BuiltinKind::MsUnion, {AL, BL});
  TermRef UR = A.builtin(BuiltinKind::MsUnion, {BR, AR});
  EXPECT_TRUE(S.provesEq(UL, UR));
}

TEST_F(SolverMore, MsAddChainsMatchUpToElementPermutation) {
  Solver S(A.F);
  TermRef Base = A.constant(ValueFactory::emptyMultiset());
  TermRef X = A.freshSym("x");
  TermRef Y = A.freshSym("y");
  TermRef C1 = A.builtin(BuiltinKind::MsAdd,
                         {A.builtin(BuiltinKind::MsAdd, {Base, X}), Y});
  TermRef C2 = A.builtin(BuiltinKind::MsAdd,
                         {A.builtin(BuiltinKind::MsAdd, {Base, Y}), X});
  // Already canonicalized by the rewrite rules (elements sorted
  // structurally), so equal terms.
  EXPECT_EQ(C1, C2);
}

TEST_F(SolverMore, SetAddDeduplicates) {
  TermRef Base = A.constant(ValueFactory::emptySet());
  TermRef X = A.freshSym("x");
  TermRef Once = A.builtin(BuiltinKind::SetAdd, {Base, X});
  TermRef Twice = A.builtin(BuiltinKind::SetAdd, {Once, X});
  EXPECT_EQ(Once, Twice);
}

TEST_F(SolverMore, ConcatEmptyElimination) {
  TermRef E = A.constant(ValueFactory::emptySeq());
  TermRef S1 = A.freshSym("s");
  EXPECT_EQ(A.builtin(BuiltinKind::SeqConcat, {E, S1}), S1);
  EXPECT_EQ(A.builtin(BuiltinKind::SeqConcat, {S1, E}), S1);
}

TEST_F(SolverMore, NegatedLeGivesStrictBound) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef N = A.freshSym("n");
  S.assumeTrue(A.logNot(A.le(X, N))); // x > n
  EXPECT_TRUE(S.provesTrue(A.le(N, X)));
  EXPECT_TRUE(S.provesTrue(A.le(A.add(N, i(1)), X)));
}

TEST_F(SolverMore, DisequalityByStrictSeparation) {
  Solver S(A.F);
  TermRef X = A.freshSym("x");
  TermRef N = A.freshSym("n");
  S.assumeTrue(A.binary(BinaryOp::Lt, X, N));
  EXPECT_TRUE(S.provesTrue(A.binary(BinaryOp::Ne, X, N)));
}
